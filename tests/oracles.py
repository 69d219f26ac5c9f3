"""Slow reference implementations that the batched code is tested against."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from fqe import dctsim
from fqe.jpegio import JpegFormatError
from fqe.refdata import PackedRecords, ReferenceDataset, _nearest_window
from fqe.stats import CoeffHistogram, fit_laplacian
from fqe.types import NATURAL_TO_ZIGZAG, ZIGZAG_TO_NATURAL, CoeffGrid, GrayImage, QuantTable


def zigzag_position(i: int) -> tuple[int, int]:
    """(row, col) of the 1-based zig-zag coefficient index i."""
    if not 1 <= i <= 64:
        raise ValueError(f"zig-zag index {i} out of range [1, 64]")
    nat = int(ZIGZAG_TO_NATURAL[i - 1])
    return nat // 8, nat % 8


def fdct_block(pixels: np.ndarray) -> np.ndarray:
    """Forward 8x8 DCT of a pixel block, after the -128 level shift."""
    block = np.asarray(pixels, dtype=np.float64).reshape(8, 8)
    return dctsim._DCT @ (block - 128.0) @ dctsim._DCT_T


def idct_block(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DCT back to pixels: +128, round half away from zero, clamp."""
    block = np.asarray(coeffs, dtype=np.float64).reshape(8, 8)
    pixels = dctsim._DCT_T @ block @ dctsim._DCT + 128.0
    return np.clip(dctsim.round_half_away(pixels), 0, 255).astype(np.int64)


def quantize(coeffs: np.ndarray, table: QuantTable) -> np.ndarray:
    """Divide by the table and round half away from zero; zig-zag output."""
    flat = np.asarray(coeffs, dtype=np.float64).reshape(64)
    q = dctsim.round_half_away(flat / table.factors)
    return q[ZIGZAG_TO_NATURAL].astype(np.int32)


def dequantize(values: np.ndarray, table: QuantTable) -> np.ndarray:
    """Multiply zig-zag values by the table; natural-order 8x8 output."""
    zz = np.asarray(values, dtype=np.float64).reshape(64)
    natural = zz[NATURAL_TO_ZIGZAG]
    return (natural * table.factors).reshape(8, 8)


def compress_once(img: GrayImage, table: QuantTable) -> tuple[CoeffGrid, GrayImage]:
    """One JPEG compression cycle: quantized grid plus its reconstruction."""
    blocks = dctsim.blockify(img.pixels)
    grid = CoeffGrid(
        width_blocks=img.width // 8,
        height_blocks=img.height // 8,
        values=dctsim.quantize_blocks(dctsim.fdct_blocks(blocks), table),
    )
    return grid, dctsim.reconstruct(grid, table)


def double_compress(img: GrayImage, q1: QuantTable, q2: QuantTable) -> CoeffGrid:
    """Coefficient grid of the second compression of f_q2(f_q1(img))."""
    _, first_pass = compress_once(img, q1)
    grid, _ = compress_once(first_pass, q2)
    return grid


def reg_term(c_prev: int, c: int, c_next: int, variant: str) -> float:
    """Smoothness penalty of a candidate triplet."""
    delta = abs(c - c_prev) + abs(c - c_next)
    if variant == "reg1":
        return delta / 2.0
    if variant == "reg2":
        return delta / (2.0 * math.sqrt(c))
    if variant == "reg3":
        return delta / (2.0 * c)
    raise ValueError(f"unknown regularization variant {variant!r}")


def chi2(a: CoeffHistogram, b: CoeffHistogram) -> float:
    """Chi-square distance sum((x - y)^2 / (x + y)) over the union of supports.

    Bins present in only one histogram contribute that histogram's mass;
    both-zero bins cannot occur on the union.
    """
    union = np.union1d(a.support, b.support)
    xa = np.zeros(union.size)
    xb = np.zeros(union.size)
    xa[np.searchsorted(union, a.support)] = a.mass
    xb[np.searchsorted(union, b.support)] = b.mass
    return float(np.sum((xa - xb) ** 2 / (xa + xb)))


class NoCandidatesError(ValueError):
    """A sub-dataset holds no records for the requested comparison."""


@dataclass(eq=False)
class RefRecord:
    """One reference histogram and its sort key (mu for DC, beta for AC)."""

    key: float
    hist: CoeffHistogram

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefRecord):
            return NotImplemented
        return self.key == other.key and self.hist == other.hist


def record(packed: PackedRecords, i: int) -> RefRecord:
    """Record i of packed as a key and a histogram of its own."""
    lo, hi = int(packed.offsets[i]), int(packed.offsets[i + 1])
    hist = CoeffHistogram(
        support=packed.values[lo:hi].astype(np.int64),
        mass=packed.masses[lo:hi].copy(),
        count=int(packed.counts[i]),
    )
    return RefRecord(key=float(packed.keys[i]), hist=hist)


def records(packed: PackedRecords) -> list[RefRecord]:
    return [record(packed, i) for i in range(len(packed))]


def query(
    ds: ReferenceDataset, q1: int, q2: int, kind: str, key: float, n: int
) -> list[RefRecord]:
    """The n records of section (q1, q2, kind) whose keys are nearest to key."""
    if n < 1:
        raise ValueError("n must be at least 1")
    packed = ds.section(q1, q2, kind)
    lo, hi = _nearest_window(packed.keys, key, n)
    return [record(packed, i) for i in range(lo, hi)]


def min_distance(h: CoeffHistogram, candidates: list[RefRecord]) -> float:
    """Smallest chi-square distance from h to any candidate record."""
    if not candidates:
        raise NoCandidatesError("no reference records for this (q1, q2)")
    return min(chi2(h, r.hist) for r in candidates)


def dense_min_distance(packed: PackedRecords, h: CoeffHistogram, key: float, n: int) -> float:
    """refdata.batch_min_distance through a dense query array over h's support range.

    Each record value is shifted into the range, masked and clipped, and
    looks its query mass up there.
    """
    if len(packed) == 0:
        return float("inf")
    lo, hi = _nearest_window(packed.keys, key, n)
    start, end = int(packed.offsets[lo]), int(packed.offsets[hi])
    vals = packed.values[start:end].astype(np.int64)
    mass = packed.masses[start:end]

    qmin = int(h.support[0])
    dense = np.zeros(int(h.support[-1]) - qmin + 1)
    dense[h.support - qmin] = h.mass
    idx = vals - qmin
    inside = (idx >= 0) & (idx < dense.size)
    x = np.where(inside, dense[np.clip(idx, 0, dense.size - 1)], 0.0)

    terms = (x - mass) ** 2 / (x + mass)
    seg = packed.offsets[lo:hi] - start
    total_x = float(np.add.reduceat(h.mass, [0])[0])
    dist = np.add.reduceat(terms, seg) + (total_x - np.add.reduceat(x, seg))
    return float(max(dist.min(), 0.0))


def patch_items(patch: GrayImage, q1_max: int, k: int):
    """Per-(q1, q2) DC and AC record items of one patch, one column at a time.

    Items are (key, support, bin counts, sample count). Each (q1, q2,
    coefficient) column gets its own np.unique and fit_laplacian; columns
    with a single bin give no item.
    """
    f0 = dctsim.fdct_blocks(dctsim.blockify(patch.pixels))
    zz_first_k = ZIGZAG_TO_NATURAL[:k]
    out = {}
    for q1 in range(1, q1_max + 1):
        t1 = dctsim.constant_table(q1)
        zz1 = dctsim.quantize_blocks(f0, t1)
        recon = dctsim.idct_blocks(dctsim.dequantize_blocks(zz1, t1))
        f1 = dctsim.fdct_blocks(recon).reshape(-1, 64)[:, zz_first_k]
        n_blocks = f1.shape[0]
        for q2 in range(1, q1_max + 1):
            quantized = dctsim.round_half_away(f1 / float(q2)).astype(np.int32)
            dc_items = []
            ac_items = []
            for i in range(k):
                support, counts = np.unique(quantized[:, i], return_counts=True)
                if support.size == 1:
                    continue
                params = fit_laplacian(
                    CoeffHistogram(support=support, mass=counts / n_blocks, count=n_blocks)
                )
                key = params.mu if i == 0 else params.beta
                (dc_items if i == 0 else ac_items).append(
                    (key, support.astype(np.int16), counts.astype(np.uint16), n_blocks)
                )
            out[(q1, q2)] = (dc_items, ac_items)
    return out


@functools.lru_cache(maxsize=8)
def huffman_lut(tc: int, bits: tuple[int, ...], values: tuple[int, ...]) -> list[int]:
    """Drop-in for jpegio._huffman_table: every 16-bit peek mapped to
    (symbol << 8) | code_length, 0 for an invalid prefix. tc is unused.
    Cached like the tables it replaces; callers only read the list."""
    lut = [0] * (1 << 16)
    code = 0
    vi = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            if code >= (1 << length):
                raise JpegFormatError("Huffman table overflows its code space")
            start = code << (16 - length)
            end = (code + 1) << (16 - length)
            lut[start:end] = [(values[vi] << 8) | length] * (end - start)
            vi += 1
            code += 1
        code <<= 1
    return lut


def decode_scan(segments, segment_units, comp_tables, outputs):
    """Drop-in for jpegio._decode_scan: the byte-refill decoder, segment by
    segment, on the (dc, ac) tables of huffman_lut."""
    for segment, units in zip(segments, segment_units):
        decode_segment(segment, units, comp_tables, outputs, [0] * len(comp_tables))


def decode_segment(
    data: bytes,
    units: list[tuple[int, int]],
    comp_tables: list[tuple[list[int], list[int]]],
    outputs: list[np.ndarray],
    dc_pred: list[int],
) -> None:
    """Decode `units` (comp_index, dest_block) from one restart segment."""
    pos = 0
    n = len(data)
    buf = 0
    nbits = 0
    padded = 0
    for ci, dest in units:
        dc_lut, ac_lut = comp_tables[ci]
        out = outputs[ci]
        block = [0] * 64
        pred = dc_pred[ci]
        k = 0
        while True:
            # Refill so a 16-bit peek is available; pad with 1s at stream end.
            # A legitimate stream touches at most a few pad bytes of lookahead,
            # so sustained padding means the scan data was cut short.
            while nbits < 16:
                if pos < n:
                    buf = (buf << 8) | data[pos]
                    pos += 1
                    nbits += 8
                else:
                    buf = (buf << 8) | 0xFF
                    nbits += 8
                    padded += 1
                    if padded > 6:
                        raise JpegFormatError("entropy-coded data is truncated")
            peek = (buf >> (nbits - 16)) & 0xFFFF
            entry = (dc_lut if k == 0 else ac_lut)[peek]
            if entry == 0:
                raise JpegFormatError("invalid Huffman code in scan data")
            length = entry & 0xFF
            symbol = entry >> 8
            nbits -= length
            buf &= (1 << nbits) - 1
            if k == 0:
                size = symbol
                if size:
                    # 8-bit baseline DC differences have categories 0..11
                    # (T.81 F.1.2.1) and DC values lie within +-1024, so a
                    # larger category or a prediction past +-2047 is corrupt.
                    if size > 11:
                        raise JpegFormatError(f"DC magnitude category {size} exceeds 11")
                    while nbits < size:
                        if pos >= n:
                            raise JpegFormatError("entropy-coded data is truncated")
                        buf = (buf << 8) | data[pos]
                        pos += 1
                        nbits += 8
                    v = (buf >> (nbits - size)) & ((1 << size) - 1)
                    nbits -= size
                    buf &= (1 << nbits) - 1
                    if v < (1 << (size - 1)):
                        v -= (1 << size) - 1
                    pred += v
                    if not -2048 < pred < 2048:
                        raise JpegFormatError("DC coefficient outside the 8-bit baseline range")
                block[0] = pred
                k = 1
                continue
            run = symbol >> 4
            size = symbol & 0x0F
            if size == 0:
                if run == 15:
                    k += 16
                    if k > 64:
                        raise JpegFormatError("AC run overflows the block")
                    continue
                break  # EOB
            k += run
            if k > 63:
                raise JpegFormatError("AC coefficient index overflows the block")
            while nbits < size:
                if pos >= n:
                    raise JpegFormatError("entropy-coded data is truncated")
                buf = (buf << 8) | data[pos]
                pos += 1
                nbits += 8
            v = (buf >> (nbits - size)) & ((1 << size) - 1)
            nbits -= size
            buf &= (1 << nbits) - 1
            if v < (1 << (size - 1)):
                v -= (1 << size) - 1
            block[k] = v
            k += 1
            if k == 64:
                break
        dc_pred[ci] = pred
        out[dest] = block
