"""Reference distribution dataset: build, persist, search.

Every raw patch is double-compressed with all pairs of constant matrices
(M_q1, M_q2); the DC histogram and the pooled AC histograms of coefficients
2..k land in the dc and ac sections of that (q1, q2), indexed by the
Laplacian fit (mu for DC, beta for AC). A dataset is the bytes of its FQE5
file, which the build writes one q1 at a time, each column as narrow as its
values. Each section's records are a contiguous run sorted by key, so that
nearest-key windows are contiguous slices and the chi-square scan over a
window is one vectorized pass.
ReferenceDataset.section(q1, q2, kind) is the one way to a section's
records; scoring one keeps nothing per bin.
"""

from __future__ import annotations

import io
import itertools
import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from . import dctsim
from .stats import CoeffHistogram, fit_laplacian_batch, laplacian_beta
from .stats import fit_laplacian  # noqa: F401  (perfbench/spans.py traces this name)
from .types import ZIGZAG_TO_NATURAL, GrayImage


class DatasetFormatError(Exception):
    """Corrupt, truncated, or incompatible dataset file."""


class PackedRecords:
    """Records of one (q1, q2, kind) section, packed into flat arrays.

    keys is sorted ascending; record i owns the support values[offsets[i]:offsets[i+1]]
    with matching integer bin counts bins. Every record has count samples
    behind it, as a float: the block count of the dataset's patches. values
    are int8 or int16 and bins uint8 or uint16, as a dataset file stores them;
    from_items gives int16 and uint16.
    """

    def __init__(self, keys, offsets, values, bins, count: float):
        self.keys = keys
        self.offsets = offsets
        self.values = values
        self.bins = bins
        self.count = count

    @classmethod
    def from_items(  # perfbench/spans.py traces this name
        cls, items: list[tuple[float, np.ndarray, np.ndarray, int]]
    ) -> "PackedRecords":
        """Pack (key, support, bin counts, sample count) items, stably sorted by key."""
        counts = {it[3] for it in items}
        if len(counts) > 1:
            raise ValueError(f"records of one section share one sample count, not {sorted(counts)}")
        keys = np.array([it[0] for it in items], dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        lengths = np.array([items[i][1].size for i in order], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        # np.concatenate needs one array: an empty one leads, so no items pack to no bins.
        empty = [np.empty(0, dtype=np.int16)]
        return cls(
            keys=keys[order],
            offsets=offsets,
            values=np.concatenate(empty + [items[i][1] for i in order]).astype(np.int16),
            bins=np.concatenate(empty + [items[i][2] for i in order]).astype(np.uint16),
            count=float(counts.pop()) if counts else 0.0,
        )

    def __len__(self) -> int:
        return self.keys.size


@dataclass
class SubDataset:
    """The dc and ac sections of one (q1, q2), as ReferenceDataset.subs lists them."""

    q1: int
    q2: int
    dc: PackedRecords
    ac: PackedRecords


@dataclass(eq=False)
class ReferenceDataset:
    """A view of the bytes of an FQE5 file, data.

    Section s = 2 * ((q1 - 1) * q1_max + q2 - 1) + (0 for dc, 1 for ac) owns
    records bounds[s]:bounds[s + 1] and bins bin_bounds[s]:bin_bounds[s + 1]
    of the dataset, a run of each column of its q1's block: the columns
    start at the bytes columns[q1 - 1], in the order of column_bytes. Its
    values are int16 when it owns bins wide_bounds[s]:wide_bounds[s + 1]
    of the int16 values, that is when that run is not empty, and int8
    otherwise. A record's bins sum to the block count of a patch,
    (patch_side / 8)^2, and keys are sorted within each section. The
    PackedRecords of a (q1, q2, kind) section, views of data with its own
    record offsets, is made and its records checked the first time
    section() asks for it, and then kept: 8 bytes per record, and nothing
    per bin.
    """

    q1_max: int
    k: int
    patch_side: int
    source_count: int
    data: bytes | memoryview | mmap.mmap = field(repr=False)
    bounds: np.ndarray = field(repr=False)
    bin_bounds: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)
    wide_bounds: np.ndarray = field(repr=False)
    # The CRC trailer of data, and the file that load_dataset mapped.
    crc: int = field(repr=False)
    path: str | None = None
    # Section id -> its PackedRecords, for the sections made so far.
    _made: dict[int, PackedRecords] = field(init=False, repr=False, default_factory=dict)

    @property
    def subs(self) -> dict[tuple[int, int], SubDataset]:  # perfbench reads this name
        """Every (q1, q2) sub-dataset, q1-major; makes every section."""
        return {
            (q1, q2): SubDataset(q1, q2, self.section(q1, q2, "dc"), self.section(q1, q2, "ac"))
            for q1, q2 in itertools.product(range(1, self.q1_max + 1), repeat=2)
        }

    def footer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each section's record count, bin count and value width, as the footer has them."""
        return np.diff(self.bounds), np.diff(self.bin_bounds), 1 + (np.diff(self.wide_bounds) > 0)

    def section(self, q1: int, q2: int, kind: str) -> PackedRecords:
        """The records of (q1, q2) of one kind, "dc" or "ac"; made on first use, then kept."""
        if not (1 <= q1 <= self.q1_max and 1 <= q2 <= self.q1_max):
            raise KeyError(f"no sub-dataset for (q1={q1}, q2={q2})")
        if kind not in _KINDS:
            raise ValueError(f"unknown record kind {kind!r} (expected 'dc' or 'ac')")
        s = 2 * ((q1 - 1) * self.q1_max + q2 - 1) + _KINDS.index(kind)
        packed = self._made.get(s)
        if packed is None:
            first = 2 * self.q1_max * (q1 - 1)
            r, r0, r1 = (int(self.bounds[i]) for i in (first, s, s + 1))
            b, b0, b1 = (int(self.bin_bounds[i]) for i in (first, s, s + 1))
            w, w0, w1 = (int(self.wide_bounds[i]) for i in (first, s, s + 1))
            c = count_width(self.patch_side)
            keys_at, wide_at, lengths_at, bins_at, narrow_at = self.columns[q1 - 1].tolist()
            keys = np.frombuffer(self.data, "<f8", r1 - r0, keys_at + 8 * (r0 - r))
            lengths = np.frombuffer(self.data, f"<u{c}", r1 - r0, lengths_at + c * (r0 - r))
            bins = np.frombuffer(self.data, f"<u{c}", b1 - b0, bins_at + c * (b0 - b))
            if w1 > w0:
                values = np.frombuffer(self.data, "<i2", b1 - b0, wide_at + 2 * (w0 - w))
            else:
                values = np.frombuffer(self.data, "<i1", b1 - b0, narrow_at + b0 - b - (w0 - w))
            offsets = np.zeros(r1 - r0 + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            where, n = f"section ({q1}, {q2}, {kind})", (self.patch_side // 8) ** 2
            # A failing section is not kept, so every use of it fails.
            if offsets[-1] != bins.size:
                raise DatasetFormatError(f"support lengths of {where} do not sum to its bin count")
            if keys.size and (lengths.min() == 0 or bins.min() == 0):
                raise DatasetFormatError(f"a record of {where} has an empty support or bin")
            ends = keys[:: len(keys) - 1 or 1].tolist()  # a NaN elsewhere breaks the order
            if not ((keys[1:] >= keys[:-1]).all() and all(map(math.isfinite, ends))):
                raise DatasetFormatError(f"record keys of {where} are not finite and sorted")
            if (np.add.reduceat(bins, offsets[:-1], dtype=np.int64) != n).any():
                raise DatasetFormatError(f"a record of {where} does not hold {n} samples")
            packed = self._made[s] = PackedRecords(keys, offsets, values, bins, float(n))
        return packed


def _nearest_window(keys: np.ndarray, key: float, n: int) -> tuple[int, int]:
    """Bounds of the n records with keys nearest to key.

    The window is contiguous because keys are sorted. On equal distance the
    lower-key record is preferred.
    """
    r = keys.size
    if n >= r:
        return 0, r
    pos = int(np.searchsorted(keys, key))
    lo_min = max(0, pos - n)
    lo_max = min(pos, r - n)
    if lo_max <= lo_min:
        return lo_min, lo_min + n
    shift = (key - keys[lo_min:lo_max]) > (keys[lo_min + n : lo_max + n] - key)
    lo = lo_min + int(np.count_nonzero(shift))
    return lo, lo + n


# Blocks per batch. ms per patch levels off at about 512 blocks; one
# _q1_columns call then peaks near 3.7 MB at q1_max 22 and k 15, and
# returns about 160 KB.
_BATCH_BLOCKS = 512


def _forward_dct(batch: list[GrayImage]) -> np.ndarray:
    """The forward DCT of a batch's 8x8 blocks, patch after patch."""
    return dctsim.fdct_blocks(np.concatenate([dctsim.blockify(p.pixels) for p in batch]))


def _q1_columns(f0: np.ndarray, n_patches: int, q1: int, q1_max: int, k: int):
    """The records of one q1 over a batch of same-size patches, in (q2, patch, coefficient) order.

    f0 is _forward_dct of the batch. Returns, per record, its section id
    (int32), key and support length (u16), and per bin its support value
    (i16) and count (u16); every record counts a patch's block count of
    samples. Bit-exact with the oracle tests/oracles.double_compress
    followed by build_histogram and fit_laplacian per coefficient: the
    forward DCT of the q1 reconstruction is sorted per (patch, coefficient),
    then requantized for all q2 at once, so the bins of a row are its runs
    of equal values and mu is, but for ties, its lower median sample.
    """
    n_blocks = f0.shape[0] // n_patches
    # Each rounding of x / q is round_half_away's as int16, for |x / q| < 32767.5:
    # x / q + copysign(0.5, x) is +-(|x / q| + 0.5), rounded alike, and the cast
    # truncates toward zero. Here quantize_blocks then dequantize_blocks by
    # constant_table(q1), without the zig-zag round trip, as |f0 / q1| <= 2048.
    recon = dctsim.idct_blocks((f0 / q1 + np.copysign(0.5, f0)).astype(np.int16) * float(q1))
    f1 = dctsim.fdct_blocks(recon).reshape(n_patches, n_blocks, 64)[..., ZIGZAG_TO_NATURAL[:k]]
    f1 = f1.transpose(0, 2, 1).copy()
    # round_half_away(x / q2) is monotone in x, so sorted rows requantize to sorted
    # rows, for every q2 at once. The float quotients are freed at the int16 cast.
    f1.sort(axis=2)
    rows = f1.reshape(-1) / np.arange(1, q1_max + 1, dtype=np.float64)[:, None]
    rows += np.copysign(0.5, f1.reshape(-1))
    rows = rows.astype(np.int16).reshape(-1, n_blocks)
    starts = np.empty(rows.shape, dtype=bool)
    np.not_equal(rows.reshape(-1)[1:], rows.reshape(-1)[:-1], out=starts.reshape(-1)[1:])
    starts[:, 0] = True
    first = np.flatnonzero(starts)
    row_lengths = np.bincount(first // n_blocks)
    row_bins = np.diff(first, append=rows.size)
    # A single-bin histogram carries no information about q1: no record.
    keep = row_lengths > 1
    bin_keep = np.repeat(keep, row_lengths)
    # Row r = ((q2 - 1) * n_patches + p) * k + i: coefficient i of patch p over q2.
    r = np.flatnonzero(keep)
    table = 2 * np.arange(q1_max * (q1 - 1), q1_max * q1, dtype=np.int32)[:, None]
    sections = np.repeat(table + (np.arange(k) > 0), n_patches, axis=0).reshape(-1)[keep]
    lengths = row_lengths[keep]
    values = rows.reshape(-1)[first[bin_keep]]
    bins = row_bins[bin_keep].astype(np.uint16)
    masses = bins / n_blocks
    # mu is the row's lower median sample, in the bin where the counts first
    # reach n_blocks / 2: there the masses' cumsum first reaches half its
    # total, as every other bin's sum is at least 1 / (2 n_blocks) from half...
    mu = rows[r, (n_blocks - 1) // 2].astype(np.float64)
    if n_blocks % 2 == 0 and n_blocks & (n_blocks - 1):
        # ...unless a bin's counts end at exactly n_blocks / 2: its sum of
        # inexact masses c / n_blocks may round to either side of half, so
        # those rows take fit_laplacian_batch's mu. (Sums of c / 2^j are exact.)
        tie = rows[r, n_blocks // 2 - 1] != rows[r, n_blocks // 2]
        in_tie = np.repeat(tie, lengths)
        mu[tie] = fit_laplacian_batch(values[in_tie], masses[in_tie], lengths[tie])[0]
    keys = np.where(sections % 2 == 0, mu, laplacian_beta(values, masses, lengths, mu))
    return sections, keys, lengths.astype(np.uint16), values, bins


def write_reference(
    fh: BinaryIO,
    patches: list[GrayImage],
    q1_max: int = 22,
    k: int = 15,
    jobs: int | None = None,
) -> tuple[int, np.ndarray]:
    """Build the reference dataset from raw patches, writing its FQE5 file to fh as it goes.

    Deterministic given the patch sequence and parameters, independent of
    the worker count and of the batch split. Sections are q1-major, so the
    build runs q1 by q1 (_q1_records) and writes each q1's block once it is
    done, in q1 order, with the value width of each of its sections.
    In-process, only the batches' forward DCTs and one q1's records are
    held; with jobs above 1 and two or more batches, pool workers build
    whole q1s, and the q1s they finish before the writer reaches them wait
    in this process. Returns the file size and the record count of every
    section.
    """
    if not patches:
        raise ValueError("cannot build a reference dataset from no patches")
    side = patches[0].width
    check_header(q1_max, k, side)
    if (len(patches) * q1_max * k) ** 2 >= 1 << 63:  # see _q1_records' sort keys
        raise ValueError(f"{len(patches)} patches give too many records per q1 to order")
    for p in patches:
        if p.width != side or p.height != side:
            raise ValueError("all patches must share one square size")

    per_batch = max(1, _BATCH_BLOCKS // (side // 8) ** 2)
    batches = [
        (_forward_dct(patches[i : i + per_batch]), len(patches[i : i + per_batch]))
        for i in range(0, len(patches), per_batch)
    ]
    q1s = range(1, q1_max + 1)
    # A one-batch build takes about as long as starting a pool, so it runs
    # in-process.
    pool = None
    if jobs is not None and jobs > 1 and len(batches) > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(
            min(jobs, q1_max), initializer=_init_build_worker, initargs=(batches, q1_max, k)
        )
        results = pool.map(_q1_in_worker, q1s)
    else:
        results = (_q1_records(batches, q1, q1_max, k) for q1 in q1s)
    crc = size = 0

    def write(piece) -> None:
        nonlocal crc, size
        fh.write(piece)
        crc = zlib.crc32(piece, crc)
        size += memoryview(piece).nbytes

    counts = f"<u{count_width(side)}"
    records, bins, widths = [], [], []
    try:
        header = _MAGIC + _HEADER.pack(_VERSION, q1_max, k, side, len(patches))
        write(header.ljust(_HEADER_SIZE, b"\0"))
        for n_records, n_bins, keys, lengths, values, bin_counts in results:
            records.append(n_records)
            bins.append(n_bins)
            widths.append(_value_widths(values, n_bins))
            wide = np.repeat(widths[-1] == 2, n_bins)
            # Each column is dropped once written, and no part of this q1 is
            # held while the next is built.
            write(keys.astype("<f8", copy=False))
            write(values[wide].astype("<i2", copy=False))
            write(lengths.astype(counts, copy=False))
            write(bin_counts.astype(counts, copy=False))
            del keys, lengths, bin_counts
            write(values[~wide].astype("<i1"))
            write(bytes(-size % 8))
            del values, wide
    finally:
        if pool is not None:
            # After a failed task, the q1s not yet started are not run.
            pool.shutdown(cancel_futures=True)
    records = np.concatenate(records)
    write(records.astype("<u4"))
    write(np.concatenate(bins).astype("<u8"))
    write(np.concatenate(widths))
    fh.write(struct.pack("<I", crc))
    return size + 4, records


def _value_widths(values: np.ndarray, n_bins: np.ndarray) -> np.ndarray:
    """The value width of each section, of n_bins[s] bins of values in turn: 1
    (int8) when all its values lie in -128..127, as an empty section's do, else 2."""
    widths = np.ones(n_bins.size, dtype=np.uint8)
    full = n_bins > 0
    starts = (np.cumsum(n_bins) - n_bins)[full]
    lo, hi = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
    widths[full] += (lo < -0x80) | (hi > 0x7F)
    return widths


def build_reference(
    patches: list[GrayImage],
    q1_max: int = 22,
    k: int = 15,
    jobs: int | None = None,
) -> ReferenceDataset:
    """Build the reference dataset from raw patches: the FQE5 file of write_reference, in memory."""
    fh = io.BytesIO()
    write_reference(fh, patches, q1_max, k, jobs)
    return deserialize(fh.getbuffer())


def _q1_records(batches: list, q1: int, q1_max: int, k: int):
    """The records of one q1 over all batches, in dataset order.

    Each batch's _q1_columns are stacked in batch order and sorted by
    section, then key, equal keys keeping their patch order. Returns the
    record and bin counts of each of the q1's 2 * q1_max sections, then the
    sorted keys, support lengths, support values and bins: the q1's block.
    """
    sections, keys, lengths, values, bins = map(
        np.concatenate, zip(*(_q1_columns(*batch, q1, q1_max, k) for batch in batches))
    )
    local = (sections - 2 * q1_max * (q1 - 1)).astype(np.uint16)
    counts = np.bincount(local, minlength=2 * q1_max)
    n_bins = np.bincount(local, lengths, 2 * q1_max).astype(np.int64)
    # np.lexsort((keys, local)), faster: quicksort the unique keys rank * n + stacked index
    # (below n^2 < 2^63, as write_reference checks), then stably radix-sort the uint16 sections.
    order = (np.unique(keys, return_inverse=True)[1] * keys.size + np.arange(keys.size)).argsort()
    order = order[local[order].argsort(kind="stable")]
    stacked = np.cumsum(lengths, dtype=np.int64) - lengths
    lengths = lengths[order]
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    # Bin b of sorted record j is bin b of stacked record order[j].
    gather = np.repeat(stacked[order] - starts, lengths)
    gather += np.arange(gather.size)
    # One column at a time: each stacked column is freed once it is gathered.
    values = np.take(values, gather)
    bins = np.take(bins, gather)
    return counts, n_bins, keys[order], lengths, values, bins


# The batches, q1_max and k of the build a pool worker serves.
_worker_build: tuple | None = None


def _init_build_worker(*build) -> None:
    global _worker_build
    _worker_build = build


def _q1_in_worker(q1: int):
    batches, q1_max, k = _worker_build
    return _q1_records(batches, q1, q1_max, k)


def mass_table(h: CoeffHistogram) -> tuple[np.ndarray, float]:
    """The query's mass at every int16 record value, then at every int8 one, and its total mass.

    Entry v.view(uint16) of the table holds h's mass at int16 value v, and
    entry 65536 + v.view(uint8) its mass at int8 value v, or 0.0 where v is
    not in h's support. Support values outside a width match no record value
    of that width and are left out, not wrapped onto one. The total is summed
    by the reduction batch_min_distance applies to each record.
    """
    table = np.zeros(_WIDE_TABLE + 0x100)
    inside = (h.support >= -0x8000) & (h.support <= 0x7FFF)
    table[h.support[inside].astype(np.int16).view(np.uint16)] = h.mass[inside]
    inside = (h.support >= -0x80) & (h.support <= 0x7F)
    table[_WIDE_TABLE:][h.support[inside].astype(np.int8).view(np.uint8)] = h.mass[inside]
    return table, float(np.add.reduceat(h.mass, [0])[0])


def batch_min_distance(
    packed: PackedRecords, table: np.ndarray, key: float, n: int, total: float
) -> float:
    """Smallest chi-square distance from a query to its n nearest-key records.

    table and total are mass_table(h) of the query h; one gather from the
    table gives the query mass at every record bin of the window: from its
    256 int8 entries, which stay in cache, for int8 values. The
    window's masses, its bin counts over the shared sample count, are made
    per call and not kept. Returns inf when the section is empty. An exact
    zero is kept for a record whose support and masses match h bit for bit.
    """
    if len(packed) == 0:
        return float("inf")
    lo, hi = _nearest_window(packed.keys, key, n)
    start, end = int(packed.offsets[lo]), int(packed.offsets[hi])
    values = packed.values[start:end]
    if values.dtype == np.int8:
        x = np.take(table[_WIDE_TABLE:], values.view(np.uint8))
    else:
        x = np.take(table, values.view(np.uint16))
    mass = packed.bins[start:end].astype(np.float64)
    mass /= packed.count

    # chi2 = sum over record bins of (x-m)^2/(x+m), plus the query mass that
    # falls outside the record support: total - sum over record bins of x.
    # total uses the same reduction as the per-record sums so an identical
    # record cancels to exactly zero. x + m is summed into mass's own buffer.
    terms = x - mass
    terms *= terms
    mass += x
    terms /= mass
    seg = packed.offsets[lo:hi] - start
    dist = np.add.reduceat(terms, seg)
    dist += total - np.add.reduceat(x, seg)
    return float(max(dist.min(), 0.0))


# ---------------------------------------------------------------------------
# Serialization (FQE5), little-endian: a 32-byte header; per q1, one block of
# keys f8 per record, the values of its i2 sections, support lengths per
# record and bin counts per bin (both u1 or u2, by count_width), then the
# values of its i1 sections, zero-padded to 8 bytes, so that every run is
# aligned to its width; a footer of each (q1, q2) x (dc, ac) section's record
# count (u4), in row-major order, then its bin count (u8), then its value
# width (u1: 1 or 2 bytes); and a CRC-32 trailer over everything before it.
# Every record's sample count is the header's (patch side / 8)^2.
# ---------------------------------------------------------------------------

_MAGIC = b"FQE5"
_VERSION = 5
_HEADER = struct.Struct("<HBBHI")
_HEADER_SIZE = 32
_KINDS = ("dc", "ac")
_MAX_BIN = 0xFFFF
# Entries of mass_table for int16 values; the int8 ones follow.
_WIDE_TABLE = 1 << 16


def check_header(q1_max: int, k: int, patch_side: int) -> None:
    """Raise ValueError naming the first FQE5 header field out of range: the one
    rule of write_reference and deserialize. A u16 bin count must hold (side / 8)^2."""
    if not 1 <= q1_max <= 255:
        raise ValueError(f"q1_max {q1_max}, not 1 to 255")
    if not 2 <= k <= 64:
        raise ValueError(f"k {k}, not 2 to 64")
    if patch_side % 8 or patch_side <= 0:
        raise ValueError(f"patch side {patch_side}, not 8 to 2040 by 8")
    if (patch_side // 8) ** 2 > _MAX_BIN:
        raise ValueError(f"patch side {patch_side}, not 8 to 2040 by 8: over {_MAX_BIN} blocks")


def count_width(patch_side: int) -> int:
    """The bytes of a support length and of a bin count, by the header's patch
    side: 1 when a patch's block count, which bounds both, is at most 255, else 2."""
    return 1 if (patch_side // 8) ** 2 <= 0xFF else 2


def column_bytes(
    q1_max: int, patch_side: int, records: np.ndarray, bins: np.ndarray, widths: np.ndarray
) -> np.ndarray:
    """The bytes of the columns of each q1's block, a (q1_max, 5) array: keys, i2 values,
    support lengths, bin counts and i1 values, in file order, before the block's padding.
    From the header's q1_max and patch side and each section's footer entries."""
    c = count_width(patch_side)
    n_records, n_bins, n_wide = (
        counts.reshape(q1_max, -1).sum(axis=1) for counts in (records, bins, bins * (widths == 2))
    )
    return np.stack([8 * n_records, 2 * n_wide, c * n_records, c * n_bins, n_bins - n_wide], 1)


def serialize(ds: ReferenceDataset) -> bytes:
    """The FQE5 file of ds: the bytes it is a view of."""
    return bytes(ds.data)


def deserialize(data: bytes | memoryview | mmap.mmap) -> ReferenceDataset:
    """The dataset of an FQE5 buffer, a view of data.

    Checks the CRC trailer, the header, the footer and the size here; a
    section checks its records when it is first made.
    """
    size = len(data)
    if size < _HEADER_SIZE + 4:
        raise DatasetFormatError("dataset file is truncated")
    (crc_stored,) = struct.unpack_from("<I", data, size - 4)
    if zlib.crc32(memoryview(data)[:-4]) != crc_stored:
        raise DatasetFormatError("dataset checksum mismatch")
    magic = bytes(data[:4])
    if magic in (b"FQE1", b"FQE2", b"FQE3", b"FQE4"):
        raise DatasetFormatError(
            f"{magic.decode()} dataset files are no longer supported; "
            "rebuild the dataset with `fqe build`"
        )
    if magic != _MAGIC:
        raise DatasetFormatError("bad dataset magic")
    version, q1_max, k, patch_side, source_count = _HEADER.unpack_from(data, 4)
    if version != _VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    try:
        check_header(q1_max, k, patch_side)
    except ValueError as exc:
        raise DatasetFormatError(f"dataset declares {exc}") from None

    n_sections = len(_KINDS) * q1_max * q1_max
    footer = size - 4 - 13 * n_sections
    if footer < _HEADER_SIZE:
        raise DatasetFormatError("dataset file is truncated")
    records = np.frombuffer(data, "<u4", n_sections, footer).astype(np.int64)
    bins = np.frombuffer(data, "<u8", n_sections, footer + 4 * n_sections)
    widths = np.frombuffer(data, "u1", n_sections, footer + 12 * n_sections)
    # A bin takes 2 bytes of the file or more, so no count above size fits,
    # and the int64 sums below cannot overflow.
    if (bins > size).any():
        raise DatasetFormatError("dataset file size does not match its footer")
    bins = bins.astype(np.int64)
    # The writer gives an empty section width 1, so a width other than the
    # writer's fails here, or moves the size of its block by the bins of its
    # section: by more than the padding can take up when they are 8 or more.
    if not ((widths == 1) | (widths == 2) & (bins > 0)).all():
        raise DatasetFormatError("dataset value widths are not 1 or 2 bytes, 1 when empty")
    sizes = column_bytes(q1_max, patch_side, records, bins, widths)
    blocks = sizes.sum(axis=1)
    blocks += -blocks % 8
    if _HEADER_SIZE + blocks.sum() != footer:
        raise DatasetFormatError("dataset file size does not match its footer")
    columns = (_HEADER_SIZE + np.cumsum(blocks) - blocks)[:, None] + np.cumsum(sizes, 1) - sizes
    bounds, bin_bounds, wide_bounds = (
        np.append(0, np.cumsum(counts)) for counts in (records, bins, bins * (widths == 2))
    )
    return ReferenceDataset(
        q1_max, k, patch_side, source_count, data, bounds, bin_bounds, columns, wide_bounds,
        crc_stored,
    )


def map_file(path: str | os.PathLike) -> mmap.mmap:
    """A read-only mapping of a dataset file, for deserialize.

    Processes that map one file share its pages. The file must be replaced
    (os.replace), never rewritten in place, while it is mapped: deserialize
    checks the bytes the mapping holds at load time.
    """
    try:
        with open(path, "rb") as fh:
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:  # ValueError: a zero-byte file cannot be mapped
        raise DatasetFormatError(f"cannot read dataset {os.fspath(path)}: {exc}") from exc


def load_dataset(path: str | os.PathLike) -> ReferenceDataset:
    """The dataset of a file, mapped read-only: a view of the mapping."""
    ds = deserialize(map_file(path))
    ds.path = os.fspath(path)
    return ds
