"""Reference distribution dataset: build, persist, search.

Every raw patch is double-compressed with all pairs of constant matrices
(M_q1, M_q2); the DC histogram and the pooled AC histograms of coefficients
2..k land in the sub-dataset keyed by that (q1, q2), indexed by the
Laplacian fit (mu for DC, beta for AC). Records are held in whole-dataset
columns, each sub-dataset's records a contiguous run sorted by key, so that
nearest-key windows are contiguous slices and the chi-square scan over a
window is one vectorized pass.
"""

from __future__ import annotations

import functools
import itertools
import struct
import zlib
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import dctsim
from .stats import CoeffHistogram, fit_laplacian_batch
from .stats import fit_laplacian  # noqa: F401  (perfbench/spans.py traces this name)
from .types import ZIGZAG_TO_NATURAL, GrayImage


class DatasetFormatError(Exception):
    """Corrupt, truncated, or incompatible dataset file."""


class PackedRecords:
    """Records of one (sub-dataset, kind), packed into flat arrays.

    keys is sorted ascending; record i owns the support values[offsets[i]:offsets[i+1]]
    with matching integer bin counts bins and counts[i] samples behind them.
    masses = bins / counts[i] is computed by _masses on first access and
    then kept, so built and loaded records hold the same f64 values bit for bit.
    """

    def __init__(self, keys, offsets, values, bins, counts):
        self.keys = keys
        self.offsets = offsets
        self.values = values
        self.bins = bins
        self.counts = counts

    @functools.cached_property
    def masses(self) -> np.ndarray:
        return _masses(self.bins, self.counts, np.diff(self.offsets))

    @classmethod
    def empty(cls) -> "PackedRecords":
        return cls(
            keys=np.empty(0, dtype=np.float64),
            offsets=np.zeros(1, dtype=np.int64),
            values=np.empty(0, dtype=np.int16),
            bins=np.empty(0, dtype=np.uint16),
            counts=np.empty(0, dtype=np.uint32),
        )

    @classmethod
    def from_items(
        cls, items: list[tuple[float, np.ndarray, np.ndarray, int]]
    ) -> "PackedRecords":
        """Pack (key, support, bin counts, sample count) items, stably sorted by key."""
        if not items:
            return cls.empty()
        keys = np.array([it[0] for it in items], dtype=np.float64)
        order = np.argsort(keys, kind="stable")
        lengths = np.array([items[i][1].size for i in order], dtype=np.int64)
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(
            keys=keys[order],
            offsets=offsets,
            values=np.concatenate([items[i][1] for i in order]).astype(np.int16),
            bins=np.concatenate([items[i][2] for i in order]).astype(np.uint16, copy=False),
            counts=np.array([items[i][3] for i in order], dtype=np.uint32),
        )

    def __len__(self) -> int:
        return self.keys.size


@dataclass
class SubDataset:
    q1: int
    q2: int
    dc: PackedRecords = field(default_factory=PackedRecords.empty)
    ac: PackedRecords = field(default_factory=PackedRecords.empty)

    def kind(self, name: str) -> PackedRecords:
        if name == "dc":
            return self.dc
        if name == "ac":
            return self.ac
        raise ValueError(f"unknown record kind {name!r} (expected 'dc' or 'ac')")


@dataclass(eq=False)
class ReferenceDataset:
    """The reference records as whole-dataset columns, in FQE2 order.

    Section s = 2 * ((q1 - 1) * q1_max + q2 - 1) + (0 for dc, 1 for ac) owns
    records bounds[s]:bounds[s + 1]; record i has key keys[i], counts[i]
    samples and the bins offsets[i]:offsets[i + 1] of values and bins. Keys
    are sorted within each section. The SubDataset of a (q1, q2) is made of
    views of the columns the first time it is asked for, and then kept.
    """

    q1_max: int
    k: int
    patch_side: int
    source_count: int
    bounds: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    # (q1, q2) -> its index in q1-major order, and the sub-datasets made so far.
    _order: dict = field(init=False, repr=False)
    _made: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        keys = itertools.product(range(1, self.q1_max + 1), repeat=2)
        self._order = {key: i for i, key in enumerate(keys)}

    @property
    def subs(self) -> Mapping[tuple[int, int], SubDataset]:
        """Every (q1, q2) sub-dataset, q1-major, each made on first use."""
        return _SubDatasets(self)

    def sub(self, q1: int, q2: int) -> SubDataset:
        try:
            return self._sub((q1, q2))
        except KeyError:
            raise KeyError(f"no sub-dataset for (q1={q1}, q2={q2})") from None

    def _sub(self, key: tuple[int, int]) -> SubDataset:
        sub = self._made.get(key)
        if sub is None:
            s = 2 * self._order[key]
            sub = SubDataset(*key, dc=self._section(s), ac=self._section(s + 1))
            self._made[key] = sub
        return sub

    def _section(self, s: int) -> PackedRecords:
        r0, r1 = int(self.bounds[s]), int(self.bounds[s + 1])
        b0, b1 = int(self.offsets[r0]), int(self.offsets[r1])
        return PackedRecords(
            self.keys[r0:r1], self.offsets[r0 : r1 + 1] - b0, self.values[b0:b1],
            self.bins[b0:b1], self.counts[r0:r1],
        )


class _SubDatasets(Mapping):
    """A read-only view of a dataset's sub-datasets, keyed by (q1, q2)."""

    def __init__(self, ds: ReferenceDataset) -> None:
        self._ds = ds

    def __getitem__(self, key: tuple[int, int]) -> SubDataset:
        return self._ds._sub(key)

    def __iter__(self):
        return iter(self._ds._order)

    def __len__(self) -> int:
        return len(self._ds._order)


def _masses(bins: np.ndarray, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per bin, its count over the sample count of its record (lengths[i] bins)."""
    masses = np.repeat(counts.astype(np.float64), lengths)
    return np.divide(bins, masses, out=masses)


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


# Blocks per _batch_columns call. ms per patch levels off at about 512 blocks;
# a call then peaks near 13 MB at q1_max 22 and k 15, 1.4 MB of it per q1.
_BATCH_BLOCKS = 512


def _batch_columns(batch: list[GrayImage], q1_max: int, k: int):
    """The records of same-size patches as FQE2 columns, in (q1, patch, q2, coefficient) order.

    Returns, per record, its section id, key and support length, and per
    bin its support value (i16) and count (u16); every record counts a
    patch's block count of samples. Bit-exact with the oracle
    tests/oracles.double_compress followed by build_histogram and
    fit_laplacian per coefficient: the forward DCT of each q1
    reconstruction is requantized for all q2 at once, and each (patch, q2,
    coefficient) row is sorted, so the bins are its runs of equal values.
    A section's records keep (patch, coefficient) order.
    """
    f0 = dctsim.fdct_blocks(np.concatenate([dctsim.blockify(p.pixels) for p in batch]))
    n_patches, n_blocks = len(batch), f0.shape[0] // len(batch)
    zz_first_k = ZIGZAG_TO_NATURAL[:k]
    q2s = np.arange(1, q1_max + 1, dtype=np.float64)[:, None, None]
    # Row r = (p * q1_max + q2 - 1) * k + i of one q1: coefficient i of patch p over q2.
    r = np.arange(n_patches * q1_max * k)
    row_section = 2 * (r // k % q1_max) + (r % k > 0)
    sections, lengths, values, bins = [], [], [], []
    for q1 in range(1, q1_max + 1):
        # quantize_blocks then dequantize_blocks by constant_table(q1), without
        # the zig-zag round trip and the int32 cast: the same values bit for bit.
        recon = dctsim.idct_blocks(dctsim.round_half_away(f0 / q1) * q1)
        f1 = dctsim.fdct_blocks(recon).reshape(n_patches, n_blocks, 64).transpose(0, 2, 1)
        f1 = f1[:, None, zz_first_k]
        # round_half_away(f1 / q2) as int16 for every q2: x + copysign(0.5, x)
        # is +-(|x| + 0.5), rounded alike, and the cast truncates toward zero.
        scaled = f1 / q2s
        scaled += np.copysign(0.5, f1)
        rows = scaled.astype(np.int16).reshape(-1, n_blocks)
        rows.sort(axis=1)
        starts = np.ones(rows.shape, dtype=bool)
        np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
        row_lengths = np.count_nonzero(starts, axis=1)
        first = np.flatnonzero(starts)
        row_bins = np.diff(first, append=rows.size)
        # A single-bin histogram carries no information about q1: no record.
        keep = row_lengths > 1
        bin_keep = np.repeat(keep, row_lengths)
        sections.append(row_section[keep] + 2 * q1_max * (q1 - 1))
        lengths.append(row_lengths[keep])
        values.append(rows.reshape(-1)[first[bin_keep]])
        bins.append(row_bins[bin_keep].astype(np.uint16))
    sections, lengths, values, bins = map(np.concatenate, (sections, lengths, values, bins))
    mu, beta = fit_laplacian_batch(values, bins / n_blocks, lengths)
    keys = np.where(sections % 2 == 0, mu, beta)
    return sections, keys, lengths, values, bins


def build_reference(
    patches: list[GrayImage],
    q1_max: int = 22,
    k: int = 15,
    jobs: int | None = None,
) -> ReferenceDataset:
    """Build the reference dataset from raw patches.

    Deterministic given the patch sequence and parameters, independent of
    the worker count and of the batch split: the batches' records are
    stacked in patch order and sorted stably by section, then key.
    """
    if not patches:
        raise ValueError("cannot build a reference dataset from no patches")
    if q1_max < 1 or q1_max > 255:
        raise ValueError(f"q1_max {q1_max} out of range [1, 255]")
    if not 2 <= k <= 64:
        raise ValueError(f"k {k} out of range [2, 64]")
    side = patches[0].width
    if side % 8 or side == 0:
        raise ValueError("patch side must be a positive multiple of 8")
    for p in patches:
        if p.width != side or p.height != side:
            raise ValueError("all patches must share one square size")
    if (side // 8) ** 2 > _MAX_BIN:
        raise ValueError(
            f"patch side {side} gives {(side // 8) ** 2} blocks; bin counts "
            f"are stored as u16, so a patch may have at most {_MAX_BIN} blocks"
        )

    per_batch = max(1, _BATCH_BLOCKS // (side // 8) ** 2)
    batches = [patches[i : i + per_batch] for i in range(0, len(patches), per_batch)]
    columns_of = functools.partial(_batch_columns, q1_max=q1_max, k=k)
    # A pool cannot split a single batch, so one batch is built in-process.
    if jobs is not None and jobs > 1 and len(batches) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(batches))) as pool:
            columns = list(pool.map(columns_of, batches))
    else:
        columns = list(map(columns_of, batches))

    sections, keys, lengths, values, bins = map(np.concatenate, zip(*columns))
    del columns  # stacked now; freed before the sorted copies are made
    stacked = np.cumsum(lengths) - lengths
    # np.lexsort((keys, sections)), faster: keys are ranked first, and a
    # stable sort of section and rank keeps the stacked order of equal keys.
    ranks = np.unique(keys, return_inverse=True)[1]
    order = np.argsort(sections * keys.size + ranks, kind="stable")
    lengths = lengths[order]
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # Bin b of sorted record j is bin b of stacked record order[j].
    gather = np.repeat(stacked[order] - offsets[:-1], lengths) + np.arange(offsets[-1])
    bounds = np.searchsorted(sections[order], np.arange(2 * q1_max * q1_max + 1))
    return ReferenceDataset(
        q1_max, k, side, len(patches), bounds, keys[order], offsets, values[gather],
        bins[gather], np.full(order.size, (side // 8) ** 2, dtype=np.uint32),
    )


def mass_table(h: CoeffHistogram) -> tuple[np.ndarray, float]:
    """The query's mass at every int16 record value, and its total mass.

    Entry v.view(uint16) of the table holds h's mass at value v, or 0.0
    where v is not in h's support. Support values outside int16 match no
    record value and are left out, not wrapped onto one. The total is summed
    by the reduction batch_min_distance applies to each record.
    """
    table = np.zeros(1 << 16)
    inside = (h.support >= -0x8000) & (h.support <= 0x7FFF)
    table[h.support[inside].astype(np.int16).view(np.uint16)] = h.mass[inside]
    return table, float(np.add.reduceat(h.mass, [0])[0])


def batch_min_distance(
    packed: PackedRecords, table: np.ndarray, key: float, n: int, total: float
) -> float:
    """Smallest chi-square distance from a query to its n nearest-key records.

    table and total are mass_table(h) of the query h; one gather from the
    table gives the query mass at every record bin of the window. Returns
    inf when the sub-dataset is empty. An exact zero is kept for a record
    whose support and masses match h bit for bit.
    """
    if len(packed) == 0:
        return float("inf")
    lo, hi = _nearest_window(packed.keys, key, n)
    start, end = int(packed.offsets[lo]), int(packed.offsets[hi])
    x = np.take(table, packed.values[start:end].view(np.uint16))
    mass = packed.masses[start:end]

    # chi2 = sum over record bins of (x-m)^2/(x+m), plus the query mass that
    # falls outside the record support: total - sum over record bins of x.
    # total uses the same reduction as the per-record sums so an identical
    # record cancels to exactly zero.
    terms = x - mass
    terms *= terms
    terms /= x + mass
    seg = packed.offsets[lo:hi] - start
    dist = np.add.reduceat(terms, seg)
    dist += total - np.add.reduceat(x, seg)
    return float(max(dist.min(), 0.0))


# ---------------------------------------------------------------------------
# Serialization (FQE2), little-endian: a 30-byte header, one u32 record count
# per (q1, q2) x (dc, ac) section in row-major order, whole-dataset columns
# (keys f8, support lengths u2 and sample counts u4 per record, then support
# values i2 and bin counts u2 per bin) and a CRC-32 trailer: the columns of
# ReferenceDataset as they are, its bounds and offsets stored as the record
# count of each section and the support length of each record.
# ---------------------------------------------------------------------------

_MAGIC = b"FQE2"
_VERSION = 2
_HEADER = struct.Struct("<HBBHI")
_HEADER_SIZE = 30
_KINDS = ("dc", "ac")
_REC_BYTES = 8 + 2 + 4
_BIN_BYTES = 2 + 2
_MAX_BIN = 0xFFFF


def serialize(ds: ReferenceDataset) -> bytes:
    pieces = [
        _MAGIC + _HEADER.pack(_VERSION, ds.q1_max, ds.k, ds.patch_side, ds.source_count),
        bytes(16),
        np.diff(ds.bounds).astype("<u4"),
        ds.keys.astype("<f8", copy=False),
        np.diff(ds.offsets).astype("<u2"),
        ds.counts.astype("<u4", copy=False),
        ds.values.astype("<i2", copy=False),
        ds.bins.astype("<u2", copy=False),
    ]
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
    return b"".join([*pieces, struct.pack("<I", crc)])


def deserialize(data: bytes) -> ReferenceDataset:
    size = len(data)
    if size < _HEADER_SIZE + 4:
        raise DatasetFormatError("dataset file is truncated")
    (crc_stored,) = struct.unpack_from("<I", data, size - 4)
    if zlib.crc32(memoryview(data)[:-4]) != crc_stored:
        raise DatasetFormatError("dataset checksum mismatch")
    if data[:4] == b"FQE1":
        raise DatasetFormatError(
            "FQE1 dataset files are no longer supported; rebuild the dataset with `fqe build`"
        )
    if data[:4] != _MAGIC:
        raise DatasetFormatError("bad dataset magic")
    version, q1_max, k, patch_side, source_count = _HEADER.unpack_from(data, 4)
    if version != _VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    if q1_max < 1:
        raise DatasetFormatError("dataset declares q1_max 0")

    n_sections = len(_KINDS) * q1_max * q1_max
    pos = _HEADER_SIZE + 4 * n_sections
    if pos > size - 4:
        raise DatasetFormatError("dataset file is truncated")
    bounds = np.zeros(n_sections + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(data, "<u4", n_sections, _HEADER_SIZE), out=bounds[1:])
    n_rec = int(bounds[-1])
    n_bins, rest = divmod(size - 4 - pos - _REC_BYTES * n_rec, _BIN_BYTES)
    if n_bins < 0 or rest:
        raise DatasetFormatError("dataset file size does not match its section table")

    # keys and counts sit at offsets of no fixed alignment, so they are copied
    # once to aligned arrays; the two large per-bin columns stay views of data.
    keys = np.frombuffer(data, "<f8", n_rec, pos).astype(np.float64)
    lengths = np.frombuffer(data, "<u2", n_rec, pos + 8 * n_rec)
    counts = np.frombuffer(data, "<u4", n_rec, pos + 10 * n_rec).astype(np.uint32)
    values = np.frombuffer(data, "<i2", n_bins, pos + _REC_BYTES * n_rec)
    bins = np.frombuffer(data, "<u2", n_bins, pos + _REC_BYTES * n_rec + 2 * n_bins)
    offsets = np.zeros(n_rec + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if offsets[-1] != n_bins:
        raise DatasetFormatError("support lengths do not match the file size")
    if n_rec and (lengths.min() == 0 or counts.min() == 0 or bins.min() == 0):
        raise DatasetFormatError("record with an empty support, sample count or bin")
    descents = np.flatnonzero(~(keys[1:] >= keys[:-1])) + 1
    if not (np.isfinite(keys).all() and np.isin(descents, bounds).all()):
        raise DatasetFormatError("record keys are not finite and sorted within each section")

    return ReferenceDataset(
        q1_max, k, patch_side, source_count, bounds, keys, offsets, values, bins, counts
    )
