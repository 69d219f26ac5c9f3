"""Reference distribution dataset: build, persist, search.

Every raw patch is double-compressed with all pairs of constant matrices
(M_q1, M_q2); the DC histogram and the pooled AC histograms of coefficients
2..k land in the dc and ac sections of that (q1, q2), indexed by the
Laplacian fit (mu for DC, beta for AC). Records are held in whole-dataset
columns, each section's records a contiguous run sorted by key, so that
nearest-key windows are contiguous slices and the chi-square scan over a
window is one vectorized pass. ReferenceDataset.section(q1, q2, kind) is
the one way to a section's records.
"""

from __future__ import annotations

import functools
import itertools
import mmap
import os
import struct
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

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
    def from_items(  # perfbench/spans.py traces this name
        cls, items: list[tuple[float, np.ndarray, np.ndarray, int]]
    ) -> "PackedRecords":
        """Pack (key, support, bin counts, sample count) items, stably sorted by key."""
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
            counts=np.array([items[i][3] for i in order], dtype=np.uint32),
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
    """The reference records as whole-dataset columns, in FQE2 order.

    Section s = 2 * ((q1 - 1) * q1_max + q2 - 1) + (0 for dc, 1 for ac) owns
    records bounds[s]:bounds[s + 1] and bins starts[s]:starts[s + 1]; record
    i has key keys[i], counts[i] samples and lengths[i] consecutive bins of
    values and bins. Keys are sorted within each section. A loaded dataset's
    columns are views of the buffer it was read from, aligned or not. The
    PackedRecords of a (q1, q2, kind) section, with its record offsets and
    an aligned copy of its keys, is made the first time section() asks for
    it, and then kept.
    """

    q1_max: int
    k: int
    patch_side: int
    source_count: int
    bounds: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    bins: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    # The CRC trailer of the buffer it was read from, and the file that
    # load_dataset mapped; None for a dataset built in memory.
    crc: int | None = field(default=None, repr=False)
    path: str | None = None
    starts: np.ndarray = field(init=False, repr=False)
    # Section id -> its PackedRecords, for the sections made so far.
    _made: dict[int, PackedRecords] = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.starts = _section_starts(self.lengths, self.bounds)

    @property
    def subs(self) -> dict[tuple[int, int], SubDataset]:  # perfbench reads this name
        """Every (q1, q2) sub-dataset, q1-major; makes every section."""
        return {
            (q1, q2): SubDataset(q1, q2, self.section(q1, q2, "dc"), self.section(q1, q2, "ac"))
            for q1, q2 in itertools.product(range(1, self.q1_max + 1), repeat=2)
        }

    def section(self, q1: int, q2: int, kind: str) -> PackedRecords:
        """The records of (q1, q2) of one kind, "dc" or "ac"; made on first use, then kept."""
        if not (1 <= q1 <= self.q1_max and 1 <= q2 <= self.q1_max):
            raise KeyError(f"no sub-dataset for (q1={q1}, q2={q2})")
        if kind not in _KINDS:
            raise ValueError(f"unknown record kind {kind!r} (expected 'dc' or 'ac')")
        s = 2 * ((q1 - 1) * self.q1_max + q2 - 1) + _KINDS.index(kind)
        packed = self._made.get(s)
        if packed is None:
            r0, r1 = int(self.bounds[s]), int(self.bounds[s + 1])
            b0, b1 = int(self.starts[s]), int(self.starts[s + 1])
            offsets = np.zeros(r1 - r0 + 1, dtype=np.int64)
            np.cumsum(self.lengths[r0:r1], out=offsets[1:])
            # An aligned key copy: the window search reads keys on every call.
            packed = self._made[s] = PackedRecords(
                self.keys[r0:r1].astype(np.float64), offsets, self.values[b0:b1],
                self.bins[b0:b1], self.counts[r0:r1],
            )
        return packed


# Records per chunk of _section_starts: a 128 KB int64 cumsum at a time.
_STARTS_CHUNK = 1 << 14


def _section_starts(lengths: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """starts[s] = lengths[:bounds[s]].sum(), summed a chunk of records at a time."""
    starts = np.zeros(bounds.size, dtype=np.int64)
    total = 0
    for c0 in range(0, lengths.size, _STARTS_CHUNK):
        ends = np.cumsum(lengths[c0 : c0 + _STARTS_CHUNK], dtype=np.int64) + total
        # The sections whose bounds fall inside this chunk.
        lo, hi = np.searchsorted(bounds, [c0, c0 + ends.size], side="right")
        starts[lo:hi] = ends[bounds[lo:hi] - c0 - 1]
        total = ends[-1]
    return starts


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


# Blocks per batch. ms per patch levels off at about 512 blocks; one
# _q1_columns call then peaks near 3.7 MB at q1_max 22 and k 15, and
# returns about 160 KB.
_BATCH_BLOCKS = 512


def _forward_dct(batch: list[GrayImage]) -> np.ndarray:
    """The forward DCT of a batch's 8x8 blocks, patch after patch."""
    return dctsim.fdct_blocks(np.concatenate([dctsim.blockify(p.pixels) for p in batch]))


def _q1_columns(f0: np.ndarray, n_patches: int, q1: int, q1_max: int, k: int):
    """The records of one q1 over a batch of same-size patches, in (patch, q2, coefficient) order.

    f0 is _forward_dct of the batch. Returns, per record, its section id
    (int32), key and support length (u16), and per bin its support value
    (i16) and count (u16); every record counts a patch's block count of
    samples. Bit-exact with the oracle tests/oracles.double_compress
    followed by build_histogram and fit_laplacian per coefficient: the
    forward DCT of the q1 reconstruction is requantized for all q2 at once,
    and each (patch, q2, coefficient) row is sorted, so the bins are its
    runs of equal values and mu is, but for ties, its lower median sample.
    """
    n_blocks = f0.shape[0] // n_patches
    # quantize_blocks then dequantize_blocks by constant_table(q1), without
    # the zig-zag round trip and the int32 cast: the same values bit for bit.
    recon = dctsim.idct_blocks(dctsim.round_half_away(f0 / q1) * q1)
    f1 = dctsim.fdct_blocks(recon).reshape(n_patches, n_blocks, 64).transpose(0, 2, 1)
    f1 = f1[:, None, ZIGZAG_TO_NATURAL[:k]]
    # round_half_away(f1 / q2) as int16 for every q2: x + copysign(0.5, x)
    # is +-(|x| + 0.5), rounded alike, and the cast truncates toward zero.
    scaled = f1 / np.arange(1, q1_max + 1, dtype=np.float64)[:, None, None]
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
    # Row r = (p * q1_max + q2 - 1) * k + i: coefficient i of patch p over q2.
    r = np.flatnonzero(keep)
    sections = (2 * (r // k % q1_max) + (r % k > 0) + 2 * q1_max * (q1 - 1)).astype(np.int32)
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


def build_reference(
    patches: list[GrayImage],
    q1_max: int = 22,
    k: int = 15,
    jobs: int | None = None,
) -> ReferenceDataset:
    """Build the reference dataset from raw patches.

    Deterministic given the patch sequence and parameters, independent of
    the worker count and of the batch split. Sections are q1-major, so the
    build runs q1 by q1 (_q1_records) and appends each q1's sorted records
    to the columns in q1 order. In-process, only the batches' forward DCTs
    and one q1's records are held besides the finished columns; with jobs
    above 1 and two or more batches, pool workers build whole q1s.
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
    n_blocks = (side // 8) ** 2
    if n_blocks > _MAX_BIN:
        raise ValueError(
            f"patch side {side} gives {n_blocks} blocks; bin counts "
            f"are stored as u16, so a patch may have at most {_MAX_BIN} blocks"
        )

    per_batch = max(1, _BATCH_BLOCKS // n_blocks)
    batches = [
        (_forward_dct(patches[i : i + per_batch]), len(patches[i : i + per_batch]))
        for i in range(0, len(patches), per_batch)
    ]
    q1s = range(1, q1_max + 1)
    # A one-batch build takes about as long as starting a pool, so it runs
    # in-process.
    pool = None
    if jobs is not None and jobs > 1 and len(batches) > 1:
        pool = ProcessPoolExecutor(
            min(jobs, q1_max), initializer=_init_build_worker, initargs=(batches, q1_max, k)
        )
        results = pool.map(_q1_in_worker, q1s)
    else:
        results = (_q1_records(batches, q1, q1_max, k) for q1 in q1s)
    columns = [np.empty(0, dtype) for dtype in (np.float64, np.uint16, np.int16, np.uint16)]
    section_counts = []
    try:
        for counts, *parts in results:
            section_counts.append(counts)
            # Popped, so that no part of this q1 is held while the next is built.
            for column in columns:
                _append(column, parts.pop(0))
    finally:
        if pool is not None:
            # After a failed task, the q1s not yet started are not run.
            pool.shutdown(cancel_futures=True)
    bounds = np.zeros(2 * q1_max * q1_max + 1, dtype=np.int64)
    np.cumsum(np.concatenate(section_counts), out=bounds[1:])
    return ReferenceDataset(
        q1_max, k, side, len(patches), bounds, *columns,
        np.full(columns[0].size, n_blocks, dtype=np.uint32),
    )


def _q1_records(batches: list, q1: int, q1_max: int, k: int):
    """The records of one q1 over all batches, in dataset order.

    Each batch's _q1_columns are stacked in patch order and sorted stably by
    section, then key. Returns the record count of each of the q1's 2 * q1_max
    sections, then the sorted keys, support lengths, support values and bins.
    """
    sections, keys, lengths, values, bins = map(
        np.concatenate, zip(*(_q1_columns(*batch, q1, q1_max, k) for batch in batches))
    )
    local = sections - 2 * q1_max * (q1 - 1)
    # np.lexsort((keys, local)), faster: keys are ranked first, and a stable
    # sort of section and rank keeps the stacked order of equal keys.
    ranks = np.unique(keys, return_inverse=True)[1]
    order = np.argsort(local * np.int64(keys.size) + ranks, kind="stable")
    stacked = np.cumsum(lengths, dtype=np.int64) - lengths
    lengths = lengths[order]
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    # Bin b of sorted record j is bin b of stacked record order[j].
    gather = np.repeat(stacked[order] - starts, lengths)
    gather += np.arange(gather.size)
    # One column at a time: each stacked column is freed once it is gathered.
    values = np.take(values, gather)
    bins = np.take(bins, gather)
    return np.bincount(local, minlength=2 * q1_max), keys[order], lengths, values, bins


# The batches, q1_max and k of the build a pool worker serves.
_worker_build: tuple | None = None


def _init_build_worker(*build) -> None:
    global _worker_build
    _worker_build = build


def _q1_in_worker(q1: int):
    batches, q1_max, k = _worker_build
    return _q1_records(batches, q1, q1_max, k)


def _append(column: np.ndarray, part: np.ndarray) -> None:
    """Grow column by part in place: realloc moves a large block's pages, not a copy."""
    n = column.size
    column.resize(n + part.size, refcheck=False)
    column[n:] = part


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
    inf when the section is empty. An exact zero is kept for a record
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
# ReferenceDataset as they are, its bounds stored as the record count of
# each section.
# ---------------------------------------------------------------------------

_MAGIC = b"FQE2"
_VERSION = 2
_HEADER = struct.Struct("<HBBHI")
_HEADER_SIZE = 30
_KINDS = ("dc", "ac")
_REC_BYTES = 8 + 2 + 4
_BIN_BYTES = 2 + 2
_MAX_BIN = 0xFFFF


def _pieces(ds: ReferenceDataset):
    """The FQE2 file of ds in pieces: header, section table, columns, CRC trailer."""
    pieces = [
        _MAGIC + _HEADER.pack(_VERSION, ds.q1_max, ds.k, ds.patch_side, ds.source_count),
        bytes(16),
        np.diff(ds.bounds).astype("<u4"),
        ds.keys.astype("<f8", copy=False),
        ds.lengths.astype("<u2", copy=False),
        ds.counts.astype("<u4", copy=False),
        ds.values.astype("<i2", copy=False),
        ds.bins.astype("<u2", copy=False),
    ]
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        yield piece
    yield struct.pack("<I", crc)


def serialize(ds: ReferenceDataset) -> bytes:
    return b"".join(_pieces(ds))


def write_dataset(ds: ReferenceDataset, fh) -> int:
    """Write serialize(ds) to a binary file piece by piece, never whole; return its size."""
    size = 0
    for piece in _pieces(ds):
        fh.write(piece)
        size += memoryview(piece).nbytes
    return size


def deserialize(data: bytes) -> ReferenceDataset:
    """The dataset of an FQE2 buffer (bytes or a mapping); its columns stay views of data."""
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

    # Every column is a view of data. keys and counts sit at offsets of no
    # fixed alignment; a section's keys are copied aligned when it is made.
    keys = np.frombuffer(data, "<f8", n_rec, pos)
    lengths = np.frombuffer(data, "<u2", n_rec, pos + 8 * n_rec)
    counts = np.frombuffer(data, "<u4", n_rec, pos + 10 * n_rec)
    values = np.frombuffer(data, "<i2", n_bins, pos + _REC_BYTES * n_rec)
    bins = np.frombuffer(data, "<u2", n_bins, pos + _REC_BYTES * n_rec + 2 * n_bins)
    ds = ReferenceDataset(
        q1_max, k, patch_side, source_count, bounds, keys, lengths, values, bins, counts,
        crc=crc_stored,
    )
    if ds.starts[-1] != n_bins:
        raise DatasetFormatError("support lengths do not match the file size")
    if n_rec and (lengths.min() == 0 or counts.min() == 0 or bins.min() == 0):
        raise DatasetFormatError("record with an empty support, sample count or bin")
    descents = np.flatnonzero(~(keys[1:] >= keys[:-1])) + 1
    if not (np.isfinite(keys).all() and np.isin(descents, bounds).all()):
        raise DatasetFormatError("record keys are not finite and sorted within each section")
    return ds


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
    """The dataset of a file, mapped read-only; its columns stay views of the mapping."""
    ds = deserialize(map_file(path))
    ds.path = os.fspath(path)
    return ds
