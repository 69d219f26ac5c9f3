"""Reference dataset tests: build, query, distances, serialization."""

import functools
import hashlib
import io
import itertools
import math
import mmap
import multiprocessing
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqe import dctsim, refdata
from fqe.refdata import (
    DatasetFormatError,
    PackedRecords,
    batch_min_distance,
    build_reference,
    deserialize,
    mass_table,
    serialize,
)
from fqe.stats import CoeffHistogram, build_histogram, fit_laplacian, is_degenerate
from fqe.types import GrayImage

_KINDS = ("dc", "ac")

from conftest import first_block, synth_patch, synth_patches, with_first_bin
from oracles import (
    NoCandidatesError,
    chi2,
    double_compress,
    dense_min_distance,
    min_distance,
    patch_items,
    query,
    record,
    records,
)


@pytest.fixture(scope="module")
def small_ds():
    return build_reference(synth_patches(seed=21, count=12), q1_max=5, k=15)


@functools.cache
def tiny_blob() -> bytes:
    """A q1_max 2 dataset file; a plain function so hypothesis does not print it."""
    return serialize(build_reference(synth_patches(seed=26, count=2), q1_max=2, k=4))


def with_crc(body: bytes) -> bytes:
    """body followed by its valid CRC-32 trailer."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def cast_round(x: np.ndarray, q: int) -> np.ndarray:
    """round_half_away(x / q) as int16, rounded as _q1_columns rounds it: by cast."""
    return (x / q + np.copysign(0.5, x)).astype(np.int16)


def fits_int8(values: np.ndarray) -> bool:
    """Whether every value lies in -128..127, as the values of an i1 section do."""
    return values.size == 0 or -128 <= values.min() <= values.max() <= 127


def brute_force_nearest(keys: np.ndarray, key: float, n: int) -> list[float]:
    """Sort by (distance, key): nearest n, lower key preferred on ties."""
    order = sorted(range(keys.size), key=lambda i: (abs(keys[i] - key), keys[i]))
    return sorted(keys[i] for i in order[:n])


def blank(height: int, width: int) -> GrayImage:
    return GrayImage(np.zeros((height, width), dtype=np.uint8))


# Id -> (patches that the build rejects, its message). The header fields are
# test_writer_and_reader_share_the_header_rule's.
BUILD_INPUT_ERRORS = {
    "no-patches": (lambda: [], "cannot build a reference dataset from no patches"),
    "mixed-sizes": (
        lambda: [blank(64, 64), blank(72, 72)], "all patches must share one square size"
    ),
    "not-square": (lambda: [blank(72, 64)], "all patches must share one square size"),
}


class TestBuild:
    def test_cardinality_small(self):
        patches = synth_patches(seed=22, count=1)
        ds = build_reference(patches, q1_max=2, k=3)
        assert len(ds.subs) == 4
        for sub in ds.subs.values():
            assert len(sub.dc) <= 1
            assert len(sub.ac) <= 2

    def test_paper_scale_cardinality(self):
        # Total double compressions scale as patches x q1_max^2.
        assert 8157 * 22 * 22 == 3_947_988
        patches = synth_patches(seed=23, count=3)
        ds = build_reference(patches, q1_max=4, k=15)
        assert len(ds.subs) == 4 * 4
        assert ds.source_count == 3

    def test_flat_patch_contributes_nothing(self):
        flat = GrayImage(np.full((64, 64), 128, dtype=np.uint8))
        ds = build_reference([flat], q1_max=3, k=15)
        for sub in ds.subs.values():
            assert len(sub.dc) == 0
            assert len(sub.ac) == 0

    def test_records_match_double_compress_oracle(self):
        # The batched build must equal the plain pipeline: double_compress,
        # histogram per coefficient, Laplacian keys, degenerate skipped.
        patches = synth_patches(seed=24, count=2)
        k, q1_max = 6, 3
        ds = build_reference(patches, q1_max=q1_max, k=k)
        for q1 in range(1, q1_max + 1):
            for q2 in range(1, q1_max + 1):
                dc_expect = []
                ac_expect = []
                for patch in patches:
                    grid = double_compress(
                        patch, dctsim.constant_table(q1), dctsim.constant_table(q2)
                    )
                    for i in range(1, k + 1):
                        h = build_histogram(grid.coefficient(i))
                        if is_degenerate(h):
                            continue
                        params = fit_laplacian(h)
                        if i == 1:
                            dc_expect.append((params.mu, h))
                        else:
                            ac_expect.append((params.beta, h))
                for expect, kind in ((dc_expect, "dc"), (ac_expect, "ac")):
                    packed = ds.section(q1, q2, kind)
                    expect.sort(key=lambda t: t[0])
                    assert len(packed) == len(expect)
                    for idx, (key, hist) in enumerate(expect):
                        rec = record(packed, idx)
                        assert rec.key == key
                        assert rec.hist == hist

    @staticmethod
    def assert_columns_match_oracle(patches, q1_max, k):
        # Record for record against the per-column loop of each patch, one q1
        # at a time, in (q2, patch, dc, ac) order.
        f0 = refdata._forward_dct(patches)
        items = [patch_items(patch, q1_max, k) for patch in patches]
        n_blocks = (patches[0].width // 8) * (patches[0].height // 8)
        all_lengths = []
        for q1 in range(1, q1_max + 1):
            sections, keys, lengths, values, bins = refdata._q1_columns(
                f0, len(patches), q1, q1_max, k
            )
            expect = [
                (2 * ((q1 - 1) * q1_max + q2 - 1) + kind, item)
                for q2 in range(1, q1_max + 1)
                for per_patch in items
                for kind in (0, 1)
                for item in per_patch[(q1, q2)][kind]
            ]
            assert sections.tolist() == [s for s, _ in expect]
            assert np.array_equal(
                keys.view(np.uint64), np.array([it[0] for _, it in expect]).view(np.uint64)
            ), q1
            assert lengths.tolist() == [it[1].size for _, it in expect]
            assert np.array_equal(values, np.concatenate([it[1] for _, it in expect]))
            assert np.array_equal(bins, np.concatenate([it[2] for _, it in expect]))
            assert sections.dtype == np.int32 and lengths.dtype == np.uint16
            assert values.dtype == np.int16 and bins.dtype == np.uint16
            assert {it[3] for _, it in expect} == {n_blocks}
            all_lengths.append(lengths)
        return np.concatenate(all_lengths), items

    @staticmethod
    def median_moves(items):
        """Oracle records whose fit_laplacian mu is not the lower median sample."""
        moved = 0
        for per_patch in items:
            for dc, ac in per_patch.values():
                for _, support, counts, n in dc + ac:
                    h = CoeffHistogram(support=support, mass=counts / n, count=n)
                    lower = support[np.searchsorted(np.cumsum(counts), (n + 1) // 2)]
                    moved += fit_laplacian(h).mu != lower
        return moved

    def test_patch_columns_match_oracle(self):
        for patch in synth_patches(seed=28, count=3):
            self.assert_columns_match_oracle([patch], q1_max=22, k=15)

    def test_batch_columns_match_oracle(self):
        self.assert_columns_match_oracle(synth_patches(seed=28, count=3), q1_max=22, k=15)

    def test_patch_columns_match_oracle_long_supports(self):
        # 33 x 33 blocks: some supports exceed the 128 terms that np.sum adds
        # in one unrolled block before it splits pairwise, and masses c / 1089
        # are inexact, so the order of the additions shows in beta.
        patch = synth_patch(np.random.default_rng(29), side=264)
        lengths, _ = self.assert_columns_match_oracle([patch], q1_max=22, k=15)
        assert lengths.max() > 128

    @pytest.mark.parametrize("side, count", [(48, 3), (80, 2)])
    def test_columns_match_oracle_even_block_counts(self, side, count):
        # 36 and 100 blocks: the cumulative float mass at a count of n / 2
        # rounds to either side of half, so the lower median sample is not
        # always fit_laplacian's mu, and those records take the general fit.
        patches = synth_patches(seed=35, count=count, side=side)
        _, items = self.assert_columns_match_oracle(patches, q1_max=22, k=15)
        assert self.median_moves(items) > 0

    def test_columns_match_oracle_16_blocks(self):
        # A power of two: every cumulative mass is exact, so the lower median
        # sample is always mu.
        _, items = self.assert_columns_match_oracle(
            synth_patches(seed=36, count=4, side=32), q1_max=22, k=15
        )
        assert self.median_moves(items) == 0

    def test_dataset_matches_merged_oracle_items(self):
        # The old assembly: items merged in patch order, stably sorted by key.
        patches = synth_patches(seed=30, count=4)
        q1_max = 22
        ds = build_reference(patches, q1_max=q1_max, k=15)
        per_patch = [patch_items(p, q1_max, 15) for p in patches]
        for q1, q2 in ds.subs:
            for kind in (0, 1):
                want = PackedRecords.from_items(
                    [it for items in per_patch for it in items[(q1, q2)][kind]]
                )
                got = ds.section(q1, q2, _KINDS[kind])
                for name in ("keys", "offsets", "values", "bins"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), name
                # Each column as narrow as its values: 64 blocks fit u1 counts.
                assert got.values.dtype == (np.int8 if fits_int8(want.values) else np.int16)
                assert got.bins.dtype == np.uint8 and got.keys.dtype == np.float64
                assert got.count == (want.count if len(want) else 64.0)

    def test_jobs_give_identical_bytes_at_paper_grid(self):
        patches = synth_patches(seed=31, count=4)
        one = serialize(build_reference(patches, q1_max=22, k=15, jobs=1))
        two = serialize(build_reference(patches, q1_max=22, k=15, jobs=2))
        assert one == two

    def test_batch_split_and_jobs_give_identical_bytes(self, monkeypatch):
        patches = synth_patches(seed=32, count=7)
        whole = serialize(build_reference(patches, q1_max=8, k=15, jobs=1))
        # 3 patches of 64 blocks per batch: batches of 3, 3 and 1 patches.
        monkeypatch.setattr(refdata, "_BATCH_BLOCKS", 3 * 64 + 10)
        for jobs in (1, 2, 3):
            assert serialize(build_reference(patches, q1_max=8, k=15, jobs=jobs)) == whole
        # Three jobs at q1_max 2: a pool of two workers, one q1 each.
        two = serialize(build_reference(patches, q1_max=2, k=15, jobs=1))
        assert serialize(build_reference(patches, q1_max=2, k=15, jobs=3)) == two

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched _q1_columns only when forked",
    )
    def test_failed_q1_task_reaches_the_caller(self, monkeypatch):
        q1_columns = refdata._q1_columns

        def fail_q1_2(f0, n_patches, q1, q1_max, k):
            if q1 == 2:
                raise RuntimeError("q1 2 failed")
            return q1_columns(f0, n_patches, q1, q1_max, k)

        monkeypatch.setattr(refdata, "_q1_columns", fail_q1_2)
        # 3 patches of 64 blocks per batch: three batches, so jobs 2 runs a pool.
        monkeypatch.setattr(refdata, "_BATCH_BLOCKS", 3 * 64 + 10)
        with pytest.raises(RuntimeError, match="q1 2 failed") as failed:
            build_reference(synth_patches(seed=32, count=7), q1_max=8, k=15, jobs=2)
        # Raised in a worker: the pool attaches the worker's traceback.
        assert type(failed.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []

    def test_keys_sorted_and_consistent_with_fit(self, small_ds):
        for q1, q2 in small_ds.subs:
            for kind in _KINDS:
                packed = small_ds.section(q1, q2, kind)
                assert np.all(np.diff(packed.keys) >= 0)
                for idx in range(0, len(packed), 7):
                    rec = record(packed, idx)
                    params = fit_laplacian(rec.hist)
                    assert rec.key == (params.mu if kind == "dc" else params.beta)

    def test_deterministic_and_jobs_independent(self):
        patches = synth_patches(seed=25, count=6)
        a = serialize(build_reference(patches, q1_max=3, k=5))
        b = serialize(build_reference(patches, q1_max=3, k=5))
        c = serialize(build_reference(patches, q1_max=3, k=5, jobs=2))
        assert a == b == c

    def test_dataset_bytes_pinned(self):
        # Any change to the build arithmetic or the file layout moves this hash.
        patches = synth_patches(seed=27, count=3)
        for jobs in (1, 2):
            blob = serialize(build_reference(patches, q1_max=6, k=15, jobs=jobs))
            assert hashlib.sha256(blob).hexdigest() == (
                "5e6272bc645f9071c730b07a17432119500b167bd43b50a1c4e968c82284efbc"
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_build_peak_memory_per_patch(self, jobs):
        # The build holds the batches' forward DCTs, one q1's records and
        # the file written so far (0.39 MB per 64 x 64 patch here). Sorting
        # every q1's records at once held 1.8 MB per patch at its peak.
        # 32 patches are four batches, so jobs 2 measures a pool's parent.
        patches = synth_patches(seed=37, count=32)
        tracemalloc.start()
        try:
            ds = build_reference(patches, q1_max=22, k=15, jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.bounds[-1] > 200_000
        assert peak < 0.8 * 2**20 * len(patches)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_write_to_a_file_holds_no_dataset(self, jobs, tmp_path):
        # Writing to a file holds the forward DCTs and one q1's records (and,
        # in a pool's parent, the q1s that wait to be written): 0.18 (jobs 1)
        # and 0.09 (jobs 2) MB per patch here. Building the whole dataset,
        # then writing it, held 0.48 and 0.41 MB per patch.
        patches = synth_patches(seed=37, count=32)
        with open(tmp_path / "ref.fqe", "wb") as fh:
            tracemalloc.start()
            try:
                size, records = refdata.write_reference(fh, patches, q1_max=22, k=15, jobs=jobs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert size == (tmp_path / "ref.fqe").stat().st_size > 6 * 2**20
        assert records.sum() > 200_000
        assert peak < 0.25 * 2**20 * len(patches)

    def test_rejects_builds_whose_sort_keys_leave_int64(self):
        # _q1_records orders a q1's n records by the keys rank * n + index,
        # at most n^2 - 1 for n <= patches * q1_max * k. The largest n that
        # write_reference accepts keeps that in int64; one more patch is
        # rejected before any work.
        per_patch = 255 * 64
        patches = math.isqrt(2**63 - 1) // per_patch + 1
        n = (patches - 1) * per_patch
        top = np.int64(n - 1) * np.int64(n) + np.int64(n - 1)
        assert int(top) == n * n - 1 < 2**63
        patch = synth_patches(seed=22, count=1)[0]
        with pytest.raises(ValueError) as failed:
            refdata.write_reference(io.BytesIO(), [patch] * patches, q1_max=255, k=64)
        assert str(failed.value) == f"{patches} patches give too many records per q1 to order"

    def test_record_order_is_lexsort_at_q1_max_255(self):
        # Two batches at the largest q1_max and k: the q1's records come out
        # in np.lexsort((keys, sections)) order of the stacked columns, so
        # equal keys of a section keep their patch order.
        patches = synth_patches(seed=33, count=3)
        batches = [(refdata._forward_dct(patches[:2]), 2), (refdata._forward_dct(patches[2:]), 1)]
        for q1 in (1, 9):
            sections, keys, lengths, values, bins = map(
                np.concatenate, zip(*(refdata._q1_columns(*b, q1, 255, 64) for b in batches))
            )
            counts, n_bins, *block = refdata._q1_records(batches, q1, 255, 64)
            order = np.lexsort((keys, sections))
            assert keys.size > 10_000 and np.unique(keys).size < keys.size  # ties to keep
            offsets = np.append(0, np.cumsum(lengths, dtype=np.int64))
            gather = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in order])
            want = keys[order], lengths[order], values[gather], bins[gather]
            for got, expected in zip(block, want):
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
            local = sections - 2 * 255 * (q1 - 1)
            assert np.array_equal(counts, np.bincount(local, minlength=510))
            assert np.array_equal(n_bins, np.bincount(local, lengths, 510).astype(np.int64))

    def test_cast_rounding_is_round_half_away(self, rng):
        # _q1_columns rounds x / q by cast; that equals round_half_away
        # wherever the result fits int16, and the build's values stay far
        # inside it.
        halves = np.arange(2049) + 0.5
        edge = np.nextafter(32767.5, 0.0)
        x = np.concatenate([
            [0.0, -0.0, edge, -edge, 32767.0, -32767.0, np.nextafter(0.5, 0.0)],
            halves, -halves, rng.uniform(-32767, 32767, 20_000), rng.normal(0, 40, 20_000),
        ])
        for q in (1, 7):
            got = cast_round(x * q, q)
            assert got.dtype == np.int16
            assert np.array_equal(got, dctsim.round_half_away(x * q / q))

    @settings(max_examples=200, deadline=None)
    @given(q2=st.integers(1, 255), data=st.data())
    def test_requantizing_sorted_rows_gives_sorted_rows(self, q2, data):
        # _q1_columns sorts each (patch, coefficient) row of f1 once and then
        # requantizes it for every q2: round_half_away(x / q2) is monotone,
        # signed zeros and exact halves included.
        samples = st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.integers(-4200, 4200).map(lambda m: m * q2 / 2),
            st.floats(-2100, 2100, allow_nan=False),
        )
        f1 = np.array(data.draw(st.lists(samples, min_size=1, max_size=64)))
        assert np.array_equal(cast_round(np.sort(f1), q2), np.sort(cast_round(f1, q2)))
        assert np.array_equal(cast_round(f1, q2), dctsim.round_half_away(f1 / q2))

    @pytest.mark.parametrize(
        "patches, message", BUILD_INPUT_ERRORS.values(), ids=BUILD_INPUT_ERRORS
    )
    def test_input_errors(self, patches, message):
        with pytest.raises(ValueError) as failed:
            build_reference(patches(), q1_max=3, k=5)
        assert str(failed.value) == message

    def test_value_widths(self):
        # A section is i1 when every value lies in -128..127, and an empty
        # one is i1 too; a single value outside makes it i2.
        values = np.array([-128, 127, 0, 128, 5, -129, -3, 7], dtype=np.int16)
        n_bins = np.array([3, 0, 2, 1, 2, 0])
        widths = refdata._value_widths(values, n_bins)
        assert widths.dtype == np.uint8 and widths.tolist() == [1, 1, 2, 2, 1, 1]
        assert refdata._value_widths(values[:0], np.zeros(4, dtype=np.int64)).tolist() == [1] * 4

    def test_count_width(self):
        # u1 counts while a patch's block count, (side / 8)^2, is at most 255.
        assert [refdata.count_width(side) for side in (8, 64, 120, 128, 2040)] == [1, 1, 1, 2, 2]

    def test_u2_counts_build(self):
        # 128 x 128 patches hold 256 blocks: the counts and lengths are u2,
        # the round trip is byte-identical, and the scan equals the oracle.
        ds = build_reference(synth_patches(seed=38, count=2, side=128), q1_max=3, k=6)
        blob = serialize(ds)
        assert serialize(deserialize(blob)) == blob
        h = build_histogram([-9, -2, 0, 0, 1, 1, 1, 4, 30])
        widths = set()
        for q1, q2 in ds.subs:
            for kind in _KINDS:
                packed = ds.section(q1, q2, kind)
                assert packed.bins.dtype == np.uint16 and packed.count == 256.0
                widths.add(packed.values.dtype)
                for key in (0.0, 2.0, 50.0):
                    assert scan(packed, h, key, 7) == dense_min_distance(packed, h, key, 7)
        assert widths == {np.dtype(np.int8), np.dtype(np.int16)}


class TestQuery:
    def test_saturation(self, small_ds):
        packed = small_ds.section(2, 3, "ac")
        records = query(small_ds, 2, 3, "ac", key=0.0, n=len(packed) + 50)
        assert len(records) == len(packed)

    def test_worked_example(self):
        items = [
            (float(k), np.array([0, 1], dtype=np.int16), np.array([1, 1]), 2)
            for k in [1, 2, 3, 4, 5]
        ]
        packed = PackedRecords.from_items(items)
        lo, hi = refdata._nearest_window(packed.keys, 3.1, 3)
        assert packed.keys[lo:hi].tolist() == [2.0, 3.0, 4.0]

    def test_below_all_keys(self):
        items = [
            (float(k), np.array([0, 1], dtype=np.int16), np.array([1, 1]), 2)
            for k in [10, 20, 30]
        ]
        packed = PackedRecords.from_items(items)
        lo, hi = refdata._nearest_window(packed.keys, -5.0, 2)
        assert (lo, hi) == (0, 2)

    def test_against_brute_force(self, rng):
        for _ in range(100):
            keys = np.sort(rng.normal(0, 10, int(rng.integers(1, 50))))
            items = [
                (float(k), np.array([0, 1], dtype=np.int16), np.array([1, 1]), 2)
                for k in keys
            ]
            packed = PackedRecords.from_items(items)
            key = float(rng.normal(0, 12))
            n = int(rng.integers(1, 12))
            lo, hi = refdata._nearest_window(packed.keys, key, n)
            expected = brute_force_nearest(packed.keys, key, min(n, keys.size))
            assert sorted(packed.keys[lo:hi].tolist()) == pytest.approx(expected)

    def test_unknown_sub_dataset(self, small_ds):
        with pytest.raises(KeyError):
            query(small_ds, 99, 1, "dc", 0.0, 5)

    def test_bad_kind(self, small_ds):
        with pytest.raises(ValueError):
            query(small_ds, 1, 1, "dq", 0.0, 5)


class TestMinDistance:
    def test_identity_member(self, small_ds):
        packed = small_ds.section(3, 2, "ac")
        rec = record(packed, 4)
        candidates = records(packed)[:10]
        assert min_distance(rec.hist, candidates) == 0.0

    def test_single_candidate(self, small_ds):
        packed = small_ds.section(1, 1, "ac")
        h = record(packed, 0).hist
        other = record(packed, 3)
        assert min_distance(h, [other]) == chi2(h, other.hist)

    def test_three_candidates_brute_force(self, small_ds):
        packed = small_ds.section(2, 2, "ac")
        h = record(packed, 1).hist
        candidates = [record(packed, i) for i in (5, 6, 7)]
        expected = min(chi2(h, c.hist) for c in candidates)
        assert min_distance(h, candidates) == expected

    def test_empty_candidates(self):
        h = build_histogram([1, 2, 3])
        with pytest.raises(NoCandidatesError):
            min_distance(h, [])


def scan(packed: PackedRecords, h: CoeffHistogram, key: float, n: int) -> float:
    table, total = mass_table(h)
    return batch_min_distance(packed, table, key, n, total)


class TestBatchMinDistance:
    def test_matches_slow_route(self, small_ds, rng):
        # The one-gather scan must equal the dense-array oracle bit for bit,
        # and agree with query + min_distance (per-record chi2 over unions).
        for _ in range(60):
            q1 = int(rng.integers(1, 6))
            q2 = int(rng.integers(1, 6))
            kind = "dc" if rng.random() < 0.3 else "ac"
            packed = small_ds.section(q1, q2, kind)
            if len(packed) == 0:
                continue
            src = small_ds.section(int(rng.integers(1, 6)), q2, kind)
            if len(src) == 0:
                continue
            h = record(src, int(rng.integers(0, len(src)))).hist
            key = float(rng.normal(0, 5))
            n = int(rng.integers(1, 20))
            fast = scan(packed, h, key, n)
            assert fast == dense_min_distance(packed, h, key, n)
            slow = min_distance(h, query(small_ds, q1, q2, kind, key, n))
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_every_window_equals_oracle(self, small_ds, rng):
        # Queries with supports of their own, against every section of
        # small_ds at a spread of keys and window sizes.
        for q1, q2 in small_ds.subs:
            for kind in _KINDS:
                packed = small_ds.section(q1, q2, kind)
                for _ in range(4):
                    h = build_histogram(np.round(rng.laplace(0, rng.uniform(0.3, 30), 64)))
                    key = float(rng.uniform(-3, 12))
                    n = int(rng.choice([1, 3, 50, 1000]))
                    assert scan(packed, h, key, n) == dense_min_distance(packed, h, key, n)

    def test_values_outside_int16_and_absent_values(self):
        # +-40000 wrap onto -25536 and 25536 as int16, which these records
        # hold: a wrapped table would give them the query's outside mass.
        # 7 and 1234 are in no record; 100 and 200 are not in the query.
        h = CoeffHistogram(
            support=np.array([-40000, -3, 0, 2, 7, 1234, 40000]),
            mass=np.array([2, 3, 5, 1, 4, 2, 3]) / 20,
            count=20,
        )
        items = [
            (0.5, np.array([-25536, -3, 0, 25536]), np.array([1, 2, 3, 4]), 10),
            (1.0, np.array([-3, 0, 2]), np.array([5, 3, 2]), 10),
            (2.0, np.array([-25536, 25536]), np.array([5, 5]), 10),
            (3.0, np.array([100, 200]), np.array([5, 5]), 10),
        ]
        packed = PackedRecords.from_items(
            [(k, v.astype(np.int16), b.astype(np.uint16), c) for k, v, b, c in items]
        )
        table, _ = mass_table(h)
        # -40000 and 40000 are outside int16; only -3, 0, 2 and 7 are int8.
        assert np.count_nonzero(table[: 1 << 16]) == 5
        assert np.flatnonzero(table[1 << 16 :]).tolist() == [0, 2, 7, 253]
        for i, (key, _, _, _) in enumerate(items):
            got = scan(packed, h, key, 1)
            assert got == dense_min_distance(packed, h, key, 1)
            assert got == pytest.approx(chi2(h, record(packed, i).hist), abs=1e-12)
        # Disjoint from the query unless +-40000 wrap onto its values.
        assert scan(packed, h, 2.0, 1) == 2.0
        assert scan(packed, h, 0.0, 10) == dense_min_distance(packed, h, 0.0, 10)

    def test_mixed_sample_counts_rejected(self):
        # A section's records share the dataset's sample count.
        support = np.array([0, 1], dtype=np.int16)
        items = [(0.0, support, np.array([1, 1], dtype=np.uint16), 2),
                 (1.0, support, np.array([1, 2], dtype=np.uint16), 3)]
        with pytest.raises(ValueError) as failed:
            PackedRecords.from_items(items)
        assert str(failed.value) == "records of one section share one sample count, not [2, 3]"
        assert PackedRecords.from_items(items[:1]).count == 2.0

    def test_narrow_sections_score_as_wide(self, small_ds, rng):
        # The same records with i1 values and u1 counts, gathered from the
        # table's 256 int8 entries, score bit for bit as with i2 and u2 and
        # as the dense oracle. The query's -129 and 128 would wrap onto the
        # records' 127 and -128 as int8 and give them its mass.
        edges = PackedRecords.from_items([
            (0.0, np.array([-128, -1, 0, 127]), np.array([1, 2, 3, 4]), 10),
            (1.0, np.array([-128, 127]), np.array([5, 5]), 10),
            (2.0, np.array([-5, 3]), np.array([6, 4]), 10),
        ])
        h = CoeffHistogram(
            support=np.array([-129, -128, 0, 3, 127, 128]),
            mass=np.array([1, 2, 3, 4, 5, 5]) / 20,
            count=20,
        )
        subs = list(small_ds.subs)[::4]
        checked = 0
        for packed in [edges] + [small_ds.section(*sub, kind) for sub in subs for kind in _KINDS]:
            if not packed.values.size or not fits_int8(packed.values):
                continue
            wide, narrow = (
                PackedRecords(packed.keys, packed.offsets, packed.values.astype(v),
                              packed.bins.astype(b), packed.count)
                for v, b in ((np.int16, np.uint16), (np.int8, np.uint8))
            )
            spreads = rng.uniform(0.3, 40, 4)
            queries = [h] + [build_histogram(np.round(rng.laplace(0, b, 64))) for b in spreads]
            for query_h in queries:
                for key, n in ((0.0, 1), (1.0, 2), (5.0, 1000)):
                    want = dense_min_distance(wide, query_h, key, n)
                    assert scan(wide, query_h, key, n) == scan(narrow, query_h, key, n) == want
            checked += 1
        assert checked > 3

    @pytest.mark.parametrize("count", [36, 64, 81, 100, 1089])
    def test_shared_count_masses_equal_division(self, count):
        # Every bin count c below a shared sample count: a record's own
        # histogram, masses c / count by the oracle's division, cancels to
        # 0.0 only if the scan's masses equal them bit for bit.
        items = [
            (float(c), np.array([0, 1], dtype=np.int16),
             np.array([c, count - c], dtype=np.uint16), count)
            for c in range(1, count)
        ]
        packed = PackedRecords.from_items(items)
        assert packed.count == count
        for i in range(len(packed)):
            own = record(packed, i)
            assert scan(packed, own.hist, own.key, 1) == 0.0, (count, i)

    def test_exact_zero_for_member(self, small_ds):
        packed = small_ds.section(4, 3, "ac")
        rec = record(packed, len(packed) // 2)
        assert scan(packed, rec.hist, rec.key, 1000) == 0.0

    def test_empty_is_inf(self):
        h = build_histogram([0, 1])
        assert scan(PackedRecords.from_items([]), h, 0.0, 10) == float("inf")


class TestSelfRetrieval:
    def test_exact_match_consistency(self, small_ds):
        # A query that is itself a record of (q1*, q2) must reach distance 0
        # at j = q1*, so the argmin lands on a zero-distance candidate.
        q1_star, q2 = 4, 2
        packed = small_ds.section(q1_star, q2, "ac")
        rec = record(packed, 7)
        dists = [
            scan(small_ds.section(j, q2, "ac"), rec.hist, rec.key, 1000)
            for j in range(1, small_ds.q1_max + 1)
        ]
        assert dists[q1_star - 1] == 0.0
        assert min(dists) == 0.0


def edit(blob: bytes, offset: int, fmt: str, *values) -> bytes:
    """blob with values packed by struct fmt at offset of its body, counted
    from the body's end when negative, under a fresh CRC."""
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, offset % len(body), *values)
    return with_crc(bytes(body))


def exactly(message: str) -> str:
    """The pytest.raises match pattern of message and nothing else."""
    return f"^{re.escape(message)}$"


def flipped(blob: bytes, pos: int) -> bytes:
    """blob with one bit of byte pos flipped, under its old CRC."""
    return blob[:pos] + bytes([blob[pos] ^ 1]) + blob[pos + 1 :]


SIZE_MISMATCH = "dataset file size does not match its footer"
# Id -> (a dataset file that deserialize rejects, its message). tiny_blob's
# footer is the last 104 bytes of its body: eight u32 record counts, eight
# u64 bin counts and eight u8 value widths.
LOAD_ERRORS = {
    "shorter-than-a-header": (lambda: tiny_blob()[:35], "dataset file is truncated"),
    "cut-in-half": (lambda: tiny_blob()[: len(tiny_blob()) // 2], "dataset checksum mismatch"),
    "bit-flipped": (lambda: flipped(tiny_blob(), 100), "dataset checksum mismatch"),
    "magic": (lambda: edit(tiny_blob(), 0, "4s", b"NOPE"), "bad dataset magic"),
    "version": (lambda: edit(tiny_blob(), 4, "<H", 99), "unsupported dataset version 99"),
    "header": (lambda: edit(tiny_blob(), 7, "B", 1), "dataset declares k 1, not 2 to 64"),
    # 2 * 255^2 sections leave no room for their footer.
    "no-room-for-the-footer": (lambda: edit(tiny_blob(), 6, "B", 255), "dataset file is truncated"),
    "bins-above-the-size": (lambda: edit(tiny_blob(), -72, "<Q", 2**40), SIZE_MISMATCH),
    "records-off-by-one": (lambda: edit(tiny_blob(), -104, "<I", 3), SIZE_MISMATCH),
}


class TestSerialization:
    def test_round_trip_structural(self, small_ds):
        ds2 = deserialize(serialize(small_ds))
        assert ds2.q1_max == small_ds.q1_max
        assert ds2.k == small_ds.k
        assert ds2.patch_side == small_ds.patch_side
        assert ds2.source_count == small_ds.source_count
        for q1, q2 in small_ds.subs:
            for kind in _KINDS:
                a, b = small_ds.section(q1, q2, kind), ds2.section(q1, q2, kind)
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.offsets, b.offsets)
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.bins, b.bins)
                assert a.count == b.count == 64.0

    def test_round_trip_byte_exact(self, small_ds):
        blob = serialize(small_ds)
        assert serialize(deserialize(blob)) == blob

    def test_write_reference_writes_serialize_bytes(self, small_ds):
        fh = io.BytesIO()
        size, records = refdata.write_reference(fh, synth_patches(seed=21, count=12), q1_max=5)
        assert fh.getvalue() == serialize(small_ds) and size == len(fh.getvalue())
        assert np.array_equal(records, np.diff(small_ds.bounds)) and records.dtype == np.int64

    def test_empty_sub_datasets(self):
        flat = GrayImage(np.full((64, 64), 200, dtype=np.uint8))
        ds = build_reference([flat], q1_max=2, k=3)
        ds2 = deserialize(serialize(ds))
        for sub in ds2.subs.values():
            assert len(sub.dc) == 0 and len(sub.ac) == 0

    def test_single_byte_flips_detected(self, small_ds, rng):
        blob = serialize(small_ds)
        for _ in range(25):
            pos = int(rng.integers(0, len(blob)))
            mutated = bytearray(blob)
            mutated[pos] ^= int(rng.integers(1, 256))
            with pytest.raises(DatasetFormatError):
                deserialize(bytes(mutated))

    @pytest.mark.parametrize("make, message", LOAD_ERRORS.values(), ids=LOAD_ERRORS)
    def test_load_errors(self, make, message):
        with pytest.raises(DatasetFormatError) as failed:
            deserialize(make())
        assert str(failed.value) == message

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_older_file_asks_for_rebuild(self, version):
        # A complete FQE1 to FQE4 file: header for q1_max 1, one empty
        # sub-dataset, whose footer (FQE4's) is two u32 and two u64 zeros.
        header = f"FQE{version}".encode() + struct.pack("<HBBHI", version, 1, 15, 64, 1)
        old = header + bytes(18) + bytes(8) + bytes(16)
        with pytest.raises(DatasetFormatError) as failed:
            deserialize(with_crc(old))
        rebuild = " dataset files are no longer supported; rebuild the dataset with `fqe build`"
        assert str(failed.value) == f"FQE{version}{rebuild}"

    @pytest.mark.parametrize("value", [0, 3, "other"])
    @pytest.mark.parametrize("section", range(8))
    def test_width_bytes_checked_at_load(self, section, value):
        # Every section of tiny_blob holds over 100 bins, so the other width
        # moves its block by more than the 7 bytes that padding can absorb.
        blob = tiny_blob()
        width = blob[-12 + section]
        assert width in (1, 2)
        if value == "other":
            value, message = 3 - width, SIZE_MISMATCH
        else:
            message = "dataset value widths are not 1 or 2 bytes, 1 when empty"
        with pytest.raises(DatasetFormatError) as failed:
            deserialize(edit(blob, -8 + section, "B", value))
        assert str(failed.value) == message

    def test_empty_section_width_is_1(self):
        # A flat patch leaves every section empty; an empty section stores
        # no values, and width 2 is not the writer's.
        blob = serialize(build_reference([GrayImage(np.full((64, 64), 9, np.uint8))], 1, k=2))
        assert blob[-6:-4] == b"\1\1"
        for s in (0, 1):
            with pytest.raises(DatasetFormatError) as failed:
                deserialize(edit(blob, -2 + s, "B", 2))
            assert str(failed.value) == "dataset value widths are not 1 or 2 bytes, 1 when empty"

    @pytest.mark.parametrize("side, over", [(0, ""), (12, ""), (2048, ": over 65535 blocks")])
    def test_bad_patch_side_rejected(self, side, over):
        # Every mass is divided by (side / 8)^2, so the side must give a
        # positive block count that u16 bin counts can hold.
        body = bytearray(tiny_blob()[:-4])
        body[8:10] = struct.pack("<H", side)
        message = f"dataset declares patch side {side}, not 8 to 2040 by 8{over}"
        with pytest.raises(DatasetFormatError, match=exactly(message)):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize(
        "q1_max, k, side, field",
        [
            (0, 4, 64, "q1_max 0, not 1 to 255"),
            (2, 1, 64, "k 1, not 2 to 64"),
            (2, 65, 64, "k 65, not 2 to 64"),
            (2, 4, 12, "patch side 12, not 8 to 2040 by 8"),
            (2, 4, 60, "patch side 60, not 8 to 2040 by 8"),
            (2, 4, 2048, "patch side 2048, not 8 to 2040 by 8: over 65535 blocks"),
        ],
    )
    def test_writer_and_reader_share_the_header_rule(self, q1_max, k, side, field):
        patch = GrayImage(np.zeros((side, side), dtype=np.uint8))
        with pytest.raises(ValueError) as written:
            refdata.write_reference(io.BytesIO(), [patch], q1_max=q1_max, k=k)
        body = bytearray(tiny_blob()[:-4])
        struct.pack_into("<BBH", body, 6, q1_max, k, side)  # the header after magic and version
        with pytest.raises(DatasetFormatError) as read:
            deserialize(with_crc(bytes(body)))
        assert str(written.value) == field
        assert str(read.value) == f"dataset declares {field}"

    @pytest.mark.parametrize("side", [-8, -64, -2048])
    def test_negative_patch_side_rejected(self, side):
        # Neither a patch nor the header's u16 field has a negative side, but
        # fqe build checks its --patch value by this rule.
        with pytest.raises(ValueError, match=exactly(f"patch side {side}, not 8 to 2040 by 8")):
            refdata.check_header(2, 4, side)

    @pytest.mark.parametrize("k", [0, 1, 65, 200])
    def test_bad_k_rejected(self, k):
        # write_reference takes k in 2..64 only; the header's k byte follows q1_max.
        body = bytearray(tiny_blob()[:-4])
        body[7] = k
        message = f"dataset declares k {k}, not 2 to 64"
        with pytest.raises(DatasetFormatError, match=exactly(message)):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("sections", [[0], [7], list(range(8))])
    @pytest.mark.parametrize("count", ["records", "bins"])
    def test_huge_section_count(self, sections, count):
        # The footer of q1_max 2: eight u32 record counts, eight u64 bin counts
        # and eight u8 value widths.
        body = bytearray(tiny_blob()[:-4])
        footer = len(body) - 13 * 8
        for s in sections:
            if count == "records":
                body[footer + 4 * s : footer + 4 * s + 4] = b"\xff" * 4
            else:  # near 2^64: the sums must not wrap to the file size
                body[footer + 32 + 8 * s : footer + 40 + 8 * s] = struct.pack("<Q", 2**64 - 7 - s)
        with pytest.raises(DatasetFormatError, match=exactly(SIZE_MISMATCH)):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("column", ["lengths", "bins"])
    def test_zero_counts_rejected(self, column):
        # The file loads; section (1, 1, dc), the first of q1 1's block, fails when made.
        blob = tiny_blob()
        body = bytearray(blob[:-4])
        at = first_block(blob)
        lengths = np.frombuffer(body, "<u1", at["records"], at["lengths"])
        bins = np.frombuffer(body, "<u1", at["bins"], at["counts"])
        if column == "lengths":  # keep the total so only the zero is wrong
            lengths[1] += lengths[0]
            lengths[0] = 0
        else:
            bins[0] = 0
        ds = deserialize(with_crc(bytes(body)))
        message = "a record of section (1, 1, dc) has an empty support or bin"
        with pytest.raises(DatasetFormatError, match=exactly(message)):
            ds.section(1, 1, "dc")

    @pytest.mark.parametrize(
        "key, at",
        [(1e300, "first")]
        + list(itertools.product([np.nan, np.inf, -np.inf], ["first", "middle", "last", "only"])),
    )
    def test_unsorted_or_nan_keys_rejected(self, key, at):
        # The window search needs finite keys, sorted within each section.
        # Section (1, 1, ac) holds six records in tiny_blob and one in the
        # q1_max 1, k 2 file of one patch ("only").
        blob = (
            serialize(build_reference(synth_patches(seed=26, count=1), q1_max=1, k=2))
            if at == "only"
            else tiny_blob()
        )
        ds = deserialize(blob)
        n = int(ds.bounds[2] - ds.bounds[1])
        assert n == (1 if at == "only" else 6)
        i = int(ds.bounds[1]) + {"first": 0, "middle": n // 2, "last": n - 1, "only": 0}[at]
        body = bytearray(blob[:-4])
        body[32 + 8 * i : 40 + 8 * i] = struct.pack("<d", key)
        ds = deserialize(with_crc(bytes(body)))
        message = "record keys of section (1, 1, ac) are not finite and sorted"
        with pytest.raises(DatasetFormatError, match=exactly(message)):
            ds.section(1, 1, "ac")
        assert len(ds.section(1, 1, "dc")) > 0

    def test_lengths_must_sum_to_the_footer_bin_count(self):
        # One bin moved from section (1, 1, dc) to (1, 1, ac) in the footer.
        body = bytearray(tiny_blob()[:-4])
        bins = np.frombuffer(body, "<u8", 8, len(body) - 13 * 8 + 32)
        bins[0] -= 1
        bins[1] += 1
        ds = deserialize(with_crc(bytes(body)))
        for kind in _KINDS:
            message = f"support lengths of section (1, 1, {kind}) do not sum to its bin count"
            with pytest.raises(DatasetFormatError, match=exactly(message)):
                ds.section(1, 1, kind)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hostile_files(self, data):
        # Mutate, truncate or extend the header, the q1 blocks, the footer's
        # counts or its value widths, then stamp a valid CRC: loading, and
        # making every section the first time, either succeed or raise
        # DatasetFormatError.
        body = bytearray(tiny_blob()[:-4])
        footer, widths = len(body) - 13 * 8, len(body) - 8
        regions = [(0, 32), (32, footer), (footer, widths), (widths, len(body))]
        lo, hi = data.draw(st.sampled_from(regions))
        pos = data.draw(st.integers(lo, hi - 1))
        op = data.draw(st.sampled_from(["mutate", "truncate", "extend"]))
        if op == "mutate":
            chunk = data.draw(st.binary(min_size=1, max_size=8))
            body[pos : pos + len(chunk)] = chunk
        elif op == "truncate":
            del body[pos : pos + data.draw(st.integers(1, len(body) - pos))]
        else:
            body[pos:pos] = data.draw(st.binary(min_size=1, max_size=16))
        try:
            ds = deserialize(with_crc(bytes(body)))
        except DatasetFormatError:
            return
        again = serialize(ds)
        assert serialize(deserialize(again)) == again
        # A section that is made holds checked records and scores without a
        # division by zero.
        h = build_histogram([-2, 0, 0, 1, 3])
        with np.errstate(divide="raise", invalid="raise"):
            for q1, q2 in itertools.product(range(1, ds.q1_max + 1), repeat=2):
                for kind in _KINDS:
                    try:
                        packed = ds.section(q1, q2, kind)
                    except DatasetFormatError:
                        continue
                    assert packed.offsets[-1] == packed.values.size == packed.bins.size
                    assert (np.diff(packed.offsets) > 0).all() and (packed.bins > 0).all()
                    assert np.isfinite(packed.keys).all() and (np.diff(packed.keys) >= 0).all()
                    assert scan(packed, h, 0.0, 1000) >= 0.0

    def test_bin_sums_checked_when_a_section_is_made(self):
        # The first bin count of the file, in record 0 of section (1, 1, dc),
        # set to 200: the file loads, that section fails on every use and
        # is not kept, and the others are made.
        ds = deserialize(with_first_bin(tiny_blob(), 200))
        for _ in range(2):
            message = "a record of section (1, 1, dc) does not hold 64 samples"
            with pytest.raises(DatasetFormatError, match=exactly(message)):
                ds.section(1, 1, "dc")
        assert ds._made == {}
        assert len(ds.section(1, 1, "ac")) > 0 and len(ds.section(2, 2, "dc")) > 0


class TestSections:
    """Sections are made from the columns on first use; scoring keeps no masses."""

    @staticmethod
    def built():
        # 9 x 9 blocks, so most masses c / 81 are inexact.
        return build_reference(synth_patches(seed=33, count=2, side=72), q1_max=4, k=6)

    def test_nothing_made_before_use(self):
        ds = self.built()
        loaded = deserialize(serialize(ds))
        for d in (ds, loaded):
            assert d._made == {}
            ac = d.section(2, 3, "ac")
            # Section 2 * ((2 - 1) * 4 + 3 - 1) + 1, and no other.
            assert list(d._made) == [13] and len(ac) > 0
            assert d.section(2, 3, "ac") is ac
            scan(ac, build_histogram([0, 1, 1, 2]), 0.0, 5)
            # The section owns its offsets; its keys and bins stay views.
            owned = [
                name for name, a in vars(ac).items() if isinstance(a, np.ndarray) and a.base is None
            ]
            assert owned == ["offsets"] and ac.count == 81.0
            assert list(d._made) == [13]

    def test_masses_match_whole_columns(self):
        ds = self.built()
        h = build_histogram([-3, -1, 0, 0, 0, 1, 2, 5])
        for d in (ds, deserialize(serialize(ds))):
            for s, key in enumerate(d.subs):
                for kind in (0, 1):
                    packed = d.section(*key, _KINDS[kind])
                    assert len(packed) == d.bounds[2 * s + kind + 1] - d.bounds[2 * s + kind]
                    assert packed.offsets[-1] == packed.values.size == packed.bins.size == (
                        d.bin_bounds[2 * s + kind + 1] - d.bin_bounds[2 * s + kind]
                    )
                    # Whole-section windows: every record's masses c / 81 enter.
                    for n in (len(packed), len(packed) + 10):
                        got = scan(packed, h, 1.0, n)
                        assert got == dense_min_distance(packed, h, 1.0, n), (key, kind)
                    # A record's own histogram, with the oracle's masses, cancels to 0.0.
                    for i in range(len(packed)):
                        own = record(packed, i)
                        assert scan(packed, own.hist, own.key, len(packed)) == 0.0, (key, kind, i)
            assert {packed.count for packed in d._made.values()} == {81.0}

    def test_round_trip_before_and_after_use(self):
        ds = self.built()
        blob = serialize(ds)
        loaded = deserialize(blob)
        assert serialize(loaded) == blob
        h = build_histogram([0, 1, 1, 2])
        for d in (ds, loaded):
            for sub in d.subs.values():
                scan(sub.dc, h, 0.0, 1000), scan(sub.ac, h, 0.0, 1000)
            assert serialize(d) == blob

    def test_scoring_retains_offsets_only(self):
        # Per section made: int64 offsets, 8 bytes per record, and about
        # 1 KB of Python objects. A kept f64 mass per bin would add about
        # 100 bytes per record here (12.8 bins per record).
        ds = deserialize(serialize(
            build_reference(synth_patches(seed=34, count=40, side=32), q1_max=2, k=15)
        ))
        table, total = mass_table(build_histogram([-1, 0, 1, 1, 2]))
        pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for q1, q2 in pairs:
                dist = batch_min_distance(ds.section(q1, q2, "ac"), table, 0.0, 1000, total)
                assert dist >= 0.0
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert sorted(ds._made) == [1, 3, 5, 7]
        records = sum(len(packed) for packed in ds._made.values())
        assert records > 2000
        assert retained <= 8 * records + 2048 * len(pairs)

    def test_keys_order_and_missing_key(self):
        ds = self.built()
        for q1, q2 in ((0, 1), (5, 1), (1, 5)):
            # str() of a KeyError is the repr of its message.
            with pytest.raises(KeyError, match=exactly(f"'no sub-dataset for (q1={q1}, q2={q2})'")):
                ds.section(q1, q2, "dc")
        message = "unknown record kind 'xx' (expected 'dc' or 'ac')"
        with pytest.raises(ValueError, match=exactly(message)):
            ds.section(1, 1, "xx")
        assert ds._made == {}
        assert list(ds.subs) == [(q1, q2) for q1 in range(1, 5) for q2 in range(1, 5)]
        assert [(sub.q1, sub.q2) for sub in ds.subs.values()] == list(ds.subs)
        assert sorted(ds._made) == list(range(2 * 16))
        sub = ds.subs[(2, 3)]
        assert sub.dc is ds.section(2, 3, "dc") and sub.ac is ds.section(2, 3, "ac")


def _root(a):
    """The object at the end of an array's chain of bases and memoryviews."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a


class TestLoad:
    """A loaded dataset is a view of the buffer it was read from."""

    COLUMNS = ("keys", "values", "bins")

    @staticmethod
    def assert_no_per_record_array(ds):
        big = [name for name, a in vars(ds).items() if isinstance(a, np.ndarray) and a.size > 2 * ds.q1_max**2 + 1]
        assert big == []

    def test_sections_are_views_of_the_bytes(self, small_ds):
        blob = serialize(small_ds)
        ds = deserialize(blob)
        assert ds.data is blob and ds.bounds.size == ds.bin_bounds.size == 2 * 5 * 5 + 1
        self.assert_no_per_record_array(ds)
        whole = np.frombuffer(blob, np.uint8)
        for sub in ds.subs.values():
            for packed in (sub.dc, sub.ac):
                for name in self.COLUMNS:
                    column = getattr(packed, name)
                    assert _root(column) is blob and np.shares_memory(column, whole), name
                # A block starts 8-aligned, so its keys are aligned in an aligned buffer.
                assert packed.keys.flags.aligned and packed.keys.dtype == np.float64
                assert packed.offsets.dtype == np.int64
                assert packed.offsets.size == len(packed) + 1
        self.assert_no_per_record_array(ds)
        assert serialize(ds) == blob

    def test_load_makes_no_per_record_array(self):
        # The load reads the footer only: at most ten int64 arrays of one
        # entry per section (40 KB here). An int64 (or f64) copy of one
        # column would take 8 bytes per record, 640 KB.
        blob = serialize(build_reference(synth_patches(seed=34, count=12), q1_max=22, k=15))
        deserialize(blob)
        tracemalloc.start()
        try:
            ds = deserialize(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.bounds[-1] > 50_000
        assert peak < 10 * 8 * ds.bounds.size

    def test_load_dataset_maps_the_file(self, small_ds, tmp_path):
        blob = serialize(small_ds)
        path = tmp_path / "ref.fqe"
        path.write_bytes(blob)
        ds = refdata.load_dataset(path)
        assert ds.path == str(path)
        assert ds.crc == small_ds.crc == struct.unpack("<I", blob[-4:])[0]
        assert isinstance(ds.data, mmap.mmap)
        for name in self.COLUMNS:
            column = getattr(ds.section(2, 3, "ac"), name)
            assert isinstance(_root(column), mmap.mmap) and not column.flags.writeable, name
        self.assert_no_per_record_array(ds)
        assert serialize(ds) == blob
        assert small_ds.path is None

    @pytest.mark.parametrize("kind", ["empty", "directory", "missing", "not-a-directory"])
    def test_load_dataset_failures(self, tmp_path, kind):
        path = tmp_path / "ref.fqe"
        if kind == "empty":
            path.write_bytes(b"")
        elif kind == "directory":
            path.mkdir()
        elif kind == "not-a-directory":
            path.write_bytes(tiny_blob())
            path = path / "inner.fqe"
        with pytest.raises(DatasetFormatError) as failed:
            refdata.load_dataset(path)
        # The rest is the OSError's or mmap's own text.
        assert str(failed.value).startswith(f"cannot read dataset {path}: ")
