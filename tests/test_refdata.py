"""Reference dataset tests: build, query, distances, serialization."""

import functools
import hashlib
import io
import itertools
import math
import mmap
import multiprocessing
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

from conftest import synth_patch, synth_patches, with_first_bin
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


def brute_force_nearest(keys: np.ndarray, key: float, n: int) -> list[float]:
    """Sort by (distance, key): nearest n, lower key preferred on ties."""
    order = sorted(range(keys.size), key=lambda i: (abs(keys[i] - key), keys[i]))
    return sorted(keys[i] for i in order[:n])


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
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (q1, q2, kind, name)
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
                "9841db4b6292b2597675ec3ff8780f8238b6fd52eb794a7c4ba70a20a9be96c1"
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
        with pytest.raises(ValueError, match="too many records"):
            refdata.write_reference(io.BytesIO(), [patch] * patches, q1_max=255, k=64)

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

    def test_rejects_block_counts_beyond_u16(self):
        # 2048 / 8 = 256 blocks a side: 65536 blocks overflow a u16 bin count.
        big = GrayImage(np.zeros((2048, 2048), dtype=np.uint8))
        with pytest.raises(ValueError, match="65535"):
            build_reference([big], q1_max=1, k=2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_reference([], q1_max=3, k=5)
        bad = GrayImage(np.full((60, 60), 9, dtype=np.uint8))
        with pytest.raises(ValueError):
            build_reference([bad], q1_max=3, k=5)
        with pytest.raises(ValueError):
            build_reference(synth_patches(seed=1, count=1), q1_max=3, k=1)


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
        assert np.count_nonzero(table) == 5
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
        with pytest.raises(ValueError, match=r"one sample count, not \[2, 3\]"):
            PackedRecords.from_items(items)
        assert PackedRecords.from_items(items[:1]).count == 2.0

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

    def test_truncation_detected(self, small_ds):
        blob = serialize(small_ds)
        with pytest.raises(DatasetFormatError):
            deserialize(blob[: len(blob) // 2])
        with pytest.raises(DatasetFormatError):
            deserialize(blob[:10])

    def test_bad_magic(self, small_ds):
        import zlib

        blob = bytearray(serialize(small_ds))[:-4]
        blob[:4] = b"NOPE"
        blob += zlib.crc32(bytes(blob)).to_bytes(4, "little")
        with pytest.raises(DatasetFormatError, match="magic"):
            deserialize(bytes(blob))

    def test_bad_version(self, small_ds):
        import zlib

        blob = bytearray(serialize(small_ds))[:-4]
        blob[4] = 99
        blob += zlib.crc32(bytes(blob)).to_bytes(4, "little")
        with pytest.raises(DatasetFormatError, match="version"):
            deserialize(bytes(blob))

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_fqe1_file_asks_for_rebuild(self, version):
        # A complete FQE1, FQE2 or FQE3 file: header for q1_max 1, one empty sub-dataset.
        header = f"FQE{version}".encode() + struct.pack("<HBBHI", version, 1, 15, 64, 1)
        old = header + bytes(16) + bytes(8)
        with pytest.raises(DatasetFormatError, match="rebuild the dataset with `fqe build`"):
            deserialize(with_crc(old))

    @pytest.mark.parametrize("side", [0, 12, 2048])
    def test_bad_patch_side_rejected(self, side):
        # Every mass is divided by (side / 8)^2, so the side must give a
        # positive block count that u16 bin counts can hold.
        body = bytearray(tiny_blob()[:-4])
        body[8:10] = struct.pack("<H", side)
        with pytest.raises(DatasetFormatError, match=f"patch side {side}"):
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

    @pytest.mark.parametrize("k", [0, 1, 65, 200])
    def test_bad_k_rejected(self, k):
        # write_reference takes k in 2..64 only; the header's k byte follows q1_max.
        body = bytearray(tiny_blob()[:-4])
        body[7] = k
        with pytest.raises(DatasetFormatError, match=f"declares k {k},"):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("sections", [[0], [7], list(range(8))])
    @pytest.mark.parametrize("count", ["records", "bins"])
    def test_huge_section_count(self, sections, count):
        # The footer of q1_max 2: eight u32 record counts, then eight u64 bin counts.
        body = bytearray(tiny_blob()[:-4])
        footer = len(body) - 12 * 8
        for s in sections:
            if count == "records":
                body[footer + 4 * s : footer + 4 * s + 4] = b"\xff" * 4
            else:  # near 2^64: the sums must not wrap to the file size
                body[footer + 32 + 8 * s : footer + 40 + 8 * s] = struct.pack("<Q", 2**64 - 7 - s)
        with pytest.raises(DatasetFormatError, match="size"):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("column", ["lengths", "bins"])
    def test_zero_counts_rejected(self, column):
        # The file loads; section (1, 1, dc), the first of q1 1's block, fails when made.
        blob = tiny_blob()
        body = bytearray(blob[:-4])
        ds = deserialize(blob)
        n_rec, n_bins = int(ds.bounds[4]), int(ds.bin_bounds[4])
        lengths = np.frombuffer(body, "<u2", n_rec, 32 + 8 * n_rec)
        bins = np.frombuffer(body, "<u2", n_bins, 32 + 10 * n_rec + 2 * n_bins)
        if column == "lengths":  # keep the total so only the zero is wrong
            lengths[1] += lengths[0]
            lengths[0] = 0
        else:
            bins[0] = 0
        ds = deserialize(with_crc(bytes(body)))
        with pytest.raises(DatasetFormatError, match=r"section \(1, 1, dc\) has an empty"):
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
        with pytest.raises(DatasetFormatError, match=r"section \(1, 1, ac\) are not .* sorted"):
            ds.section(1, 1, "ac")
        assert len(ds.section(1, 1, "dc")) > 0

    def test_lengths_must_sum_to_the_footer_bin_count(self):
        # One bin moved from section (1, 1, dc) to (1, 1, ac) in the footer.
        body = bytearray(tiny_blob()[:-4])
        bins = np.frombuffer(body, "<u8", 8, len(body) - 64)
        bins[0] -= 1
        bins[1] += 1
        ds = deserialize(with_crc(bytes(body)))
        for kind in _KINDS:
            with pytest.raises(DatasetFormatError, match="do not sum to its bin count"):
                ds.section(1, 1, kind)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hostile_files(self, data):
        # Mutate, truncate or extend the header, the q1 blocks or the footer,
        # then stamp a valid CRC: loading, and making every section the
        # first time, either succeed or raise DatasetFormatError.
        body = bytearray(tiny_blob()[:-4])
        footer = len(body) - 12 * 2 * 2 * 2
        lo, hi = data.draw(st.sampled_from([(0, 32), (32, footer), (footer, len(body))]))
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
        # set to 60000: the file loads, that section fails on every use and
        # is not kept, and the others are made.
        ds = deserialize(with_first_bin(tiny_blob(), 60000))
        for _ in range(2):
            with pytest.raises(DatasetFormatError, match=r"section \(1, 1, dc\).* 64 samples"):
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
            with pytest.raises(KeyError, match=rf"no sub-dataset for \(q1={q1}, q2={q2}\)"):
                ds.section(q1, q2, "dc")
        with pytest.raises(ValueError, match="unknown record kind 'xx'"):
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
        with pytest.raises(DatasetFormatError, match="cannot read dataset"):
            refdata.load_dataset(path)
