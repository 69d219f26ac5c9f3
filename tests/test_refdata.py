"""Reference dataset tests: build, query, distances, serialization."""

import functools
import hashlib
import struct
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

from conftest import synth_patch, synth_patches
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
                sub = ds.sub(q1, q2)
                for expect, packed in ((dc_expect, sub.dc), (ac_expect, sub.ac)):
                    expect.sort(key=lambda t: t[0])
                    assert len(packed) == len(expect)
                    for idx, (key, hist) in enumerate(expect):
                        rec = record(packed, idx)
                        assert rec.key == key
                        assert rec.hist == hist

    @staticmethod
    def assert_columns_match_oracle(patches, q1_max, k):
        # Record for record against the per-column loop of each patch, in
        # (q1, patch, q2, dc, ac) order.
        sections, keys, lengths, values, bins = refdata._batch_columns(patches, q1_max, k)
        items = [patch_items(patch, q1_max, k) for patch in patches]
        expect = [
            (2 * ((q1 - 1) * q1_max + q2 - 1) + kind, item)
            for q1 in range(1, q1_max + 1)
            for per_patch in items
            for q2 in range(1, q1_max + 1)
            for kind in (0, 1)
            for item in per_patch[(q1, q2)][kind]
        ]
        n_blocks = (patches[0].width // 8) * (patches[0].height // 8)
        assert sections.tolist() == [s for s, _ in expect]
        assert np.array_equal(
            keys.view(np.uint64), np.array([it[0] for _, it in expect]).view(np.uint64)
        )
        assert lengths.tolist() == [it[1].size for _, it in expect]
        assert np.array_equal(values, np.concatenate([it[1] for _, it in expect]))
        assert np.array_equal(bins, np.concatenate([it[2] for _, it in expect]))
        assert values.dtype == np.int16 and bins.dtype == np.uint16
        assert {it[3] for _, it in expect} == {n_blocks}
        return lengths

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
        lengths = self.assert_columns_match_oracle([patch], q1_max=22, k=15)
        assert lengths.max() > 128

    def test_dataset_matches_merged_oracle_items(self):
        # The old assembly: items merged in patch order, stably sorted by key.
        patches = synth_patches(seed=30, count=4)
        q1_max = 22
        ds = build_reference(patches, q1_max=q1_max, k=15)
        per_patch = [patch_items(p, q1_max, 15) for p in patches]
        for (q1, q2), sub in ds.subs.items():
            for kind in (0, 1):
                want = PackedRecords.from_items(
                    [it for items in per_patch for it in items[(q1, q2)][kind]]
                )
                got = sub.kind(_KINDS[kind])
                for name in ("keys", "offsets", "values", "bins", "counts", "masses"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (q1, q2, kind, name)

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

    def test_keys_sorted_and_consistent_with_fit(self, small_ds):
        for sub in small_ds.subs.values():
            for kind in ("dc", "ac"):
                packed = sub.kind(kind)
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
                "8dea6e3fc26f5609c3d66352291a800159cbe25f3d0246e60be4700085adbfe9"
            )

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
        packed = small_ds.sub(2, 3).ac
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
        packed = small_ds.sub(3, 2).ac
        rec = record(packed, 4)
        candidates = records(packed)[:10]
        assert min_distance(rec.hist, candidates) == 0.0

    def test_single_candidate(self, small_ds):
        packed = small_ds.sub(1, 1).ac
        h = record(packed, 0).hist
        other = record(packed, 3)
        assert min_distance(h, [other]) == chi2(h, other.hist)

    def test_three_candidates_brute_force(self, small_ds):
        packed = small_ds.sub(2, 2).ac
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
            packed = small_ds.sub(q1, q2).kind(kind)
            if len(packed) == 0:
                continue
            src = small_ds.sub(int(rng.integers(1, 6)), q2).kind(kind)
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
        # Queries with supports of their own, against every sub-dataset of
        # small_ds at a spread of keys and window sizes.
        for (q1, q2), sub in small_ds.subs.items():
            for kind in _KINDS:
                packed = sub.kind(kind)
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
            (2.0, np.array([-25536, 25536]), np.array([3, 3]), 6),
            (3.0, np.array([100, 200]), np.array([1, 1]), 2),
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

    def test_exact_zero_for_member(self, small_ds):
        packed = small_ds.sub(4, 3).ac
        rec = record(packed, len(packed) // 2)
        assert scan(packed, rec.hist, rec.key, 1000) == 0.0

    def test_empty_is_inf(self):
        h = build_histogram([0, 1])
        assert scan(PackedRecords.empty(), h, 0.0, 10) == float("inf")


class TestSelfRetrieval:
    def test_exact_match_consistency(self, small_ds):
        # A query that is itself a record of (q1*, q2) must reach distance 0
        # at j = q1*, so the argmin lands on a zero-distance candidate.
        q1_star, q2 = 4, 2
        packed = small_ds.sub(q1_star, q2).ac
        rec = record(packed, 7)
        dists = [
            scan(small_ds.sub(j, q2).ac, rec.hist, rec.key, 1000)
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
        for key, sub in small_ds.subs.items():
            sub2 = ds2.subs[key]
            for kind in ("dc", "ac"):
                a, b = sub.kind(kind), sub2.kind(kind)
                assert np.array_equal(a.keys, b.keys)
                assert np.array_equal(a.offsets, b.offsets)
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.bins, b.bins)
                assert np.array_equal(a.masses, b.masses)
                assert np.array_equal(a.counts, b.counts)

    def test_round_trip_byte_exact(self, small_ds):
        blob = serialize(small_ds)
        assert serialize(deserialize(blob)) == blob

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

    def test_fqe1_file_asks_for_rebuild(self):
        # A complete FQE1 file: header for q1_max 1, one empty sub-dataset.
        old = b"FQE1" + struct.pack("<HBBHI", 1, 1, 15, 64, 1) + bytes(16) + bytes(8)
        with pytest.raises(DatasetFormatError, match="rebuild the dataset with `fqe build`"):
            deserialize(with_crc(old))

    @pytest.mark.parametrize("sections", [[0], [7], list(range(8))])
    def test_huge_section_count(self, sections):
        body = bytearray(tiny_blob()[:-4])
        for s in sections:
            body[30 + 4 * s : 34 + 4 * s] = b"\xff\xff\xff\xff"
        with pytest.raises(DatasetFormatError, match="size"):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("column", ["lengths", "counts", "bins"])
    def test_zero_counts_rejected(self, column):
        blob = tiny_blob()
        body = bytearray(blob[:-4])
        n_rec = int(np.frombuffer(blob, "<u4", 8, 30).sum())
        n_bins = (len(body) - 62 - 14 * n_rec) // 4
        lengths = np.frombuffer(body, "<u2", n_rec, 62 + 8 * n_rec)
        counts = np.frombuffer(body, "<u4", n_rec, 62 + 10 * n_rec)
        bins = np.frombuffer(body, "<u2", n_bins, 62 + 14 * n_rec + 2 * n_bins)
        if column == "lengths":  # keep the total so only the zero is wrong
            lengths[1] += lengths[0]
            lengths[0] = 0
        else:
            (counts if column == "counts" else bins)[0] = 0
        with pytest.raises(DatasetFormatError, match="empty"):
            deserialize(with_crc(bytes(body)))

    @pytest.mark.parametrize("first_key", [1e300, float("nan")])
    def test_unsorted_or_nan_keys_rejected(self, first_key):
        # Section 0 holds two records; the window search needs sorted keys.
        body = bytearray(tiny_blob()[:-4])
        body[62:70] = struct.pack("<d", first_key)
        with pytest.raises(DatasetFormatError, match="sorted"):
            deserialize(with_crc(bytes(body)))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hostile_files(self, data):
        # Mutate, truncate or extend the header, the section table or the
        # columns, then stamp a valid CRC: the loader must return a usable
        # dataset or raise DatasetFormatError, never anything else.
        body = bytearray(tiny_blob()[:-4])
        table_end = 30 + 4 * 2 * 2 * 2
        lo, hi = data.draw(st.sampled_from([(0, 30), (30, table_end), (table_end, len(body))]))
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
        # Every check is made at load time: no section of a loaded file may
        # fail when it is first used.
        for sub in ds.subs.values():
            for packed in (sub.dc, sub.ac):
                assert packed.masses.size == packed.offsets[-1] == packed.values.size
                assert np.isfinite(packed.masses).all()


class TestSections:
    """Sub-datasets and their masses are made from the columns on first use."""

    @staticmethod
    def built():
        # 9 x 9 blocks, so most masses c / 81 are inexact.
        return build_reference(synth_patches(seed=33, count=2, side=72), q1_max=4, k=6)

    def test_nothing_made_before_use(self):
        ds = self.built()
        loaded = deserialize(serialize(ds))
        for d in (ds, loaded):
            assert d._made == {}
            assert len(d.subs) == 16 and list(d.subs)[:2] == [(1, 1), (1, 2)]
            assert d._made == {}
            sub = d.sub(2, 3)
            assert list(d._made) == [(2, 3)]
            assert d.subs[(2, 3)] is sub
            assert "masses" not in vars(sub.dc) and "masses" not in vars(sub.ac)
            assert sub.ac.masses is sub.ac.masses
            assert "masses" not in vars(sub.dc)

    def test_masses_match_whole_columns(self):
        ds = self.built()
        for d in (ds, deserialize(serialize(ds))):
            whole = d.bins / np.repeat(d.counts, np.diff(d.offsets))
            assert whole.dtype == np.float64
            for s, key in enumerate(d.subs):
                for kind in (0, 1):
                    packed = d.subs[key].kind(_KINDS[kind])
                    r0, r1 = d.bounds[2 * s + kind], d.bounds[2 * s + kind + 1]
                    b0, b1 = d.offsets[r0], d.offsets[r1]
                    assert len(packed) == r1 - r0
                    assert np.array_equal(packed.offsets, d.offsets[r0 : r1 + 1] - b0)
                    assert np.array_equal(
                        packed.masses.view(np.uint64), whole[b0:b1].view(np.uint64)
                    ), (key, kind)
            assert set(d.counts.tolist()) == {81}

    def test_round_trip_before_and_after_use(self):
        ds = self.built()
        blob = serialize(ds)
        loaded = deserialize(blob)
        assert serialize(loaded) == blob
        for d in (ds, loaded):
            for sub in d.subs.values():
                sub.dc.masses, sub.ac.masses
            assert serialize(d) == blob

    def test_keys_order_and_missing_key(self):
        ds = self.built()
        assert len(ds.subs) == 16
        assert list(ds.subs) == [(q1, q2) for q1 in range(1, 5) for q2 in range(1, 5)]
        assert [(sub.q1, sub.q2) for sub in ds.subs.values()] == list(ds.subs)
        assert (4, 4) in ds.subs and (5, 1) not in ds.subs and (0, 1) not in ds.subs
        for q1, q2 in ((0, 1), (5, 1), (1, 5)):
            with pytest.raises(KeyError, match=rf"no sub-dataset for \(q1={q1}, q2={q2}\)"):
                ds.sub(q1, q2)
            with pytest.raises(KeyError):
                ds.subs[(q1, q2)]
        with pytest.raises(TypeError):
            ds.subs[(1, 1)] = ds.sub(1, 1)
        assert ds._made.keys() == set(ds.subs)
