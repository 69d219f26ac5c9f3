"""Estimator tests: distance matrix, argmin, regularization."""

import math
from collections import Counter

import numpy as np
import pytest

from fqe import dctsim, estimator, jpegio
from fqe.corpus import double_compress_file
from fqe.estimator import (
    DEGENERATE,
    OK,
    UNSUPPORTED,
    DistanceMatrix,
    distance_matrix,
    estimate,
    raw_estimates,
    regularize,
)
from fqe.refdata import build_reference
from fqe.types import GrayImage, QuantTable

from conftest import synth_patches
from oracles import dense_min_distance, reg_term


@pytest.fixture(scope="module")
def ds8():
    return build_reference(synth_patches(seed=31, count=20), q1_max=8, k=15)


def make_matrix(rows: list[list[float]], status: list[str] | None = None) -> DistanceMatrix:
    d = np.array(rows, dtype=float)
    if status is None:
        status = [OK] * d.shape[0]
    return DistanceMatrix(d=d, status=status, q2=[1] * d.shape[0])


def brute_force_regularize(dm: DistanceMatrix, w: float) -> list[int | None]:
    """Window search written from the definition with plain loops."""
    raw = raw_estimates(dm)
    ok_rows = [i for i, s in enumerate(dm.status) if s == OK]
    if len(ok_rows) < 3:
        return raw

    def norm(row):
        finite = np.isfinite(row)
        lo, hi = row[finite].min(), row[finite].max()
        out = []
        for v in row:
            if not math.isfinite(v):
                out.append(1.0)
            elif hi > lo:
                out.append((v - lo) / (hi - lo))
            else:
                out.append(0.0)
        return out

    normalized = {i: norm(dm.d[i]) for i in ok_rows}
    votes = {pos: [] for pos in range(len(ok_rows))}
    middles = {}
    m = dm.q1_max
    for t in range(len(ok_rows) - 2):
        n1 = normalized[ok_rows[t]]
        n2 = normalized[ok_rows[t + 1]]
        n3 = normalized[ok_rows[t + 2]]
        best = None
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                for c in range(1, m + 1):
                    s = w * (n1[a - 1] + n2[b - 1] + n3[c - 1]) / 3.0 + (
                        1 - w
                    ) * reg_term(a, b, c, "reg3")
                    if best is None or s < best[0]:
                        best = (s, (a, b, c))
        a, b, c = best[1]
        votes[t].append(a)
        votes[t + 1].append(b)
        votes[t + 2].append(c)
        middles[t + 1] = b

    out: list[int | None] = [None] * len(dm.status)
    for pos, row in enumerate(ok_rows):
        counts = Counter(votes[pos])
        top = max(counts.values())
        tied = sorted(v for v, n in counts.items() if n == top)
        if len(tied) > 1 and middles.get(pos) in tied:
            out[row] = middles[pos]
        else:
            out[row] = tied[0]
    return out


class TestDistanceMatrix:
    def test_self_retrieval(self, ds8):
        # A constituent patch re-compressed with its own constant pair must
        # score distance zero at the true q1 on every usable position.
        patches = synth_patches(seed=31, count=20)
        img = patches[5]
        data = double_compress_file(img, dctsim.constant_table(3), dctsim.constant_table(4))
        parsed = jpegio.parse_jpeg(data)
        dm = distance_matrix(parsed.coeffs, parsed.luma_table, ds8)
        for i in range(ds8.k):
            if dm.status[i] == OK:
                assert dm.d[i][2] == 0.0
        assert all(r in (3, None) for r in raw_estimates(dm))

    def test_matches_oracle_kernel(self, ds8, monkeypatch):
        # Every distance, exact zeros included, equals the dense-array
        # oracle's, over constant-pair self-retrievals and standard tables.
        pairs = [(3, 4), (8, 1), (1, 8), (5, 5), (2, 7)] * 4
        images = [
            double_compress_file(img, dctsim.constant_table(q1), dctsim.constant_table(q2))
            for img, (q1, q2) in zip(synth_patches(seed=31, count=20), pairs)
        ] + [
            double_compress_file(img, dctsim.standard_table(qf), dctsim.standard_table(90))
            for img, qf in zip(synth_patches(seed=35, count=8), [60, 70, 80, 90] * 2)
        ]
        parsed = [jpegio.parse_jpeg(data) for data in images]
        fast = [distance_matrix(pj.coeffs, pj.luma_table, ds8) for pj in parsed]
        monkeypatch.setattr(estimator, "mass_table", lambda h: (h, None))
        monkeypatch.setattr(
            estimator,
            "batch_min_distance",
            lambda packed, h, key, n, total: dense_min_distance(packed, h, key, n),
        )
        for pj, dm in zip(parsed, fast):
            want = distance_matrix(pj.coeffs, pj.luma_table, ds8)
            assert np.array_equal(dm.d, want.d)
            assert dm.status == want.status
        for (q1, _), dm in zip(pairs, fast):
            ok = [i for i, s in enumerate(dm.status) if s == OK]
            assert ok and all(dm.d[i][q1 - 1] == 0.0 for i in ok)

    def test_flat_patch_all_degenerate(self, ds8):
        img = GrayImage(np.full((64, 64), 128, dtype=np.uint8))
        data = double_compress_file(img, dctsim.constant_table(2), dctsim.constant_table(3))
        parsed = jpegio.parse_jpeg(data)
        dm = distance_matrix(parsed.coeffs, parsed.luma_table, ds8)
        assert dm.status == [DEGENERATE] * 15

    def test_unsupported_q2(self, ds8):
        img = synth_patches(seed=33, count=1)[0]
        factors = dctsim.standard_table(90).factors.copy()
        factors[dctsim.ZIGZAG_TO_NATURAL[4]] = 40  # position 5 exceeds the grid
        q2 = QuantTable(factors)
        parsed = jpegio.parse_jpeg(
            double_compress_file(img, dctsim.constant_table(2), q2)
        )
        dm = distance_matrix(parsed.coeffs, parsed.luma_table, ds8)
        assert dm.status[4] == UNSUPPORTED
        assert dm.q2[4] == 40
        assert raw_estimates(dm)[4] is None


class TestRawEstimates:
    def test_argmin(self):
        dm = make_matrix([[0.5, 0.0, 0.9], [0.1, 0.2, 0.3]])
        assert raw_estimates(dm) == [2, 1]

    def test_tie_takes_smaller(self):
        dm = make_matrix([[0.3, 0.3, 1.0]])
        assert raw_estimates(dm) == [1]

    def test_flags_pass_through(self):
        dm = make_matrix(
            [[np.inf, np.inf], [0.2, 0.1], [np.inf, np.inf]],
            status=[DEGENERATE, OK, UNSUPPORTED],
        )
        assert raw_estimates(dm) == [None, 2, None]


class TestRegTerm:
    def test_equal_triplet_zero(self):
        for variant in ("reg1", "reg2", "reg3"):
            assert reg_term(4, 4, 4, variant) == 0.0

    def test_worked_examples(self):
        assert reg_term(2, 4, 6, "reg3") == 0.5
        assert reg_term(2, 4, 6, "reg1") == 2.0
        assert reg_term(2, 4, 6, "reg2") == pytest.approx(1.0)

    def test_nonnegative_zero_iff_constant_symmetric(self, rng):
        for _ in range(300):
            a, b, c = (int(x) for x in rng.integers(1, 23, 3))
            for variant in ("reg1", "reg2", "reg3"):
                value = reg_term(a, b, c, variant)
                assert value >= 0.0
                assert (value == 0.0) == (a == b == c)
                assert value == reg_term(c, b, a, variant)

    def test_grid_matches_scalar(self, rng):
        from fqe.estimator import _reg_grid

        grid = _reg_grid(6)
        for _ in range(50):
            a, b, c = (int(x) for x in rng.integers(1, 7, 3))
            assert grid[a - 1, b - 1, c - 1] == pytest.approx(reg_term(a, b, c, "reg3"), abs=1e-12)


class TestRegularize:
    def strict_unimodal_matrix(self, rng, k=8, m=6):
        rows = []
        for _ in range(k):
            row = rng.uniform(0.2, 1.0, m)
            row[rng.integers(0, m)] = rng.uniform(0.0, 0.1)
            rows.append(row.tolist())
        return make_matrix(rows)

    def test_w1_returns_raw_on_unimodal_rows(self, rng):
        for _ in range(30):
            dm = self.strict_unimodal_matrix(rng)
            assert regularize(dm, w=1.0) == raw_estimates(dm)

    @pytest.mark.parametrize("w", [float("nan"), -0.01, 1.01, 5.0, float("inf")])
    def test_w_outside_unit_interval_rejected(self, rng, w):
        # Checked before the usable coefficients are counted, so a matrix
        # with too few of them rejects it too.
        for k in (8, 2):
            with pytest.raises(ValueError) as failed:
                regularize(self.strict_unimodal_matrix(rng, k=k), w)
            assert str(failed.value) == f"w {w} out of range [0, 1]"
        assert regularize(self.strict_unimodal_matrix(rng), 0.0)

    def test_consensus(self):
        row = [0.9, 0.1, 0.8, 0.7, 0.6, 0.5]
        dm = make_matrix([row] * 6)
        assert regularize(dm) == [2] * 6

    def test_matches_brute_force(self, rng):
        for q1_max in (1, 2, 6):
            for trial in range(15):
                k = int(rng.integers(3, 9))
                if trial % 3 == 0:
                    rows = rng.uniform(0, 1, (k, q1_max))
                    w = float(rng.uniform(0.5, 1.0))
                else:
                    # A coarse grid ties triplets in the data term and windows
                    # in their votes.
                    rows = rng.integers(0, 3, (k, q1_max)) * 0.5
                    w = float(rng.choice([0.0, 0.5, 0.92, 1.0]))
                rows[rng.random((k, q1_max)) < 0.2] = np.inf
                rows[np.arange(k), rng.integers(0, q1_max, k)] = rng.integers(0, 3, k) * 0.5
                if trial % 5 == 4:
                    ok = rng.choice(k, 3, replace=False)
                    status = [OK if i in ok else DEGENERATE for i in range(k)]
                else:
                    status = [OK if rng.random() > 0.2 else DEGENERATE for _ in range(k)]
                    if sum(s == OK for s in status) < 3:
                        status = [OK] * k
                dm = make_matrix(rows.tolist(), status=status)
                assert regularize(dm, w) == brute_force_regularize(dm, w)

    def test_shallow_minimum_pulled_to_neighbors(self):
        # Neighbors firmly at 4; the middle row has a slightly better value
        # at 7 but with w = 0.92 the smoothness term flips it back to 4.
        # Normalized gain of 7 over 4 is 0.1, below the flip threshold
        # (1 - w) / w * (reg(4,7,4) - reg(4,4,4)) / (1/3) ~= 0.112.
        firm = [1.0] * 8
        firm[3] = 0.0
        shallow = [1.0] * 8
        shallow[6] = 0.50
        shallow[3] = 0.55
        dm = make_matrix([firm, shallow, firm])
        assert raw_estimates(dm)[1] == 7
        result = regularize(dm)
        assert result == [4, 4, 4]
        assert result == brute_force_regularize(dm, 0.92)

    def test_scale_invariance(self, rng):
        # Per-row positive scaling must not change any window argmin.
        for _ in range(30):
            dm = make_matrix(rng.uniform(0.01, 1.0, (6, 6)).tolist())
            base = regularize(dm)
            scales = rng.uniform(0.1, 900.0, 6)
            scaled = make_matrix((dm.d * scales[:, None]).tolist())
            assert regularize(scaled) == base

    def test_fewer_than_three_ok_rows(self):
        dm = make_matrix(
            [[0.5, 0.1], [0.4, 0.2], [np.inf, np.inf]],
            status=[OK, OK, DEGENERATE],
        )
        assert regularize(dm) == raw_estimates(dm)

    def test_infinite_candidates_never_win(self):
        rows = np.full((4, 5), 0.5)
        rows[:, 1] = 0.0
        rows[:, 4] = np.inf  # no reference data for q1=5
        dm = make_matrix(rows.tolist())
        assert regularize(dm) == [2, 2, 2, 2]


class TestEstimate:
    def test_end_to_end_self_retrieval(self, ds8):
        patches = synth_patches(seed=31, count=20)
        data = double_compress_file(
            patches[7], dctsim.constant_table(3), dctsim.constant_table(4)
        )
        result = estimate(data, ds8)
        for est, status in zip(result.estimates, result.distances.status):
            if status == OK:
                assert est == 3

    def test_single_compressed_is_total(self, ds8):
        # A single-compressed image still yields estimates: documented
        # behavior, no correctness claim.
        img = synth_patches(seed=36, count=1)[0]
        data = jpegio.encode_baseline_gray(img, dctsim.constant_table(4))
        result = estimate(data, ds8)
        assert len(result.estimates) == 15

    def test_always_regularizes(self, ds8):
        # Regularization is not optional: the estimates are always its answer.
        patches = synth_patches(seed=37, count=1)
        data = double_compress_file(
            patches[0], dctsim.constant_table(5), dctsim.constant_table(2)
        )
        result = estimate(data, ds8)
        assert result.estimates == regularize(result.distances)
        assert result.raw_estimates == raw_estimates(result.distances)
        assert not result.warnings

    @pytest.mark.parametrize("kept, warned", [((2, 3, 5), False), ((2, 3), True)])
    def test_three_usable_coefficients_are_enough_to_regularize(self, ds8, kept, warned):
        # q2 factors above ds8's q1_max of 8 leave only the kept positions ok.
        zz = np.full(64, 20)
        zz[np.array(kept) - 1] = 2
        patch = synth_patches(seed=31, count=20)[7]
        data = double_compress_file(patch, dctsim.constant_table(3), QuantTable.from_zigzag(zz))
        result = estimate(data, ds8)
        status = result.distances.status
        assert [i + 1 for i, s in enumerate(status) if s == OK] == list(kept)
        assert result.estimates == regularize(result.distances)
        assert result.warnings == (
            ["fewer than 3 usable coefficients: regularization skipped"] if warned else []
        )

    def test_determinism(self, ds8):
        patches = synth_patches(seed=38, count=1)
        data = double_compress_file(
            patches[0], dctsim.constant_table(2), dctsim.constant_table(6)
        )
        r1 = estimate(data, ds8)
        r2 = estimate(data, ds8)
        assert r1.estimates == r2.estimates
        assert r1.raw_estimates == r2.raw_estimates
        assert np.array_equal(r1.distances.d, r2.distances.d)

    def test_flat_image_warning(self, ds8):
        img = GrayImage(np.full((64, 64), 64, dtype=np.uint8))
        data = double_compress_file(img, dctsim.constant_table(2), dctsim.constant_table(3))
        result = estimate(data, ds8)
        assert result.estimates == [None] * 15
        assert result.warnings

    def test_grid_is_the_datasets(self, ds8):
        # The q1 grid is the dataset's: estimates range over ds8's 1..8.
        data = double_compress_file(
            synth_patches(seed=39, count=1)[0], dctsim.constant_table(3), dctsim.constant_table(2)
        )
        result = estimate(data, ds8)
        assert result.distances.d.shape == (15, 8)
        assert any(e is not None for e in result.estimates)
        assert all(e is None or 1 <= e <= 8 for e in result.estimates)
