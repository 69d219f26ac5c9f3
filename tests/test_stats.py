"""Histogram, Laplacian fit, and chi-square tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqe.stats import (
    CoeffHistogram,
    build_histogram,
    fit_laplacian,
    fit_laplacian_batch,
    is_degenerate,
)

from oracles import chi2, double_compress


def random_histogram(rng: np.random.Generator) -> CoeffHistogram:
    size = int(rng.integers(1, 20))
    support = np.sort(rng.choice(np.arange(-50, 51), size=size, replace=False))
    mass = rng.random(size) + 1e-3
    mass /= mass.sum()
    return CoeffHistogram(support=support, mass=mass, count=size * 10)


def brute_force_median(h: CoeffHistogram) -> float:
    """Minimizer of sum(mass * |x - mu|) over the support, first on ties."""
    costs = [float(np.sum(h.mass * np.abs(h.support - mu))) for mu in h.support]
    return float(h.support[int(np.argmin(costs))])


class TestBuildHistogram:
    def test_counting(self):
        h = build_histogram([0, 0, 1])
        assert h.support.tolist() == [0, 1]
        assert h.mass.tolist() == [2 / 3, 1 / 3]
        assert h.count == 3

    def test_degenerate_patch_dc(self):
        h = build_histogram(np.zeros(64, dtype=int))
        assert h.support.tolist() == [0]
        assert h.mass.tolist() == [1.0]

    def test_mirror_symmetry(self, rng):
        values = rng.integers(-20, 21, 200)
        h_pos = build_histogram(values)
        h_neg = build_histogram(-values)
        assert h_neg.support.tolist() == (-h_pos.support[::-1]).tolist()
        assert h_neg.mass.tolist() == h_pos.mass[::-1].tolist()

    def test_empty_input(self):
        with pytest.raises(ValueError):
            build_histogram([])

    @pytest.mark.parametrize("span", [1, 40, 399, 400, 401, 10**6, 2**62])
    def test_counting_matches_unique(self, rng, span):
        # 100 values over `span` integers: up to 400 integers are counted in
        # bins, more are sorted by np.unique; both give its support and counts.
        lo = -(span // 2)
        values = rng.integers(lo, lo + span, 100)
        values[:2] = lo, lo + span - 1
        with mock.patch.object(np, "unique", wraps=np.unique) as unique:
            h = build_histogram(values.astype(np.int32) if span < 2**31 else values)
        assert unique.called == (span > 400)
        support, counts = np.unique(values, return_counts=True)
        assert h.support.dtype == np.int64
        assert np.array_equal(h.support, support)
        assert np.array_equal(h.mass, counts / 100)
        assert h.count == 100

    def test_wide_range(self):
        # Bins over this range would need 2**63 counters.
        h = build_histogram(np.array([-(2**62), 0, 0, 2**62 - 1]))
        assert h.support.tolist() == [-(2**62), 0, 2**62 - 1]
        assert h.mass.tolist() == [0.25, 0.5, 0.25]

    def test_mass_conservation(self, rng):
        for _ in range(200):
            values = rng.integers(-100, 101, int(rng.integers(1, 500)))
            h = build_histogram(values)
            assert abs(h.mass.sum() - 1.0) < 1e-9
            assert (h.mass > 0).all()
            assert (np.diff(h.support) > 0).all()


class TestFitLaplacian:
    def test_single_bin(self):
        h = build_histogram([7, 7, 7])
        params = fit_laplacian(h)
        assert params.mu == 7.0
        assert params.beta == 0.0

    def test_lower_median_on_ties(self):
        h = CoeffHistogram(support=np.array([-1, 1]), mass=np.array([0.5, 0.5]), count=2)
        params = fit_laplacian(h)
        assert params.mu == -1.0
        assert params.beta == pytest.approx(1.0)
        assert brute_force_median(h) == -1.0

    def test_symmetric_histogram_centered(self):
        h = build_histogram([-2, -1, 0, 0, 0, 1, 2])
        assert fit_laplacian(h).mu == 0.0

    def test_mu_matches_brute_force(self, rng):
        for _ in range(300):
            h = random_histogram(rng)
            params = fit_laplacian(h)
            assert params.mu == brute_force_median(h)
            expected_beta = float(np.sum(h.mass * np.abs(h.support - params.mu)))
            assert params.beta == pytest.approx(expected_beta, abs=1e-12)


class TestFitLaplacianBatch:
    def test_matches_fit_laplacian_bit_for_bit(self, rng):
        # Lengths around np.sum's 8-term unroll and 128-term block, and
        # integer counts over a shared total so exact-half medians occur.
        hists = []
        for size in [1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 130, 255, 256, 300, 1000] * 3:
            support = np.sort(rng.choice(np.arange(-2000, 2001), size=size, replace=False))
            counts = rng.integers(1, 40, size)
            total = int(counts.sum()) * int(rng.integers(1, 3))
            hists.append(CoeffHistogram(support=support, mass=counts / total, count=total))
        order = rng.permutation(len(hists))
        hists = [hists[i] for i in order]
        mu, beta = fit_laplacian_batch(
            np.concatenate([h.support for h in hists]).astype(np.int16),
            np.concatenate([h.mass for h in hists]),
            [h.support.size for h in hists],
        )
        fits = [fit_laplacian(h) for h in hists]
        assert np.array_equal(mu, [f.mu for f in fits])
        assert np.array_equal(
            beta.view(np.uint64), np.array([f.beta for f in fits]).view(np.uint64)
        )

    def test_lower_median_on_ties(self):
        mu, beta = fit_laplacian_batch(np.array([-1, 1, 4, 6]), np.full(4, 0.5), [2, 2])
        assert mu.tolist() == [-1.0, 4.0]
        assert beta.tolist() == [1.0, 1.0]

    def test_no_histograms(self):
        mu, beta = fit_laplacian_batch(np.empty(0), np.empty(0), [])
        assert mu.size == 0 and beta.size == 0


class TestChi2:
    # chi2 is the oracle that refdata.batch_min_distance is tested against.
    def test_identity(self, rng):
        h = random_histogram(rng)
        assert chi2(h, h) == 0.0

    def test_worked_example(self):
        a = CoeffHistogram(support=np.array([0, 1]), mass=np.array([0.5, 0.5]), count=2)
        b = CoeffHistogram(support=np.array([0, 1]), mass=np.array([0.25, 0.75]), count=4)
        expected = 0.0625 / 0.75 + 0.0625 / 1.25
        assert chi2(a, b) == pytest.approx(expected, abs=1e-12)
        assert chi2(a, b) == pytest.approx(0.13333333, abs=1e-7)

    def test_disjoint_supports(self):
        a = CoeffHistogram(support=np.array([0, 1]), mass=np.array([0.5, 0.5]), count=2)
        b = CoeffHistogram(support=np.array([5, 6]), mass=np.array([0.25, 0.75]), count=4)
        assert chi2(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_symmetry_and_nonnegativity(self, rng):
        for _ in range(200):
            a = random_histogram(rng)
            b = random_histogram(rng)
            d_ab = chi2(a, b)
            d_ba = chi2(b, a)
            assert d_ab == d_ba
            assert d_ab >= 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_identity_of_indiscernibles(self, seed):
        rng = np.random.default_rng(seed)
        a = random_histogram(rng)
        b = random_histogram(rng)
        same = a.support.tolist() == b.support.tolist() and a.mass.tolist() == b.mass.tolist()
        assert (chi2(a, b) == 0.0) == same


class TestIsDegenerate:
    def test_single_bin(self):
        assert is_degenerate(build_histogram([3] * 64))

    def test_two_bins(self):
        assert not is_degenerate(build_histogram([3, 4]))

    def test_flat_patch_coefficient(self):
        from fqe import dctsim
        from fqe.types import GrayImage

        img = GrayImage(np.full((64, 64), 128, dtype=np.uint8))
        grid = double_compress(img, dctsim.constant_table(2), dctsim.constant_table(3))
        assert is_degenerate(build_histogram(grid.coefficient(2)))
