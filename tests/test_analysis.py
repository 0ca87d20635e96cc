"""Distances, KS machinery, and the convergence table."""

import numpy as np
import pytest

from cdfpush import (
    DistSpec,
    ParameterError,
    convergence_table,
    fixed_point_residual,
    iterate_pushforward,
    ks_band,
    ks_statistic,
    sample,
    sup_distance,
)

U = DistSpec("uniform").cdf()
A = DistSpec("arcsine").cdf()
K_HALF = DistSpec("kumaraswamy", 0.5, 0.5).cdf()
K23 = DistSpec("kumaraswamy", 2.0, 3.0).cdf()


class TestKsBand:
    def test_values(self):
        assert ks_band(100, 0.95) == pytest.approx(0.136, abs=1e-12)
        assert ks_band(100, 0.99) == pytest.approx(0.163, abs=1e-12)
        assert ks_band(100_000, 0.99) == pytest.approx(1.63 / np.sqrt(100_000), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ks_band(100, 0.5)
        with pytest.raises(ParameterError):
            ks_band(0, 0.95)


class TestSupDistance:
    def test_zero_on_identical(self):
        assert sup_distance(A, A, 512) == 0.0

    def test_uniform_vs_one_step_form(self):
        # |y - (1 - sqrt(1-y))| peaks with value 1/4 at y = 3/4; oracle is
        # a dense uniform scan independent of the standard grid
        K1 = DistSpec("kumaraswamy", 1.0, 0.5).cdf()
        d = sup_distance(U, K1, 4098)
        assert d == pytest.approx(0.25, abs=1e-6)
        y = np.linspace(0.0, 1.0, 1_000_001)
        gaps = np.abs(U(y) - K1(y))
        assert d == pytest.approx(float(gaps.max()), abs=1e-6)
        assert y[int(np.argmax(gaps))] == pytest.approx(0.75, abs=1e-3)

    def test_symmetry(self):
        assert sup_distance(U, K23, 512) == sup_distance(K23, U, 512)

    @pytest.mark.parametrize("triple", [(U, A, K23), (A, K_HALF, U), (K23, K_HALF, A)])
    def test_triangle_inequality(self, triple):
        F, G, H = triple
        assert sup_distance(F, H, 512) <= sup_distance(F, G, 512) + sup_distance(G, H, 512) + 1e-15


class TestKsStatistic:
    def test_single_sample(self):
        assert ks_statistic(DistSpec("empirical", samples=np.array([0.5])), U) == 0.5

    def test_rejects_a_spec_without_samples(self):
        with pytest.raises(ParameterError):
            ks_statistic(DistSpec("uniform"), U)

    def test_aligned_quantiles(self):
        # samples at the (i - 1/2)/n quantiles give exactly 1/(2n)
        n = 500
        spec = DistSpec("kumaraswamy", 2.0, 3.0)
        p = (np.arange(1, n + 1) - 0.5) / n
        samples = spec.quantile(p)
        assert ks_statistic(DistSpec("empirical", samples=samples), spec.cdf()) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_calibration_shrinks_with_n(self):
        spec = DistSpec("uniform")
        means = []
        for n in (1000, 16_000):
            vals = [
                ks_statistic(DistSpec("empirical", samples=sample(spec, n, seed)), U)
                for seed in range(25)
            ]
            means.append(float(np.mean(vals)))
        assert means[0] > means[1]


class TestFixedPointResidual:
    def test_arcsine_invariant(self):
        assert fixed_point_residual(A, 4.0, 4096) <= 1e-10

    def test_uniform_not_invariant(self):
        assert fixed_point_residual(U, 4.0, 4098) == pytest.approx(0.25, abs=1e-6)

    def test_two_step_form_not_invariant(self):
        # the two-step image of uniform is close to, but distinct from,
        # the invariant arcsine law
        residual = fixed_point_residual(K_HALF, 4.0, 4096)
        assert 0.02 < residual < 0.05


class TestConvergenceTable:
    def test_structure_and_monotone_approach(self):
        cols = convergence_table(8, m=1024)
        assert cols["n"].tolist() == list(range(9))
        # n=0 is the base itself
        assert cols["to_uniform"][0] == 0.0
        # n=2 matches the two-step closed form
        assert cols["to_kumaraswamy"][2] <= 1e-10
        # distance to the arcsine limit decreases from the first step on
        # and stays strictly positive at every finite depth
        to_a = cols["to_arcsine"]
        assert all(to_a[n] > to_a[n + 1] for n in range(1, 8))
        assert all(d > 1e-7 for d in to_a)
        assert to_a[6] < 1e-3

    @pytest.mark.parametrize("r", [4.0, 3.7])
    def test_rows_equal_sup_distances(self, r):
        # one evaluation per iterate must give the distances of the
        # public one-pair-at-a-time function, bit for bit
        cols = convergence_table(13, m=512, r=r)
        for i, n in enumerate(cols["n"].tolist()):
            iterate = iterate_pushforward(U, r, n)
            assert cols["to_uniform"][i] == sup_distance(iterate, U, 512)
            assert cols["to_kumaraswamy"][i] == sup_distance(iterate, K_HALF, 512)
            assert cols["to_arcsine"][i] == sup_distance(iterate, A, 512)

    def test_depth_validation(self):
        with pytest.raises(ParameterError):
            convergence_table(1)
