"""Distances, KS machinery, and the convergence table."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdfpush import (
    DistSpec,
    NumericsError,
    ParameterError,
    convergence_table,
    ensemble_push,
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
        with pytest.raises(ParameterError, match="must be an integer"):
            ks_band(100.9)


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

    def test_zero_against_its_own_atoms(self):
        # a sample scored against its own empirical law fits it exactly; with
        # F(x) in place of the left limit F(x-) this read 0.5
        spec = DistSpec("empirical", samples=np.array([0.2, 0.7]))
        assert ks_statistic(spec, spec.cdf()) == 0.0

    def test_zero_against_the_iterate_of_its_atoms(self):
        # the iterate of an empirical base carries the law of its pushed
        # samples, whose atoms give the left limits; without it this read 1/3
        atoms = np.array([0.1, 0.3, 0.75])
        pushed = DistSpec("empirical", samples=4.0 * atoms * (1.0 - atoms))
        iterate = iterate_pushforward(DistSpec("empirical", samples=atoms).cdf(), 4.0, 1)
        assert ks_statistic(pushed, iterate) == 0.0

    def test_rejects_a_spec_without_samples(self):
        with pytest.raises(ParameterError):
            ks_statistic(DistSpec("uniform"), U)

    @pytest.mark.parametrize(
        "empirical", [np.array([0.2, 0.7]), [0.2, 0.7], U], ids=["array", "list", "cdf"]
    )
    def test_rejects_what_is_not_a_spec(self, empirical):
        # raised AttributeError on `.samples`
        with pytest.raises(ParameterError, match="empirical spec"):
            ks_statistic(empirical, U)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["first", "later"])
    def test_rejects_a_non_finite_reference(self, bad, where):
        # a NaN at the first call read as a KS value of nan, and one that
        # first appeared in a later call was dropped by max(stat, nan)
        calls = []

        def broken(y):
            calls.append(y)
            y = np.asarray(y, dtype=float)
            return np.where(y > 0.5, bad, y) if where == "first" or len(calls) > 1 else y

        emp = DistSpec("empirical", samples=sample(DistSpec("uniform"), 20_000, 4))
        with pytest.raises(NumericsError, match="not finite"):
            ks_statistic(emp, broken)
        assert len(calls) == (1 if where == "first" else 2)

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


def ks_full(empirical, F, step=False):
    """The KS statistic from F at every sorted sample: the oracle of the
    bracketed `ks_statistic`.  Its d- term takes the left limit F(x-): for
    a step CDF whose atoms are floats (step=True) that is F at the next
    float below x, and 0 at x = 0; for a continuous F it is F(x)."""
    x = empirical.samples
    n = x.size
    fx = np.asarray(F(x), dtype=float)
    left = fx
    if step:
        left = np.where(x > 0.0, np.asarray(F(np.nextafter(x, 0.0)), dtype=float), 0.0)
    ranks = np.arange(1, n + 1, dtype=float)
    return max(float(np.max(ranks / n - fx)), float(np.max(left - (ranks - 1.0) / n)))


class CountingCdf:
    """Wraps a CDF and records how many points each call passes."""

    def __init__(self, F):
        self.F = F
        self.calls = []

    def __call__(self, y):
        self.calls.append(np.asarray(y).size)
        return self.F(y)


BETA = DistSpec("beta", 2.5, 3.5)
EMPIRICAL_SPEC = DistSpec("empirical", samples=sample(DistSpec("kumaraswamy", 2.0, 3.0), 3000, 11))
EMPIRICAL_REF = EMPIRICAL_SPEC.cdf()


class TestKsBracketing:
    """`ks_statistic` evaluates the reference only where monotonicity lets
    the supremum lie, on a ladder of ever finer rungs; it must give the
    full-evaluation statistic."""

    @pytest.mark.parametrize(
        "F", [U, A, K_HALF, K23, EMPIRICAL_REF], ids=["uniform", "arcsine", "kum-half", "kum23", "empirical"]
    )
    @pytest.mark.parametrize("draw", ["uniform", "kumaraswamy:2,3"])
    # sqrt(n) crosses a power of 4, and so the first rung's stride, at n = 16**k;
    # at n = 2e5 the ladder runs five rungs, of stride 256 down to 1
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 255, 256, 257, 1000, 4095, 4096, 4097, 20_000, 200_000])
    def test_equals_full_evaluation(self, F, draw, n):
        emp = DistSpec("empirical", samples=sample(DistSpec.parse(draw), n, n))
        assert ks_statistic(emp, F) == ks_full(emp, F, step=F is EMPIRICAL_REF)

    @pytest.mark.parametrize("r, depth", [(4.0, 14), (3.7, 13)])
    def test_grid_iterates(self, r, depth):
        # the grid strategy named: "auto" serves the uniform at r = 4 in closed form
        F = iterate_pushforward(U, r, depth, strategy="grid")
        assert F.strategy == "grid"
        emp = ensemble_push(DistSpec("uniform"), r, depth, 20_000, 5)
        assert ks_statistic(emp, F) == ks_full(emp, F)

    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5])
    def test_exact_iterates_of_the_uniform(self, r):
        F = iterate_pushforward(U, r, 8, strategy="exact")
        emp = ensemble_push(DistSpec("uniform"), r, 8, 20_000, 6)
        assert ks_statistic(emp, F) == ks_full(emp, F)

    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5])
    def test_exact_iterates_of_a_beta(self, r):
        # beta values do not depend on their batch, so bracketing the
        # supremum gives the full scan's statistic exactly
        F = iterate_pushforward(BETA.cdf(), r, 8, strategy="exact")
        emp = ensemble_push(BETA, r, 8, 20_000, 7)
        assert ks_statistic(emp, F) == ks_full(emp, F)

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([None, 0, 1, 2, 4]),
        st.booleans(),
        st.sampled_from(["uniform", "arcsine", "kum23", "empirical"]),
    )
    def test_ties_and_endpoints(self, n, seed, decimals, endpoints, ref):
        rng = np.random.default_rng(seed)
        x = rng.random(n) ** rng.uniform(0.2, 5.0)
        if decimals is not None:
            x = np.round(x, decimals)  # few distinct values: long runs of ties
        if endpoints:
            x[rng.integers(0, n, size=max(1, n // 10))] = rng.choice([0.0, 1.0])
            x[0], x[-1] = 0.0, 1.0
        F = {"uniform": U, "arcsine": A, "kum23": K23, "empirical": EMPIRICAL_REF}[ref]
        emp = DistSpec("empirical", samples=x)
        assert ks_statistic(emp, F) == ks_full(emp, F, step=F is EMPIRICAL_REF)

    @pytest.mark.parametrize("n", [1, 17, 3000, 20_000])
    def test_bootstrap_of_the_reference_atoms(self, n):
        # every sample is an atom of the reference, so the d- term needs
        # F(x-); F(x) gave the wrong statistic on these
        emp = DistSpec("empirical", samples=sample(EMPIRICAL_SPEC, n, n))
        assert ks_statistic(emp, EMPIRICAL_REF) == ks_full(emp, EMPIRICAL_REF, step=True)

    def test_supremum_on_a_gap_bound(self):
        # sixteen tied samples make the first gap's d+ bound, 16/33 - 0.01,
        # the statistic itself; the probed terms miss it by only 1e-6
        x = np.concatenate([np.full(16, 0.01), [0.01 + 1 / 33 + 1e-6], np.arange(17, 33) / 33])
        emp = DistSpec("empirical", samples=x)
        assert ks_full(emp, U) == 16 / 33 - 0.01
        assert ks_statistic(emp, U) == 16 / 33 - 0.01

    def test_supremum_in_a_gap_finer_than_the_rung(self):
        # n = 259: the first rung probes every 16th sample and the last, so
        # the last gap (256, 258) holds no multiple of 4 but holds sample
        # 257, whose d+ term 58/259 is the statistic; every other gap closes
        n = 259
        x = np.concatenate([(np.arange(200) + 0.5) / n, np.full(58, 200 / n), [1.0]])
        emp = DistSpec("empirical", samples=x)
        assert ks_full(emp, U) == pytest.approx(58 / n, abs=1e-15)
        assert ks_statistic(emp, U) == ks_full(emp, U)

    def test_four_calls_on_a_small_share_of_the_samples(self):
        # rungs at every 64th, 16th and 4th sample, then the rest of the
        # open gaps: 674 points in 4 calls
        n = 20_000
        emp = ensemble_push(BETA, 3.7, 8, n, 2011)
        F = CountingCdf(iterate_pushforward(BETA.cdf(), 3.7, 8))
        ks = ks_statistic(emp, F)
        assert len(F.calls) <= 4
        assert sum(F.calls) <= 0.05 * n
        assert abs(ks - ks_full(emp, F.F)) <= 1e-13

    @pytest.mark.parametrize("n", [20, 300, 5000, 20_000])
    def test_no_sample_is_evaluated_twice(self, n):
        seen = []

        def spy(y):
            seen.append(np.array(y, dtype=float))
            return A(y)

        x = sample(DistSpec("kumaraswamy", 2.0, 3.0), n, 9)
        assert np.unique(x).size == n  # no ties, so a repeated input is a repeated sample
        emp = DistSpec("empirical", samples=x)
        assert ks_statistic(emp, spy) == ks_full(emp, A)
        inputs = np.concatenate(seen)
        assert np.unique(inputs).size == inputs.size

    def test_a_dipping_reference_gets_every_sample(self):
        # drops by 0.01 at 1/2: the probed values decrease there by far more
        # than the slack, so no gap can be bounded and every sample is seen
        def dipping(y):
            y = np.asarray(y, dtype=float)
            return y - 0.01 * (y > 0.5)

        n = 20_000
        emp = DistSpec("empirical", samples=sample(DistSpec("uniform"), n, 3))
        F = CountingCdf(dipping)
        assert ks_statistic(emp, F) == ks_full(emp, dipping)
        assert len(F.calls) == 2
        assert sum(F.calls) == n


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

    def test_rows_past_the_exact_limit(self):
        # the grid chain read 4.5e-13 at both depths: a grid of 1025 knots
        # cannot hold the deviation of D_n from the arcsine law past n = 12
        to_a = convergence_table(14)["to_arcsine"]
        assert abs(to_a[13] - 9.434e-9) <= 1e-12
        assert abs(to_a[14] - 2.359e-9) <= 1e-12

    def test_distance_to_arcsine_falls_as_four_to_the_minus_n(self):
        # D_n - u = -(pi^2/6)*4**-n*u*(1-u)*(2-u) to leading order, whose
        # largest size, at u = 1 - 1/sqrt(3), is pi^2/(9*sqrt(3))*4**-n
        to_a = convergence_table(16)["to_arcsine"]
        law = math.pi**2 / (9.0 * math.sqrt(3.0))
        for n in range(10, 17):
            assert abs(to_a[n] * 4.0**n / law - 1.0) <= 1e-5, n

    def test_depth_validation(self):
        with pytest.raises(ParameterError):
            convergence_table(1)
