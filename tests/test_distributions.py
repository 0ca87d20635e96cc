"""Distribution primitives against independent oracles.

Closed-form point values are checked against adaptive quadrature of the
density, against scipy's incomplete-beta implementation and against
mpmath at 40 digits, none of which shares code with the library's
Chebyshev series or its continued fraction.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, special

from cdfpush import (
    Cdf,
    ConvergenceError,
    DistSpec,
    DomainError,
    ParameterError,
    cdf_beta,
    cdf_kumaraswamy,
    iterate_pushforward,
    ks_band,
    ks_statistic,
    sample,
    standard_grid,
)
from cdfpush import distributions
from cdfpush.distributions import _beta_continued_fraction, _beta_kernel, _beta_law, _ln_beta

unit_floats = st.floats(min_value=0.0, max_value=1.0)
shape_params = st.floats(min_value=0.25, max_value=4.0)

UNIFORM = DistSpec("uniform").cdf()
ARCSINE = DistSpec("arcsine").cdf()
SHAPES = [(0.5, 0.5), (2.5, 3.5), (0.2, 5.0), (5.0, 0.3), (20.0, 30.0)]
CHEBYSHEV_SHAPES = SHAPES + [(0.05, 5.0)]


def beta_cdf_by_quadrature(a, b, y):
    """Independent oracle: integrate the beta density directly."""
    norm = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    value, err = integrate.quad(
        lambda t: norm * t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, y,
        points=[0.0, y], limit=200,
    )
    assert err < 1e-10
    return value


def mpmath_betainc(a, b):
    """Points across [0, 1] (both tails, the split, the bulk), I_y(a, b) at
    40 digits, and the tail the library evaluates there: I_y below the
    split, 1 - I_y at and above it."""
    split = _beta_law(a, b)[0].split
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    y = np.concatenate([
        [0.0, 5e-324, 1.0],
        np.linspace(0.0, 1.0, 17)[1:-1],
        np.logspace(-300, -1, 9),
        1.0 - np.logspace(-16, -1, 9),
        split * (1.0 + np.array([-1e-3, 0.0, 1e-3])),
        np.clip(a / (a + b) + np.linspace(-8.0, 8.0, 9) * sd, 0.0, 1.0),
    ])
    with mpmath.workdps(40):
        exact = [mpmath.betainc(a, b, 0, mpmath.mpf(v), regularized=True) for v in y]
        side_tail = np.array([float(1 - v if u >= split else v) for u, v in zip(y, exact)])
        return y, np.array([float(v) for v in exact]), side_tail


class TestUniform:
    def test_identity(self):
        assert UNIFORM(0.0) == 0.0
        assert UNIFORM(1.0) == 1.0
        assert UNIFORM(0.25) == 0.25

    def test_returns_input_exactly(self):
        y = np.linspace(0.0, 1.0, 17)
        assert np.array_equal(UNIFORM(y), y)

    def test_domain(self):
        with pytest.raises(DomainError):
            UNIFORM(-0.1)
        with pytest.raises(DomainError):
            UNIFORM(1.1)
        with pytest.raises(DomainError):
            UNIFORM(float("nan"))


class TestArcsine:
    def test_endpoints_and_median(self):
        assert ARCSINE(0.0) == 0.0
        assert ARCSINE(0.5) == pytest.approx(0.5, abs=1e-15)
        assert ARCSINE(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_point_against_quadrature(self):
        # (2/pi)*arcsin(1/2) = 1/3, and the density integral agrees
        assert ARCSINE(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert beta_cdf_by_quadrature(0.5, 0.5, 0.25) == pytest.approx(1.0 / 3.0, abs=1e-10)

    @given(unit_floats, unit_floats)
    def test_monotone(self, y1, y2):
        lo, hi = min(y1, y2), max(y1, y2)
        assert ARCSINE(lo) <= ARCSINE(hi)

    def test_against_mpmath(self):
        # within two ulps of 1 on both tails and on the standard grid;
        # (2/pi)*arcsin(sqrt(y)) in floats was 2.8e-9 off at y = 1 - 2**-53
        k = np.arange(1, 54)
        y = np.concatenate([1.0 - 2.0**-k, 2.0**-k, standard_grid(4096)])
        with mpmath.workdps(40):
            expected = np.array([float(2 / mpmath.pi * mpmath.asin(mpmath.sqrt(mpmath.mpf(v)))) for v in y])
        assert np.max(np.abs(ARCSINE(y) - expected)) <= 4.5e-16


class TestKumaraswamy:
    def test_point_values(self):
        # alpha=1, beta=1/2 reduces to 1 - sqrt(1-y)
        assert cdf_kumaraswamy(1.0, 0.5, 0.75) == pytest.approx(0.5, abs=1e-15)
        expected = 1.0 - math.sqrt(1.0 - math.sqrt(1.0 / 16.0))
        assert cdf_kumaraswamy(0.5, 0.5, 1.0 / 16.0) == pytest.approx(expected, abs=1e-15)

    @given(shape_params, shape_params)
    def test_endpoints(self, a, b):
        assert cdf_kumaraswamy(a, b, 0.0) == 0.0
        assert cdf_kumaraswamy(a, b, 1.0) == 1.0

    @pytest.mark.parametrize("a, b", [(0.25, 0.25), (0.5, 0.5), (2.0, 3.0), (1.0, 0.25), (5.0, 0.3), (0.05, 5.0)])
    def test_accurate_near_one_and_at_the_endpoints(self, a, b):
        # against mpmath at 50 digits; forming y**a first was up to 7e-5
        # off next to y = 1 and flat over runs of floats there
        y = np.concatenate([
            [0.0, 5e-324, 1e-300, 1.0],
            np.linspace(0.0, 1.0, 41),
            1.0 - np.logspace(-16, -1, 61),
            1.0 - np.arange(1, 9) * 2.0**-53,
        ])
        got = cdf_kumaraswamy(a, b, y)
        with mpmath.workdps(50):
            expected = np.array([float(1 - (1 - mpmath.mpf(v) ** a) ** b) for v in y])
        assert np.max(np.abs(got - expected)) <= 4e-16
        last = got[-8:][::-1]  # the 8 floats below 1, increasing
        assert np.all(np.diff(last[last < 1.0]) > 0.0)
        assert not np.signbit(cdf_kumaraswamy(a, b, 0.0))

    def test_parameter_validation(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                cdf_kumaraswamy(bad, 1.0, 0.5)
            with pytest.raises(ParameterError):
                cdf_kumaraswamy(1.0, bad, 0.5)

    def test_quantile_point_values(self):
        assert DistSpec("kumaraswamy", 0.5, 0.5).quantile(0.0) == 0.0
        assert DistSpec("kumaraswamy", 1.0, 0.5).quantile(0.5) == pytest.approx(0.75, abs=1e-15)
        assert DistSpec("kumaraswamy", 2.0, 3.0).quantile(1.0) == 1.0

    @pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 2.0), (0.25, 0.25), (5.0, 0.3), (1.0, 0.5)])
    def test_quantile_relative_error_in_both_tails(self, a, b):
        # (1 - (1 - p)**(1/b))**(1/a) cancels for small p: at (2, 3) it
        # gave 0 for p = 1e-20, where the quantile is 5.77e-11.  The
        # reference keeps log1p/expm1 too, since 1 - (1 - p)**(1/b) at 50
        # digits is itself wrong below p = 1e-50.
        p = np.concatenate([np.logspace(-300, 0, 301)[:-1], 1.0 - np.logspace(-16, -1, 16)])
        got = DistSpec("kumaraswamy", a, b).quantile(p)
        with mpmath.workdps(50):
            expected = np.array([
                float((-mpmath.expm1(mpmath.log1p(-mpmath.mpf(v)) / b)) ** (1 / mpmath.mpf(a))) for v in p
            ])
        normal = expected >= np.finfo(float).tiny
        assert np.max(np.abs(got[normal] / expected[normal] - 1.0)) <= 1e-14

    def test_quantile_is_one_at_one_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert DistSpec("kumaraswamy", 2.0, 3.0).quantile(1.0) == 1.0
            assert DistSpec("kumaraswamy", 0.25, 0.25).quantile(np.array([0.0, 1.0])).tolist() == [0.0, 1.0]

    @given(
        # p close enough to 1 makes the quantile saturate at 1.0 in double
        # precision for small beta (e.g. (1e-5)**4 below machine epsilon),
        # so the round trip is only meaningful away from that corner
        st.floats(min_value=1e-9, max_value=0.999),
        shape_params,
        shape_params,
    )
    def test_quantile_round_trip(self, p, a, b):
        # Near y = 1 with small b (p = 0.999, b = 0.25) the CDF is so steep
        # that one float step of y moves it by more than 1e-9, so no float64
        # y meets the bound pointwise there: p must lie within 1e-9 of the
        # CDF at the floats on either side of y.
        y = DistSpec("kumaraswamy", a, b).quantile(p)
        below = cdf_kumaraswamy(a, b, max(y - np.spacing(y), 0.0))
        above = cdf_kumaraswamy(a, b, min(y + np.spacing(y), 1.0))
        assert below - 1e-9 <= p <= above + 1e-9


class TestBetaCdf:
    def test_uniform_special_case(self):
        y = np.linspace(0.0, 1.0, 11)
        assert np.max(np.abs(cdf_beta(1.0, 1.0, y) - y)) < 1e-14

    def test_point_value_against_quadrature(self):
        got = cdf_beta(1.0, 0.5, 0.75)
        assert got == pytest.approx(0.5, abs=1e-12)
        assert got == pytest.approx(beta_cdf_by_quadrature(1.0, 0.5, 0.75), abs=1e-10)
        got = cdf_beta(2.0, 3.0, 0.4)
        assert got == pytest.approx(beta_cdf_by_quadrature(2.0, 3.0, 0.4), abs=1e-10)

    def test_matches_arcsine(self):
        y = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(cdf_beta(0.5, 0.5, y) - ARCSINE(y))) <= 1e-10

    @given(shape_params, shape_params, unit_floats)
    def test_against_scipy(self, a, b, y):
        assert cdf_beta(a, b, y) == pytest.approx(float(special.betainc(a, b, y)), abs=5e-13)

    @given(shape_params, shape_params)
    def test_endpoints_exact(self, a, b):
        assert cdf_beta(a, b, 0.0) == 0.0
        assert cdf_beta(a, b, 1.0) == 1.0

    def test_keeps_the_shape_of_its_input(self):
        y = np.array([[0.1, 0.9, 0.0], [0.5, 0.7, 1.0]])
        got = cdf_beta(2.0, 3.0, y)
        assert got.shape == y.shape
        assert np.array_equal(got.ravel(), cdf_beta(2.0, 3.0, y.ravel()))

    def test_interior_batch_equals_batch_with_endpoints(self):
        # the endpoints go through the same formulas: front is 0 there.
        # x = 0 is the end of the lower side, x = 1 that of the upper side
        y = np.random.default_rng(5).random(1000)
        for a, b in [(0.5, 0.5), (2.5, 3.5)]:
            lower, upper = _beta_law(a, b)
            above = y >= lower.split
            for side, u in ((lower, y[~above]), (upper, 1.0 - y[above])):
                tail, front = side.tail(u)
                tail_ends, front_ends = side.tail(np.append(0.0, u))
                assert np.array_equal(tail_ends[1:], tail) and np.array_equal(front_ends[1:], front)
                assert (tail_ends[0], front_ends[0]) == (0.0, 0.0)
            cdf_ends = _beta_kernel(lower, upper, np.concatenate(([0.0], y, [1.0])))
            assert np.array_equal(cdf_ends[1:-1], _beta_kernel(lower, upper, y))
            assert np.array_equal(cdf_ends[[0, -1]], [0.0, 1.0])

    @pytest.mark.parametrize("a, b", [(1e-16, 1.0), (1.0, 1e-16), (1e-300, 2.5), (2.5, 1e-300)])
    def test_stays_inside_the_unit_interval_for_tiny_shapes(self, a, b):
        # ln a + ln B(a, b), with ln B ~ -ln a, carried its rounding, up to
        # 8e-14 at a = 1e-300, into the front factor: uncapped, a side's tail
        # rose above 1, and the CDF above 1 below the split or below 0 above it
        y = np.concatenate([
            np.linspace(0.0, 1.0, 100_001), np.logspace(-300, -1, 2000), 1.0 - np.logspace(-16, -1, 2000),
        ])
        for values in (cdf_beta(a, b, y), DistSpec("beta", a, b).cdf()(y)):
            assert values.min() >= 0.0 and values.max() <= 1.0

    @pytest.mark.parametrize("a, b", [(1e-15, 1.0), (1e-300, 2.5), (1e-300, 1e-300)])
    def test_monotone_for_tiny_shapes(self, a, b):
        # with ln(a B(a, b)) formed as ln a + ln B(a, b), the CDF dipped by
        # 7.1e-15, 3.4e-14 and 7.9e-14 on these points, the last across the
        # split, and its iterates rose above 1 by as much
        split = _beta_law(a, b)[0].split
        y = np.sort(np.concatenate([
            np.random.default_rng(0).random(1_000_000), [0.0, 5e-324, 1.0], np.logspace(-300, -1, 2000),
            1.0 - np.logspace(-16, -1, 2000), np.clip(split * (1.0 + np.arange(-2000, 2001) * 2.0**-53), 0.0, 1.0),
        ]))
        assert np.max(-np.diff(cdf_beta(a, b, y))) <= 1e-15
        # one step stays inside [0, 1]; the second step's sum D1(lo) + 1 -
        # D1(hi) adds rounding of its own near 1, up to 2 eps
        y = np.linspace(0.0, 1.0, 100_001)
        for r in (3.7, 4.0):
            one, two = (iterate_pushforward(DistSpec("beta", a, b).cdf(), r, n)(y) for n in (1, 2))
            assert one.max() <= 1.0 and two.max() <= 1.0 + 2.0 * np.finfo(float).eps

    @pytest.mark.parametrize("a, b, expected", [(1e17, 1.0, [0.0, 0.0, 1.0]), (1.0, 1e17, [1.0, 1.0, 1.0])])
    def test_a_split_that_rounds_to_one(self, a, b, expected):
        # (1e17 + 1) / (1e17 + 3) rounds to 1: that side has no finite span
        # in s = -ln(1 - u), and takes the continued fraction
        assert _beta_law(max(a, b), min(a, b))[0].split == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(cdf_beta(a, b, [0.3, 0.999999, 1.0]), expected)

    @pytest.mark.parametrize("a, y", [(1e300, [0.3, 0.999999, 1.0]), (1e307, [1e-300])])
    def test_overflowing_continued_fraction_raises_without_a_warning(self, a, y):
        # at alpha = 1e300 the continued fraction's coefficients overflow to
        # inf / inf, which leaked NumPy warnings before the ConvergenceError;
        # at 1e307 so does alpha ln y in the front factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="overflow"):
                cdf_beta(a, 2.0, y)

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (0.05, 1e4), (1000.0, 0.5)])
    def test_mirrored_laws_share_their_sides(self, a, b):
        # the side of beta(a, b) above its split is that of beta(b, a)
        # below its own, fitted once for both
        assert _beta_law(a, b)[1] is _beta_law(b, a)[0]
        assert _beta_law(a, b)[0] is _beta_law(b, a)[1]
        assert _beta_law(a, a)[0] is _beta_law(a, a)[1]

    def test_nonconvergence_raises(self, monkeypatch):
        # the side of (0.05, 1e4) above its split takes the fallback; its
        # sides are fitted and cached before the fraction is starved
        assert _beta_law(0.05, 1e4)[1].coef is None
        # starve the continued fraction of iterations; a silent wrong
        # value here would poison every downstream comparison
        monkeypatch.setattr(distributions, "_BETA_CF_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            _beta_continued_fraction(0.5, 0.5, np.array([0.3]), 1e-12)
        with pytest.raises(ConvergenceError):
            cdf_beta(0.05, 1e4, 0.5)
        # a side whose samples do not converge gets no series
        assert distributions._chebyshev_fit(2.5, 3.5, -math.log1p(-3.5 / 8.0)) is None

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (3.5, 2.5), (0.5, 0.5), (1000.0, 1000.0)])
    def test_one_sided_batch_runs_only_its_side(self, a, b, monkeypatch):
        # a batch wholly below the split (with x = 0) or wholly at and above
        # it (with the split and x = 1) runs one side's series, at
        # ln(1 - u) = ln(1 - x) or ln x: no call of the other side on an
        # empty array
        lower, upper = _beta_law(a, b)
        h = distributions._Side.h
        calls = []

        def spy(side, u):
            calls.append((side, u.copy()))
            return h(side, u)

        monkeypatch.setattr(distributions._Side, "h", spy)
        below = np.linspace(0.0, lower.split, 9, endpoint=False)
        above = np.linspace(lower.split, 1.0, 9)
        with np.errstate(divide="ignore"):
            ln_1mu = (np.log1p(-below), np.log(above))
        for side, x, u in ((lower, below, ln_1mu[0]), (upper, above, ln_1mu[1])):
            calls.clear()
            cdf_beta(a, b, x)
            assert len(calls) == 1 and calls[0][0] is side and np.array_equal(calls[0][1], u)

    @pytest.mark.parametrize("a, b", CHEBYSHEV_SHAPES)
    @given(st.data())
    def test_value_alone_equals_value_in_any_batch(self, a, b, data):
        # Clenshaw does the same operations for every point, so no value
        # depends on what else is evaluated with it, and a batch wholly on
        # one side of the split, which skips the split, gives the same bits
        split = _beta_law(a, b)[0].split
        points = data.draw(st.sampled_from([
            unit_floats, st.floats(min_value=0.0, max_value=split, exclude_max=True),
            st.floats(min_value=split, max_value=1.0),
        ]))
        batch = data.draw(st.lists(points, min_size=1, max_size=64))
        i = data.draw(st.integers(min_value=0, max_value=len(batch) - 1))
        alone = cdf_beta(a, b, np.array([batch[i]]))
        assert np.array_equal(cdf_beta(a, b, np.array(batch))[[i]], alone)
        assert np.array_equal(DistSpec("beta", a, b).cdf()(np.array(batch))[[i]], alone)

    @pytest.mark.parametrize("a, b", CHEBYSHEV_SHAPES + [(1000.0, 1000.0)])
    def test_every_side_is_a_chebyshev_series(self, a, b):
        lower, upper = _beta_law(a, b)
        assert lower.coef is not None and upper.coef is not None
        assert max(lower.coef.size, upper.coef.size) <= 80

    def test_series_in_s_are_short(self):
        # in s = -ln(1 - u) the sides of (2.5, 3.5) take 15 terms each;
        # in u they took 22 and 26
        assert max(side.coef.size for side in _beta_law(2.5, 3.5)) <= 16

    def test_few_sides_fall_back(self):
        # over geomspace(0.01, 1e4, 13)**2, counting each side of each law,
        # 38 sides take the continued fraction, where a fit in u left 50
        shapes = np.geomspace(0.01, 1e4, 13)
        assert sum(side.coef is None for a in shapes for b in shapes for side in _beta_law(a, b)) <= 40

    @pytest.mark.parametrize(
        "a, b", CHEBYSHEV_SHAPES + [(100.0, 100.0), (1000.0, 1000.0), (1000.0, 0.5), (0.5, 1000.0)]
    )
    def test_against_mpmath(self, a, b):
        # within 16 eps of the tail the evaluated side forms (F below the
        # split, 1 - F above), scaled by the condition number of the front
        # factor's exp: 1 + |a ln y| + |b ln(1-y)| + |ln B(a, b)|
        y, expected, side_tail = mpmath_betainc(a, b)
        got = cdf_beta(a, b, y)
        with np.errstate(divide="ignore", invalid="ignore"):
            condition = 1.0 + np.nan_to_num(np.abs(a * np.log(y)) + np.abs(b * np.log1p(-y)), posinf=0.0)
        condition += abs(_ln_beta(a, b))
        bound = 16 * np.finfo(float).eps * condition * side_tail
        assert np.all(np.abs(got - expected) <= np.maximum(bound, 0.5 * np.spacing(expected)))

    def test_continued_fraction_fallback_against_mpmath(self):
        # the upper side of (0.05, 1e4), the side of (1e4, 0.05) below its
        # split 0.9999: no Chebyshev series of degree 256 in s captures it,
        # so it takes the continued fraction, run to 1e-12
        a, b = 0.05, 1e4
        lower, upper = _beta_law(a, b)
        assert lower.coef is not None and upper.coef is None
        y, expected, _ = mpmath_betainc(a, b)
        assert np.max(np.abs(cdf_beta(a, b, y) - expected)) <= 1e-12

    @pytest.mark.parametrize("a, b", [(0.05, 1e4), (1e5, 50.0), (50.0, 1e5)])
    def test_continued_fraction_sides_against_the_series(self, a, b):
        # each continued-fraction side: the upper side of (0.05, 1e4) and
        # the side of (1e5, 50) below its split, as the lower side of
        # (1e5, 50) and the upper side of (50, 1e5).  mpmath.betainc cannot
        # reach the last two (NoConvergence), so the oracle is the series
        # of DLMF 8.17.8, at the mean +-8 sd and next to the split
        lower, upper = _beta_law(a, b)
        assert (lower.coef is None) != (upper.coef is None)
        split = lower.split
        sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
        y = np.clip(np.concatenate([
            a / (a + b) + np.linspace(-8.0, 8.0, 9) * sd,
            split * (1.0 + np.array([-1e-3, 1e-3])),
        ]), 0.0, 1.0)
        with mpmath.workdps(40):
            expected = np.array([float(mpmath_cdf(a, b, split, v)) for v in y])
        assert np.max(np.abs(cdf_beta(a, b, y) - expected)) <= 1e-12


large_shapes = st.floats(min_value=0.05, max_value=1e4)
# p in the lower tail down to 1e-300, and in the upper tail up to 1 - 2**-53
tail_probabilities = st.floats(min_value=-300.0, max_value=-0.3).flatmap(
    lambda e: st.sampled_from([10.0**e, 1.0 - max(10.0**e, 2.0**-53)])
)


def mpmath_cdf(a, b, split, x):
    """I_x(a, b) at the working precision, from the series of positive
    terms of DLMF 8.17.8 on the side of the split that x lies on: the
    series behind mpmath.betainc alternates, and fails to converge at
    (1e4, 1e4)."""

    def tail(p, q, u):
        p, q, u = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(u)
        return u**p * (1 - u) ** q / (p * mpmath.beta(p, q)) * mpmath.hyp2f1(p + q, 1, p + 1, u)

    if x <= split:
        return tail(a, b, x)
    return 1 - tail(b, a, 1 - mpmath.mpf(x))


class TestLogBeta:
    """ln B(a, b), which scales the front factor.  lgamma(a) + lgamma(b)
    - lgamma(a + b) cancels digits once a shape is large: it was 1.6e-12
    (7 ulps) off at (1000, 1000), 7.4e-12 at (7.9, 9000) and 1.8e-11 at
    (0.05, 1e4), against 40-digit mpmath."""

    @staticmethod
    def error(a, b):
        with mpmath.workdps(40):
            exact = mpmath.log(mpmath.beta(a, b))
            return float(abs(_ln_beta(a, b) - exact) / max(1, abs(exact)))

    @pytest.mark.parametrize(
        "a, b", [(1000.0, 1000.0), (8.0, 8.0), (8.0, 1e4), (4790.7411155106165, 512.365266581618),
                 (1e4, 1e4), (0.05, 1e4), (2.5, 1e4), (7.9, 9000.0), (20.0, 30.0)]
    )
    def test_against_mpmath(self, a, b):
        assert self.error(a, b) <= 2e-14

    @pytest.mark.parametrize("a, b", [(1000.0, 1000.0), (8.0, 8.0), (256.06, 36.2), (1e4, 8.0)])
    def test_within_two_ulps_when_both_shapes_are_large(self, a, b):
        with mpmath.workdps(40):
            exact = mpmath.log(mpmath.beta(a, b))
            assert abs(_ln_beta(a, b) - exact) <= 2 * np.spacing(abs(float(exact)))

    @given(large_shapes, large_shapes)
    def test_against_mpmath_when_a_shape_is_large(self, a, b):
        assume(max(a, b) >= 8.0)
        assert self.error(a, b) <= 2e-14

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (0.5, 0.5)])
    def test_small_shapes_keep_lgamma(self, a, b):
        # the difference of lgamma values is right to rounding there
        assert _ln_beta(a, b) == math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        assert self.error(a, b) <= 1e-15

    @pytest.mark.parametrize(
        "p, q", [(1e-300, 2.5), (1e-300, 1e-300), (1e-15, 1.0), (2.5, 1e-300), (1e-300, 1e4), (0.05, 1e4),
                 (2.5, 3.5), (0.999, 7.99), (7.9, 0.3), (1e4, 0.05), (1000.0, 1000.0)]
    )
    def test_p_times_beta_against_mpmath(self, p, q):
        # ln(p B(p, q)), the front factor's constant, within 1e-14 where
        # ln p + ln B(p, q) cancelled: by 6e-14 at p = 1e-300
        with mpmath.workdps(40):
            exact = mpmath.log(p * mpmath.beta(p, q))
            assert abs(distributions._ln_p_beta(p, q) - exact) <= 1e-14 * max(1.0, abs(float(exact)))

    def test_cdf_in_the_bulk_of_a_large_symmetric_law(self):
        # 8.6e-13 off with the lgamma difference; what remains is the
        # rounding of a ln y + b ln(1 - y) in the front factor
        a = b = 1000.0
        y = np.linspace(0.45, 0.55, 101)
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.betainc(a, b, 0, v, regularized=True)) for v in y])
        assert np.max(np.abs(cdf_beta(a, b, y) - exact)) <= 2e-13


def warm_tables(a, b):
    """Build the inverse tables of both sides of beta(a, b)."""
    lower, upper = _beta_law(a, b)
    return lower.inverse, upper.inverse


class TestBetaQuantile:
    @pytest.mark.parametrize("a, b", SHAPES)
    def test_matches_scipy(self, a, b):
        p = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        x = DistSpec("beta", a, b).quantile(p)
        assert np.max(np.abs(x - special.betaincinv(a, b, p))) <= 2e-12

    @pytest.mark.parametrize("a, b", SHAPES + [(0.05, 5.0)])
    def test_endpoints_exact(self, a, b):
        spec = DistSpec("beta", a, b)
        lo, hi = spec.quantile(0.0), spec.quantile(1.0)
        assert isinstance(lo, float) and isinstance(hi, float)
        assert (lo, hi) == (0.0, 1.0)
        assert np.array_equal(spec.quantile(np.array([1.0, 0.0, 0.5]))[:2], [1.0, 0.0])
        assert not np.signbit(spec.quantile(-0.0))

    @staticmethod
    def cdf_passes_per_draw(monkeypatch, a, b, n=10_000):
        warm_tables(a, b)  # built once per side: count the draws
        points = []
        original = distributions._Side.tail

        def counting(side, x):
            points.append(x.size)
            return original(side, x)

        monkeypatch.setattr(distributions._Side, "tail", counting)
        sample(DistSpec("beta", a, b), n, 2024)
        return sum(points) / n

    @pytest.mark.parametrize(
        "a, b, calls",
        [(2.5, 3.5, 4), (0.5, 0.5, 3), (0.05, 5.0, 4), (5.0, 0.2, 3), (20.0, 30.0, 4), (1000.0, 1000.0, 4),
         (0.05, 1e4, 5), (0.29, 5343.0, 5)],
    )
    def test_cdf_calls_per_table_build(self, monkeypatch, a, b, calls):
        # per side, one pass at the samples, then two or three Newton passes
        # over the knots, with one call to spare; with a call at the split and
        # a second pass of samples at uniform w these took 4 to 6 calls.  A
        # continued-fraction side (the upper sides of the last two) took 41
        # and 42 calls while Newton stopped at 1e-13 of x rather than of 1 - x
        original = distributions._Side.tail
        for side in _beta_law(a, b):
            count = []

            def counting(side, x):
                count.append(x.size)
                return original(side, x)

            monkeypatch.setattr(distributions._Side, "tail", counting)
            distributions._InverseTable(side)
            assert len(count) <= calls

    def test_cdf_passes_per_draw(self, monkeypatch):
        # started from the tail power laws, these draws took 4.2 passes each
        assert self.cdf_passes_per_draw(monkeypatch, 2.5, 3.5) <= 1.2

    @pytest.mark.parametrize("a, b", [(0.05, 5.0), (0.2, 5.0), (5.0, 0.05)])
    def test_cdf_passes_per_draw_on_a_power_law_tail(self, monkeypatch, a, b):
        # started at x = 1/2, the first two took 26.9 and 14.5 passes each;
        # a table with knots uniform in t left 37 % of (0.05, 5) unfinished
        assert self.cdf_passes_per_draw(monkeypatch, a, b) <= 1.2

    @pytest.mark.parametrize("a, b", [(0.05, 5.0), (0.2, 5.0)])
    def test_relative_error_in_the_lower_tail(self, a, b):
        # every quantile within 1e-12 of the root relative to x, or within
        # 1e-12 of the smallest normal float where x is subnormal or 0:
        # I at 40 digits brackets p between the two ends of that interval.
        # An absolute stop returned 4.5e-13 for every p below about 1e-12,
        # where the roots for (0.05, 5) at p = 0.01, 0.1, 0.2 are 1.3e-41,
        # 1.3e-21 and 1.4e-15.
        p = np.concatenate([np.logspace(-300, 0, 50), [0.01, 0.1, 0.2]])
        x = DistSpec("beta", a, b).quantile(p)
        slack = 1e-12 * np.maximum(x, np.finfo(float).tiny)
        with mpmath.workdps(40):
            for pi, lo, hi in zip(p, np.maximum(x - slack, 0.0), np.minimum(x + slack, 1.0)):
                assert mpmath.betainc(a, b, 0, lo, regularized=True) <= pi
                assert pi <= mpmath.betainc(a, b, 0, hi, regularized=True)

    @pytest.mark.parametrize("a, b", [(2.5, 3.5), (1000.0, 1000.0)])
    def test_complement_next_to_one(self, a, b):
        # above the split the root is found from 1 - p: comparing p with
        # I_x was 1.05e-6 off at (2.5, 3.5) and 9.6e-5 at (1000, 1000)
        p = np.concatenate([1.0 - np.logspace(-16, -1, 400), [1.0 - 2.0**-53, 1.0 - 5.6e-16]])
        x = DistSpec("beta", a, b).quantile(p)
        assert np.max(np.abs(x - special.betaincinv(a, b, p))) <= 2e-14

    @pytest.mark.parametrize("a, b", [(0.05, 15.0), (0.1, 30.0), (0.3, 90.0)])
    def test_just_above_a_small_split(self, a, b):
        # roots above the split are solved in 1 - x and stop at 1e-13 of it,
        # which is over 1e-12 of x where the split is below 0.1; Newton's
        # last step still leaves them at rounding level
        lower, upper = _beta_law(a, b)
        assert lower.coef is not None and upper.coef is not None and lower.split < 0.07
        mass = lower.inverse.mass
        p = mass + np.logspace(-16, -1, 400) * (1.0 - mass)
        x = DistSpec("beta", a, b).quantile(p)
        expected = special.betaincinv(a, b, p)
        assert np.max(np.abs(x / expected - 1.0)) <= 1e-12

    def test_subnormal_root_without_a_warning(self):
        # one root of these draws is 4.45e-320, where the density
        # front / (x (1 - x)) overflows to inf; its Newton step is then 0,
        # and the draws are those taken with warnings ignored
        a = b = 0.01
        p = np.random.default_rng(3).random(2000)
        spec = DistSpec("beta", a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = spec.quantile(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = spec.quantile(p)
        assert np.array_equal(x, expected)
        i = int(np.argmin(x))
        assert 0.0 < x[i] < np.finfo(float).tiny
        slack = 1e-12 * np.finfo(float).tiny
        with mpmath.workdps(40):
            assert mpmath.betainc(a, b, 0, x[i] - slack, regularized=True) <= p[i]
            assert p[i] <= mpmath.betainc(a, b, 0, x[i] + slack, regularized=True)

    def test_keeps_the_shape_of_its_input(self):
        p = np.array([[0.1, 0.2, 0.0], [0.3, 0.4, 1.0]])
        x = DistSpec("beta", 2.0, 3.0).quantile(p)
        assert x.shape == p.shape
        assert np.array_equal(x.ravel(), DistSpec("beta", 2.0, 3.0).quantile(p.ravel()))

    def test_domain(self):
        spec = DistSpec("beta", 2.5, 3.5)
        for bad in (-1e-9, 1.0 + 1e-9, float("nan")):
            with pytest.raises(DomainError):
                spec.quantile(bad)
        with pytest.raises(DomainError):
            spec.quantile(np.array([0.5, float("nan")]))

    def test_raises_past_pass_bound(self, monkeypatch):
        # never an unconverged value: a start from the table is not
        # returned before a CDF pass confirms it
        warm_tables(2.5, 3.5)
        monkeypatch.setattr(distributions, "_QUANTILE_MAX_PASSES", 0)
        with pytest.raises(ConvergenceError):
            DistSpec("beta", 2.5, 3.5).quantile(np.array([0.1, 0.7]))

    @settings(max_examples=30)
    @given(large_shapes, large_shapes, st.lists(tail_probabilities, min_size=1, max_size=6))
    def test_relative_error_in_both_tails_against_mpmath(self, a, b, p):
        # each x within 1e-12 of the root relative to x (to the smallest
        # normal float where x is subnormal or 0), in both tails and for
        # shapes from 0.05 to 1e4: I at 40 digits brackets p between the
        # two ends of that interval.  The continued fraction that a side
        # takes when no series fits it is itself ~2e-12 off (see
        # test_continued_fraction_side_limits_the_quantile), so the shapes
        # are those whose sides are both series.
        lower, upper = _beta_law(a, b)
        assume(lower.coef is not None and upper.coef is not None)
        p = np.array(p + [1e-300, 1.0 - 2.0**-53])
        x = DistSpec("beta", a, b).quantile(p)
        slack = 1e-12 * np.maximum(x, np.finfo(float).tiny)
        split = lower.split
        with mpmath.workdps(40):
            for pi, lo, hi in zip(p, np.maximum(x - slack, 0.0), np.minimum(x + slack, 1.0)):
                assert mpmath_cdf(a, b, split, lo) <= pi <= mpmath_cdf(a, b, split, hi)

    @pytest.mark.xfail(strict=True, reason="the continued-fraction side of (0.05, 1e4) is 3.4e-12 off")
    def test_continued_fraction_side_limits_the_quantile(self):
        # the upper side of (0.05, 1e4) takes the continued fraction, whose
        # 1 - I at the draw for p = 0.99 is 3.4e-12 off mpmath even when
        # run to rounding level; the draw lands 2.5e-12 from its root
        a, b, p = 0.05, 1e4, 0.99
        lower, upper = _beta_law(a, b)
        assert upper.coef is None
        x = DistSpec("beta", a, b).quantile(p)
        slack = 1e-12 * x
        with mpmath.workdps(40):
            assert mpmath_cdf(a, b, lower.split, x - slack) <= p <= mpmath_cdf(a, b, lower.split, x + slack)

    @pytest.mark.parametrize("a, b", CHEBYSHEV_SHAPES)
    @given(st.lists(unit_floats, min_size=1, max_size=64), st.data())
    def test_draw_alone_equals_draw_in_any_batch(self, a, b, batch, data):
        i = data.draw(st.integers(min_value=0, max_value=len(batch) - 1))
        spec = DistSpec("beta", a, b)
        assert np.array_equal(spec.quantile(np.array(batch))[[i]], spec.quantile(np.array([batch[i]])))

    @pytest.mark.parametrize("a, b", CHEBYSHEV_SHAPES)
    def test_blocks_do_not_move_a_draw(self, monkeypatch, a, b):
        # the same bits whole, in blocks, and in arbitrary splits, with one
        # block and with several
        lower, upper = _beta_law(a, b)
        assert lower.coef is not None and upper.coef is not None
        spec = DistSpec("beta", a, b)
        block = distributions._CACHE_BLOCK
        rng = np.random.default_rng(19)
        ps = [rng.random(n) for n in (1, block - 1, block, block + 1, 3 * block // 2 + 1, 100_000)]
        draws = [spec.quantile(p) for p in ps]
        for p, x in zip(ps, draws):
            cuts = np.sort(rng.integers(0, p.size + 1, 3))
            assert np.array_equal(np.concatenate([spec.quantile(part) for part in np.split(p, cuts)]), x)
        monkeypatch.setattr(distributions, "_CACHE_BLOCK", 2**30)
        for p, x in zip(ps, draws):
            assert np.array_equal(spec.quantile(p), x)

    def test_blocks_leave_no_short_remainder(self):
        # 2e4 draws as 16384 + 3616 points took 10 % longer than as one block
        block = distributions._CACHE_BLOCK
        for n in (0, 1, 20_000, block, 3 * block // 2 + 1, 100_000, 400_000):
            spans = distributions._blocks(n)
            assert [s.start for s in spans] == [0] + [s.stop for s in spans[:-1]]
            assert spans[-1].stop == n
            sizes = [s.stop - s.start for s in spans]
            assert max(sizes) - min(sizes) <= 1
            if n >= 0.75 * block:
                assert 0.75 * block <= min(sizes) and max(sizes) <= 1.5 * block

    def test_draws_hold_few_arrays(self, traced_peak):
        # whole, 4e5 draws held 24 sample-sized temporaries at once; in
        # blocks, with the roots in an array of their own, 3.0 arrays of n
        # doubles, and with each block's roots written back into the
        # uniform draws 1.95
        n = 400_000
        spec = DistSpec("beta", 2.5, 3.5)
        warm_tables(2.5, 3.5)
        assert traced_peak(lambda: sample(spec, n, 5)) <= 2.5 * (8 * n)


class TestDistSpec:
    def test_parse_families(self):
        assert DistSpec.parse("uniform").family == "uniform"
        assert DistSpec.parse("arcsine").family == "arcsine"
        spec = DistSpec.parse("beta:0.5,0.5")
        assert (spec.family, spec.alpha, spec.beta) == ("beta", 0.5, 0.5)
        spec = DistSpec.parse("kumaraswamy:1,0.5")
        assert (spec.family, spec.alpha, spec.beta) == ("kumaraswamy", 1.0, 0.5)

    def test_parse_rejects_garbage(self):
        for text in ("gamma:1", "beta", "beta:1", "beta:1,2,3", "beta:x,y", "uniform:1", "empirical"):
            with pytest.raises(ParameterError):
                DistSpec.parse(text)

    def test_shape_parameter_rules(self):
        with pytest.raises(ParameterError):
            DistSpec("uniform", alpha=1.0)
        with pytest.raises(ParameterError):
            DistSpec("beta", alpha=1.0)
        with pytest.raises(ParameterError):
            DistSpec("beta", alpha=-1.0, beta=2.0)
        with pytest.raises(ParameterError):
            DistSpec("uniform", samples=np.array([0.5]))

    def test_empirical_validation(self):
        with pytest.raises(ParameterError):
            DistSpec("empirical")
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=np.array([]))
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=np.array([0.5, 1.5]))
        spec = DistSpec("empirical", samples=np.array([0.8, 0.2, 0.4]))
        assert np.array_equal(spec.samples, [0.2, 0.4, 0.8])
        spec = DistSpec("empirical", samples=np.array([1.0, 0.5, -0.0]))
        assert np.array_equal(spec.samples, [0.0, 0.5, 1.0])

    def test_empirical_samples_are_copied(self):
        a = np.array([0.8, 0.2, 0.4, 0.6])
        spec = DistSpec("empirical", samples=a)
        assert np.array_equal(a, [0.8, 0.2, 0.4, 0.6])
        assert not np.shares_memory(spec.samples, a)
        ordered = np.sort(a)
        assert not np.shares_memory(DistSpec("empirical", samples=ordered).samples, ordered)

    @pytest.mark.parametrize("bad", [float("nan"), -1e-300, 1.0 + 2.0**-52, -float("inf"), float("inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_empirical_samples_outside_the_interval(self, bad, position):
        # the check reads the ends of the sorted samples; np.sort puts NaN last
        samples = np.insert(np.array([0.2, 0.6]), position, bad)
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=samples)
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=np.array([bad]))

    def test_labels(self):
        assert DistSpec.parse("beta:0.5,0.5").label == "beta(0.5,0.5)"
        assert DistSpec("uniform").label == "uniform"

    @pytest.mark.parametrize(
        "spec",
        [
            DistSpec("uniform"),
            DistSpec("arcsine"),
            DistSpec("beta", 2.0, 3.0),
            DistSpec("kumaraswamy", 0.5, 2.0),
            DistSpec("empirical", samples=np.linspace(0.1, 0.9, 33)),
        ],
        ids=lambda s: s.label,
    )
    def test_realized_cdf_is_valid(self, spec):
        F = spec.cdf()
        y = np.linspace(0.0, 1.0, 10_001)
        v = F(y)
        assert v[0] <= 1e-12 and v[-1] >= 1.0 - 1e-12
        assert np.all(np.diff(v) >= 0.0)
        assert v.min() >= 0.0 and v.max() <= 1.0

    def test_cdf_provenance(self):
        assert DistSpec("arcsine").cdf().provenance == "closed-form:arcsine"

    def test_quantile_beta(self):
        spec = DistSpec("beta", 2.0, 3.0)
        p = np.linspace(0.01, 0.99, 25)
        x = spec.quantile(p)
        assert np.max(np.abs(cdf_beta(2.0, 3.0, x) - p)) < 1e-9

    def test_quantile_empirical_rejected(self):
        spec = DistSpec("empirical", samples=np.array([0.5]))
        with pytest.raises(ParameterError):
            spec.quantile(0.5)


class TestEmpiricalCdf:
    def test_right_continuous_steps(self):
        F = DistSpec("empirical", samples=np.array([0.2, 0.4, 0.4, 0.8])).cdf()
        assert F(0.4) == 0.75
        assert F(0.3999) == 0.25
        assert F(0.1) == 0.0
        assert F(1.0) == 1.0

    def test_single_sample(self):
        F = DistSpec("empirical", samples=np.array([0.5])).cdf()
        assert F(0.5) == 1.0
        assert F(0.49) == 0.0


class TestSample:
    def test_deterministic(self):
        spec = DistSpec("kumaraswamy", 2.0, 3.0)
        assert np.array_equal(sample(spec, 1000, 5), sample(spec, 1000, 5))
        assert sample(spec, 1, 5)[0] == sample(spec, 1, 5)[0]

    def test_count_validation(self):
        with pytest.raises(ParameterError):
            sample(DistSpec("uniform"), 0, 1)

    @pytest.mark.parametrize(
        "spec",
        [
            DistSpec("uniform"),
            DistSpec("arcsine"),
            DistSpec("kumaraswamy", 0.5, 0.5),
            DistSpec("beta", 2.0, 3.0),
        ],
        ids=lambda s: s.label,
    )
    def test_samples_match_cdf(self, spec):
        n = 100_000
        x = sample(spec, n, 97)
        assert x.min() >= 0.0 and x.max() <= 1.0
        assert ks_statistic(DistSpec("empirical", samples=x), spec.cdf()) < ks_band(n, 0.95)

    def test_empirical_bootstrap(self):
        source = np.linspace(0.1, 0.9, 7)
        spec = DistSpec("empirical", samples=source)
        x = sample(spec, 500, 3)
        assert set(np.unique(x)).issubset(set(source))

    def test_power_transform_matches_beta(self):
        # X ~ Kumaraswamy(a, b) implies X**a ~ beta(1, b)
        n = 100_000
        x = sample(DistSpec("kumaraswamy", 0.5, 2.0), n, 42)
        ks = ks_statistic(DistSpec("empirical", samples=x**0.5), DistSpec("beta", 1.0, 2.0).cdf())
        assert ks < ks_band(n, 0.99)

    @pytest.mark.parametrize("spec", [DistSpec("uniform"), DistSpec("kumaraswamy", 2.0, 3.0)],
                             ids=["uniform", "kumaraswamy"])
    def test_closed_form_draws_are_inverted_in_place(self, traced_peak, spec):
        # the uniform draws become the sample: a copy of them held 2 arrays
        # of n doubles, and the Kumaraswamy quantile's temporaries 3
        n = 400_000
        sample(spec, 10, 5)
        assert traced_peak(lambda: sample(spec, n, 5)) <= 1.5 * (8 * n)

    @pytest.mark.parametrize("spec", [DistSpec("uniform"), DistSpec("arcsine"), DistSpec("kumaraswamy", 2.0, 3.0),
                                      DistSpec("beta", 2.5, 3.5)], ids=lambda s: s.label)
    def test_quantile_leaves_its_argument_alone(self, spec):
        # the draws of `sample` are inverted in place; the caller's p is not
        p = np.linspace(0.0, 1.0, 11)
        spec.quantile(p)
        assert np.array_equal(p, np.linspace(0.0, 1.0, 11))


class TestCdfWrapper:
    def test_scalar_and_array(self):
        F = DistSpec("arcsine").cdf()
        assert isinstance(F(0.5), float)
        out = F(np.array([0.0, 0.5, 1.0]))
        assert isinstance(out, np.ndarray) and out.shape == (3,)

    def test_validates_domain(self):
        F = Cdf(lambda arr: arr, "test")
        with pytest.raises(DomainError):
            F(1.5)
