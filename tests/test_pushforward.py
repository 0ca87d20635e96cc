"""The exact pushforward operator and its grid machinery.

Preimages are checked against polynomial root-finding, closed forms
against their algebraic expressions, and the two evaluation strategies
against each other.
"""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdfpush import (
    Cdf,
    DistSpec,
    DomainError,
    MonotonicityError,
    ParameterError,
    ResourceLimitError,
    cdf_kumaraswamy,
    convergence_table,
    ensemble_push,
    ergodic_empirical,
    iterate_pushforward,
    iterates,
    ks_band,
    preimage_pair,
    pushforward_cdf,
    run_verification,
    sample,
    standard_grid,
    sup_distance,
    trajectory,
    validate_map_param,
)
from cdfpush import cli
from cdfpush.pushforward import _pull

map_params = st.floats(min_value=0.1, max_value=4.0)
unit_floats = st.floats(min_value=0.0, max_value=1.0)


class TestMapParam:
    def test_accepts_boundary(self):
        assert validate_map_param(4.0) == 4.0
        assert validate_map_param(0.5) == 0.5

    # r/4 rounds to 0 for a subnormal r
    @pytest.mark.parametrize("bad", [0.0, -1.0, 4.5, float("nan"), float("inf"), 5e-324, 1e-320])
    def test_rejects(self, bad):
        with pytest.raises(ParameterError):
            validate_map_param(bad)


class TestStandardGrid:
    def test_shape_and_endpoints(self):
        g = standard_grid(8)
        assert g.shape == (9,)
        assert g[0] == 0.0 and g[-1] == 1.0
        assert np.all(np.diff(g) > 0.0)

    def test_uniform_in_arcsine_coordinate(self):
        g = standard_grid(64)
        u = DistSpec("arcsine").cdf()(g)
        assert np.max(np.abs(u - np.linspace(0.0, 1.0, 65))) < 1e-13

    def test_size_validation(self):
        with pytest.raises(ParameterError):
            standard_grid(1)


class TestPreimages:
    @staticmethod
    def half_width(r, y):
        # q = sqrt(1/4 - y/r), the distance of the upper preimage from 1/2
        return preimage_pair(r, y)[1] - 0.5

    def test_q_point_values(self):
        assert self.half_width(4.0, 0.0) == 0.5
        assert self.half_width(4.0, 0.75) == pytest.approx(0.25, abs=1e-15)
        assert self.half_width(2.0, 0.6) == 0.0

    @given(map_params, unit_floats)
    def test_q_range(self, r, y):
        q = self.half_width(r, y)
        assert 0.0 <= q <= 0.5

    def test_pair_point_values(self):
        lo, hi = preimage_pair(4.0, 1.0)
        assert (lo, hi) == (0.5, 0.5)
        lo, hi = preimage_pair(4.0, 0.0)
        assert (lo, hi) == (0.0, 1.0)
        lo, hi = preimage_pair(4.0, 0.75)
        assert lo == pytest.approx(0.25, abs=1e-15)
        assert hi == pytest.approx(0.75, abs=1e-15)

    @given(map_params, st.floats(min_value=1e-12, max_value=0.999))
    def test_pair_against_polynomial_roots(self, r, frac):
        # oracle: the preimages are the roots of r*x*(1-x) - y; stay off
        # the peak, where the nearly-double root degrades the eigenvalue
        # solver faster than the closed form
        y = frac * (r / 4.0)
        lo, hi = preimage_pair(r, y)
        roots = np.sort(np.roots([-r, r, -y]).real)
        assert lo == pytest.approx(roots[0], abs=1e-9)
        assert hi == pytest.approx(roots[1], abs=1e-9)

    @given(map_params, unit_floats)
    def test_pair_forward_consistency(self, r, y):
        lo, hi = preimage_pair(r, y)
        target = min(y, r / 4.0)
        assert r * lo * (1.0 - lo) == pytest.approx(target, abs=1e-12)
        assert r * hi * (1.0 - hi) == pytest.approx(target, abs=1e-12)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_small_y_no_cancellation(self):
        # the naive 1/2 - q form loses every significant digit here
        lo, _ = preimage_pair(4.0, 1e-300)
        assert lo == pytest.approx(0.25e-300, rel=1e-12)


class TestPushforward:
    def test_one_step_uniform_closed_form(self):
        pushed = pushforward_cdf(DistSpec("uniform").cdf(), 4.0)
        g = standard_grid(4096)
        assert np.max(np.abs(pushed(g) - (1.0 - np.sqrt(1.0 - g)))) <= 1e-12
        assert pushed(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_arcsine_is_fixed_point(self):
        A = DistSpec("arcsine").cdf()
        assert sup_distance(pushforward_cdf(A, 4.0), A, 4096) <= 1e-10

    @given(st.floats(min_value=0.5, max_value=16.0))
    def test_symmetric_beta_maps_to_beta_with_one_half(self, a):
        # x(1-x) = (1-s)/4 with s = (1-2x)^2 ~ beta(1/2, a) for x ~ beta(a, a),
        # so one step at r = 4 maps beta(a, a) to beta(a, 1/2).  Measured
        # on 4097 knots: 5.8e-14 at a = 1/2, 2.6e-14 up to a = 16.  Below
        # a = 1/2 the preimage's rounding next to 1 takes over (9.3e-13 at
        # a = 0.3), which this test does not cover.
        y = standard_grid(4096)
        pushed = pushforward_cdf(DistSpec("beta", a, a).cdf(), 4.0)(y)
        assert np.max(np.abs(pushed - DistSpec("beta", a, 0.5).cdf()(y))) <= 1e-13

    def test_atoms_map_to_the_image_law(self):
        # the image of a discrete law is the discrete law of its images; the
        # operator formula, which takes P(X > hi) where the image needs
        # P(X >= hi), read G(0.75) = 1/3 where the atoms 0.25 -> 0.75 and
        # 0.75 -> 0.75 give 2/3
        atoms = np.array([0.1, 0.3, 0.75])
        image = DistSpec("empirical", samples=4.0 * atoms * (1.0 - atoms)).cdf()
        pushed = pushforward_cdf(DistSpec("empirical", samples=atoms).cdf(), 4.0)
        y = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(pushed(y) - image(y))) <= 1e-12

    def test_an_iterate_of_atoms_pushes_on_as_its_law(self):
        # the iterate of an empirical base carries the empirical spec of its
        # pushed samples, so one more push goes through the image rule and
        # equals the base's depth-2 iterate bit for bit
        atoms = np.array([0.1, 0.3, 0.75])
        base = DistSpec("empirical", samples=atoms).cdf()
        once, twice = (iterate_pushforward(base, 4.0, n) for n in (1, 2))
        assert np.array_equal(once.spec.samples, np.sort(4.0 * atoms * (1.0 - atoms)))
        again = iterate_pushforward(once, 4.0, 1)
        y = np.sort(np.concatenate([twice.spec.samples, np.linspace(0.0, 1.0, 101)]))
        assert np.array_equal(again(y), twice(y))
        assert np.array_equal(again.spec.samples, twice.spec.samples)
        assert iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 1).spec is None

    @pytest.mark.xfail(strict=True, reason="a step CDF without a spec takes F(lo) + 1 - F(hi), P(X > hi)")
    def test_atoms_of_a_plain_step_cdf_map_to_the_image_law(self):
        # the same step CDF without its spec goes through the recursion,
        # which reads 1/3 at 0.75 where the image law gives 2/3
        atoms = np.array([0.1, 0.3, 0.75])
        plain = Cdf(DistSpec("empirical", samples=atoms).cdf().fn, "plain")
        assert iterate_pushforward(plain, 4.0, 1)(0.75) == pytest.approx(2.0 / 3.0)

    @given(
        st.lists(unit_floats, min_size=1, max_size=8),
        st.lists(st.integers(min_value=1, max_value=4), min_size=8, max_size=8),
        map_params,
        st.integers(min_value=0, max_value=40),
    )
    def test_empirical_base_is_the_law_of_its_pushed_samples(self, values, repeats, r, n):
        # repeated atoms, at every depth: "auto" and "exact" push the samples,
        # with the roundings of `ensemble_push`, past the exact depth limit too
        atoms = np.repeat(values, repeats[: len(values)])
        base = DistSpec("empirical", samples=atoms).cdf()
        pushed = [atoms]
        for _ in range(n):
            pushed.append(r * pushed[-1] * (1.0 - pushed[-1]))
        y = np.sort(np.concatenate([pushed[-1], np.linspace(0.0, 1.0, 65)]))
        rows = [np.searchsorted(np.sort(x), y, side="right") / x.size for x in pushed]
        for strategy in ("auto", "exact"):
            it = iterate_pushforward(base, r, n, strategy=strategy)
            assert it.strategy == "exact"
            assert np.array_equal(it(y), rows[-1])
        assert np.array_equal(iterates(base, r, n, y), np.array(rows))
        # a named grid strategy keeps the grid chain
        assert iterate_pushforward(base, r, n, strategy="grid").strategy == ("grid" if n else "exact")

    def test_exactly_one_above_peak(self):
        pushed = pushforward_cdf(DistSpec("uniform").cdf(), 2.0)
        y = np.array([0.5, 0.6, 0.9999, 1.0])
        assert np.all(pushed(y) == 1.0)

    @given(map_params)
    def test_image_support_shrinks(self, r):
        pushed = pushforward_cdf(DistSpec("uniform").cdf(), r)
        assert pushed(min(1.0, r / 4.0)) == 1.0

    @pytest.mark.parametrize(
        "spec",
        [
            DistSpec("uniform"),
            DistSpec("arcsine"),
            DistSpec("beta", 0.4, 2.5),
            DistSpec("kumaraswamy", 3.0, 0.7),
        ],
        ids=lambda s: s.label,
    )
    @pytest.mark.parametrize("r", [0.7, 2.0, 3.5, 4.0])
    def test_result_is_valid_cdf(self, spec, r):
        pushed = pushforward_cdf(spec.cdf(), r)
        y = standard_grid(2048)
        v = pushed(y)
        assert v[0] == 0.0 and v[-1] == 1.0
        assert np.all(np.diff(v) >= -1e-12)
        assert v.min() >= 0.0 and v.max() <= 1.0


class TestIterate:
    def test_zero_steps_is_identity(self):
        base = DistSpec("arcsine").cdf()
        it = iterate_pushforward(base, 4.0, 0)
        y = standard_grid(256)
        assert np.array_equal(it(y), base(y))
        assert it.strategy == "exact"
        assert it.provenance == base.provenance

    @pytest.mark.parametrize("strategy", ["auto", "exact", "grid"])
    def test_zero_steps_is_exact_on_every_strategy(self, strategy):
        # no step is taken, so no grid is built whatever was asked for
        base = DistSpec("beta", 2.5, 3.5).cdf()
        it = iterate_pushforward(base, 3.5, 0, strategy=strategy)
        assert it.strategy == "exact"
        assert it.fn is base.fn and it.provenance == base.provenance

    def test_one_step_matches_kumaraswamy(self):
        it = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 1)
        y = standard_grid(4096)
        assert np.max(np.abs(it(y) - cdf_kumaraswamy(1.0, 0.5, y))) <= 1e-12

    def test_two_steps_match_kumaraswamy(self):
        it = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 2)
        K = DistSpec("kumaraswamy", 0.5, 0.5).cdf()
        assert sup_distance(it, K, 4096) <= 1e-12

    def test_exact_depth_limit(self):
        with pytest.raises(ResourceLimitError):
            iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 13, strategy="exact")

    def test_auto_switches_to_grid(self):
        # a base the closed form does not serve
        base = DistSpec("kumaraswamy", 2.0, 3.0).cdf()
        it = iterate_pushforward(base, 4.0, 13)
        assert it.strategy == "grid"
        it = iterate_pushforward(base, 4.0, 12)
        assert it.strategy == "exact"

    def test_negative_steps_rejected(self):
        with pytest.raises(ParameterError):
            iterate_pushforward(DistSpec("uniform").cdf(), 4.0, -1)
        with pytest.raises(ParameterError):
            iterates(DistSpec("uniform").cdf(), 4.0, -1, standard_grid(8))

    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_strategies_agree(self, n):
        base = DistSpec("uniform").cdf()
        exact = iterate_pushforward(base, 4.0, n, strategy="exact")
        grid = iterate_pushforward(base, 4.0, n, strategy="grid")
        y = standard_grid(4096)
        assert np.max(np.abs(np.asarray(exact(y)) - np.asarray(grid(y)))) <= 1e-6

    def test_exact_provenance_nests_one_pushforward_per_step(self):
        it = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 2, strategy="exact")
        assert it.provenance == "pushforward[r=4](pushforward[r=4](closed-form:uniform))"

    def test_grid_strategy_support_shrinkage(self):
        it = iterate_pushforward(DistSpec("uniform").cdf(), 2.0, 3, strategy="grid")
        assert it(0.75) == 1.0 and it(0.5) == 1.0


def _counted(base, keep=np.size):
    """`base` rebuilt around an `fn` that records keep(arr) of each call,
    with no spec, so that the plan runs the recursion or the grid chain
    on it whatever law `base` is."""
    calls = []

    def counting_fn(arr):
        calls.append(keep(arr))
        return base.fn(arr)

    return dataclasses.replace(base, fn=counting_fn, spec=None), calls


class TestIterateContract:
    """Every iterate is a `Cdf` with a strategy, and it reaches its base
    only through the base's `fn`, so a base rebuilt around a counting
    `fn` sees every evaluation."""

    @pytest.mark.parametrize("n, strategy", [(0, "exact"), (3, "exact"), (13, "grid")])
    def test_iterate_is_a_cdf_with_its_strategy(self, n, strategy):
        it = iterate_pushforward(DistSpec("kumaraswamy", 2.0, 3.0).cdf(), 4.0, n)
        assert isinstance(it, Cdf)
        assert it.strategy == strategy

    def test_exact_path_calls_base_fn_once_per_level(self):
        # the 8 leaves of depth 3 hold far fewer than 2**14 points, so they
        # reach the base as one batch
        base = DistSpec("uniform").cdf()
        counted, calls = _counted(base)
        y = standard_grid(64)
        it = iterate_pushforward(counted, 4.0, 3)
        assert calls == []
        values = it(y)
        assert len(calls) == 1
        assert np.array_equal(values, iterate_pushforward(base, 4.0, 3, strategy="exact")(y))

    def test_grid_path_calls_base_fn_once_to_tabulate(self):
        base = DistSpec("uniform").cdf()
        counted, calls = _counted(base)
        it = iterate_pushforward(counted, 4.0, 13)
        assert calls == [standard_grid(4096).size]
        y = standard_grid(64)
        assert np.array_equal(it(y), iterate_pushforward(base, 4.0, 13, strategy="grid")(y))
        assert len(calls) == 1

    def test_iterates_hands_the_base_the_arrays_of_each_depth(self):
        # one traversal calls the base once per level, on exactly the
        # arrays that the separate evaluations of depths 0..3 hand it
        counted, calls = _counted(DistSpec("uniform").cdf(), keep=np.ndarray.tobytes)
        y = _kernel_grid(4.0)
        iterates(counted, 4.0, 3, y)
        together = sorted(calls)
        calls.clear()
        for n in range(4):
            iterate_pushforward(counted, 4.0, n)(y)
        assert len(together) == 4
        assert together == sorted(calls)

    def test_iterates_grid_tail_tabulates_the_base_once(self):
        counted, calls = _counted(DistSpec("uniform").cdf(), keep=np.ndarray.tobytes)
        y = _kernel_grid(4.0)
        iterates(counted, 4.0, 12, y)
        exact = calls.copy()
        calls.clear()
        iterates(counted, 4.0, 14, y)
        assert sorted(calls) == sorted(exact + [standard_grid(4096).tobytes()])


def _settled(raw):
    """The table the grid chain keeps of raw values at its knots: clipped to
    [0, 1], pinned to 0 and 1 at the ends, dips flattened by a running
    maximum."""
    values = np.clip(raw, 0.0, 1.0)
    values[0] = 0.0
    values = np.maximum.accumulate(values)
    values[-1] = 1.0
    return values


# a CDF that wobbles by less than the rounding slack on its flat top, so
# that at the knots it both dips and exceeds 1
NEARLY = Cdf(lambda arr: np.minimum(2.0 * arr, 1.0) + 5e-10 * np.sin(1e3 * arr), "test:nearly")


def _arcsine_coordinate(y):
    """(2/pi)*arcsin(sqrt(y)) as the angle of (sqrt(1 - y), sqrt(y))."""
    return (2.0 / np.pi) * np.arctan2(np.sqrt(y), np.sqrt(1.0 - y))


class _TableCdf:
    """A reference grid interpolant, written out on its own: a table of
    values at the knots, interpolated in the arcsine coordinate."""

    def __init__(self, grid, values):
        self.values = values
        self.u_knots = _arcsine_coordinate(grid)

    def __call__(self, y):
        arr = np.asarray(y, dtype=float)
        return np.interp(_arcsine_coordinate(arr), self.u_knots, self.values)


def _reference_tabulate(F, grid):
    values = np.asarray(F(grid), dtype=float)
    assert float(np.diff(values).min()) >= -1e-9
    return _TableCdf(grid, _settled(values))


def _retabulated_chain(F0, r, n):
    """n-fold re-tabulation of the exact one-step pushforward of the
    previous table, with the iterate set to 1 from the peak r/4 on."""
    grid = standard_grid(4096)
    table = _reference_tabulate(F0, grid)
    for _ in range(n):
        table = _reference_tabulate(pushforward_cdf(table, r), grid)

    def iterate(y):
        out = np.ones_like(y)
        mask = y < r / 4.0
        out[mask] = table(y[mask])
        return out

    return iterate


GRID_CHAIN_CASES = [
    ("uniform", 4.0, 13),
    ("uniform", 4.0, 14),
    ("uniform", 4.0, 40),
    ("beta:2.5,3.5", 3.5, 13),
    ("beta:2.5,3.5", 3.7, 16),
    ("kumaraswamy:2,3", 2.0, 20),
    ("arcsine", 3.9, 30),
    ("nearly", 4.0, 13),
    ("nearly", 3.5, 13),
]


class TestGridChain:
    """The grid strategy steps value arrays at fixed knots; it must agree
    bit for bit with re-tabulating the one-step operator n times."""

    @pytest.mark.parametrize("init, r, n", GRID_CHAIN_CASES)
    def test_matches_repeated_tabulation(self, init, r, n):
        base = NEARLY if init == "nearly" else DistSpec.parse(init).cdf()
        y = np.concatenate([standard_grid(4096), np.random.default_rng(n).random(20_000)])
        got = iterate_pushforward(base, r, n, strategy="grid")(y)
        assert np.array_equal(got, _retabulated_chain(base, r, n)(y))

    def test_settling_is_visible(self):
        # so that the "nearly" cases above see a dip flattened and a value
        # clipped when the base is tabulated
        raw = NEARLY(standard_grid(4096))
        assert -1e-9 < np.diff(raw).min() < 0.0
        assert 1.0 < raw.max() < 1.0 + 1e-9

    def test_dip_past_the_slack_raises(self):
        with pytest.raises(MonotonicityError):
            iterate_pushforward(Cdf(lambda arr: arr - 0.2 * np.sin(2.0 * np.pi * arr), "test"), 4.0, 13)


class TestPreimageIdentities:
    def test_halfangle_identity(self):
        # arcsin(sqrt(y)) = 2*arcsin(sqrt(x_lo)) for the lower preimage at r=4
        y = standard_grid(1000)[1:-1]
        lo, _ = preimage_pair(4.0, y)
        residual = np.max(np.abs(np.arcsin(np.sqrt(y)) - 2.0 * np.arcsin(np.sqrt(lo))))
        assert residual <= 1e-12

    def test_sqrt_gap_identity(self):
        # (sqrt(x_hi) - sqrt(x_lo))^2 = 1 - sqrt(y) at r=4
        y = standard_grid(1000)[1:-1]
        lo, hi = preimage_pair(4.0, y)
        residual = np.max(np.abs((np.sqrt(hi) - np.sqrt(lo)) ** 2 - (1.0 - np.sqrt(y))))
        assert residual <= 1e-12


EXACT_STARTS = [
    DistSpec("uniform"),
    DistSpec("arcsine"),
    DistSpec("kumaraswamy", 2.0, 3.0),
    DistSpec("beta", 2.5, 3.5),
]


def _kernel_grid(r):
    """Knots including 0, the peak r/4, points just above it, and 1."""
    y = np.append(standard_grid(256), [r / 4.0, np.nextafter(r / 4.0, 2.0)])
    return np.unique(np.clip(y, 0.0, 1.0))


class TestExactKernel:
    """The exact strategy of `iterate_pushforward` runs one depth-first
    recursion; it must agree bit for bit with composing the one-step
    operator, which validates and evaluates level by level."""

    @pytest.mark.parametrize("spec", EXACT_STARTS, ids=lambda s: s.label)
    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5, 2.0])
    def test_matches_composed_pushforward(self, spec, r):
        base = spec.cdf()
        y = _kernel_grid(r)
        composed = base
        for n in range(1, 9):
            composed = pushforward_cdf(composed, r)
            exact = iterate_pushforward(base, r, n, strategy="exact")
            assert np.array_equal(exact(y), composed(y)), n
            assert exact(0.3) == composed(0.3)
            assert isinstance(exact(0.3), float)

    @pytest.mark.parametrize("spec", EXACT_STARTS, ids=lambda s: s.label)
    @pytest.mark.parametrize("r", [4.0, 3.5])
    def test_one_step_is_the_operator_formula(self, spec, r):
        # G(y) = F(lo) + 1 - F(hi) below the peak, exactly 1 from it on,
        # with F called once on the lower preimages followed by the upper
        F = spec.cdf()
        y = _kernel_grid(r)
        below = y < r / 4.0
        lo, hi = preimage_pair(r, y[below])
        both = F(np.concatenate([lo, hi]))
        expected = np.ones_like(y)
        expected[below] = both[: lo.size] + 1.0 - both[lo.size :]
        assert np.array_equal(pushforward_cdf(F, r)(y), expected)

    @pytest.mark.parametrize("spec", EXACT_STARTS + [None], ids=lambda s: s.label if s else "callable")
    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5, 2.0])
    def test_one_step_is_the_exact_iterate(self, spec, r):
        F = spec.cdf() if spec else np.sqrt
        y = _kernel_grid(r)
        pushed = pushforward_cdf(F, r)
        exact = iterate_pushforward(F, r, 1, strategy="exact")
        assert np.array_equal(pushed(y), exact(y))
        assert pushed.provenance == exact.provenance
        assert pushed.strategy == "exact"
        tag = spec.cdf().provenance if spec else "callable"
        assert pushed.provenance == f"pushforward[r={r:g}]({tag})"

    def test_empty_input(self):
        exact = iterate_pushforward(DistSpec("beta", 2.5, 3.5).cdf(), 3.5, 6, strategy="exact")
        out = exact(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)
        for n in (0, 6, 14):
            assert iterates(DistSpec("beta", 2.5, 3.5).cdf(), 3.5, n, []).shape == (n + 1, 0)

    @pytest.mark.parametrize("spec", EXACT_STARTS, ids=lambda s: s.label)
    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5, 2.0])
    def test_iterates_rows_are_each_depth(self, spec, r):
        # n = 14 crosses the exact limit, so the last rows are grid rows
        base = spec.cdf()
        y = _kernel_grid(r)
        rows = iterates(base, r, 14, y)
        assert rows.shape == (15, y.size)
        for n, row in enumerate(rows):
            assert np.array_equal(row, iterate_pushforward(base, r, n)(y)), n

    @pytest.mark.parametrize("r", [4.0, 3.5])
    def test_iterates_never_write_into_what_the_base_returns(self, r):
        # bases that return their own input or a cached array, against
        # the copying uniform (as a plain callable, which the closed form
        # does not serve); a write into either would show in y or in the
        # second call
        y = _kernel_grid(r)
        kept = y.copy()
        cache = {}

        def cached(arr):
            return cache.setdefault(arr.tobytes(), arr.copy())

        expected = iterates(Cdf(np.copy, "test"), r, 14, y)
        for fn in (lambda arr: arr, cached, cached):
            assert np.array_equal(iterates(Cdf(fn, "test"), r, 14, y), expected)
        assert np.array_equal(y, kept)

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, float("nan"), float("inf")])
    def test_entry_checks_domain(self, bad):
        exact = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, 5, strategy="exact")
        with pytest.raises(DomainError):
            exact(bad)
        with pytest.raises(DomainError):
            exact(np.array([0.2, bad]))

    def test_matches_tent_map_closed_form(self):
        # Ulam-von Neumann: x = sin^2(pi*u/2) conjugates the map at r = 4
        # to the tent map, so D_n of the uniform is, with u = (2/pi)*arcsin(sqrt(y)),
        # 2*sin^2(pi*u/2^(n+1)) + sin(pi*u/2^n)*cot(pi/2^n)
        y = standard_grid(4096)
        u = (2.0 / np.pi) * np.arcsin(np.sqrt(y))
        base = DistSpec("uniform").cdf()
        for n in range(1, 13):
            closed = 2.0 * np.sin(np.pi * u / 2 ** (n + 1)) ** 2 + np.sin(np.pi * u / 2**n) / np.tan(np.pi / 2**n)
            exact = iterate_pushforward(base, 4.0, n, strategy="exact")
            assert np.max(np.abs(exact(y) - closed)) <= 1e-9, n


def _mp_tent_uniform(y, n):
    """D_n(y) of the uniform start at r = 4 in 40-digit arithmetic, from
    the tent-map closed form."""
    with mpmath.workdps(40):
        u = 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(mpmath.mpf(float(y))))
        if n == 0:
            return mpmath.mpf(float(y))
        a = mpmath.pi / mpmath.mpf(2) ** n
        return 2 * mpmath.sin(a * u / 2) ** 2 + mpmath.sin(a * u) * mpmath.cot(a)


def _mp_pushforward_uniform(y, n):
    """D_n(y) of the uniform start at r = 4 in 40-digit arithmetic, from
    the operator itself: F(lo) + 1 - F(hi) over the preimage tree."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(y))

        def pull(t, depth):
            if depth == 0:
                return t
            if t >= 1:
                return mpmath.mpf(1)
            q = mpmath.sqrt(mpmath.mpf(1) / 4 - t / 4)
            return pull(mpmath.mpf(1) / 2 - q, depth - 1) + 1 - pull(mpmath.mpf(1) / 2 + q, depth - 1)

        return pull(t, n)


def _tent_points():
    """Knots of the standard grid, random points, and points crowding
    both ends of [0, 1]."""
    rng = np.random.default_rng(1947)
    y = np.concatenate([
        standard_grid(1024),
        rng.random(200),
        10.0 ** rng.uniform(-300.0, -1.0, 50),
        1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 50),
    ])
    return np.sort(y)


def _longdouble_pull(F, r, n, arr):
    """D_n of F at arr from `_pull`'s preimage tree in np.longdouble: the
    preimages and F(lo) + 1 - F(hi) in extended precision, with F
    evaluated in float64 on the leaves and its values widened back."""
    t = np.asarray(arr, dtype=np.longdouble)
    if n == 0:
        return np.asarray(F(t.astype(float)), dtype=np.longdouble)
    out = np.ones_like(t)
    below = t < np.longdouble(r) / 4
    lo = t[below] / np.longdouble(r)
    hi = np.sqrt(0.25 - lo) + 0.5
    lo /= hi
    out[below] = _longdouble_pull(F, r, n - 1, lo) + 1 - _longdouble_pull(F, r, n - 1, hi)
    return out


class TestTentClosedForm:
    """"auto" evaluates the uniform start at r = 4 from the tent-map
    closed form at every depth; the recursion and the grid chain remain
    the strategies for every other base and on request."""

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 12, 13, 14, 40, 2000])
    def test_matches_high_precision(self, n):
        y = _tent_points()
        it = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, n)
        assert it.strategy == ("exact" if n == 0 else "closed-form")
        want = np.array([float(_mp_tent_uniform(v, n)) for v in y])
        assert np.max(np.abs(it(y) - want)) <= 4e-15

    @pytest.mark.xfail(strict=True, reason="the exact path rounds 1/4 - t/r next to the peak (ROADMAP item 3)")
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_exact_path_keeps_to_the_closed_form(self, n):
        # the closed form is held to 4e-15 of mpmath above; the recursion
        # is 7.6e-11, 7.7e-11 and 1.0e-9 off it at n = 4, 8 and 12, as one
        # ulp of 1/4 - t/r grows to eps/sqrt(1/4 - t/r) at the square root
        y = _tent_points()
        base = DistSpec("uniform").cdf()
        exact = iterate_pushforward(base, 4.0, n, strategy="exact")
        assert np.max(np.abs(exact(y) - iterate_pushforward(base, 4.0, n)(y))) <= 1e-13

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18, reason="np.longdouble is no wider than float64 here")
    def test_longdouble_tree_keeps_to_the_closed_form(self):
        # the tree in extended precision is 3.0e-15 off the closed form,
        # also in extended precision, at n = 8, where the float64
        # recursion is 1.0e-11 off: an oracle for the tree's rounding
        y = standard_grid(4096)
        pi = np.arccos(np.longdouble(-1.0))
        u = 2 / pi * np.arcsin(np.sqrt(y.astype(np.longdouble)))
        closed = 2 * np.sin(pi * u / 2**9) ** 2 + np.sin(pi * u / 2**8) / np.tan(pi / 2**8)
        shadow = _longdouble_pull(DistSpec("uniform").cdf(), 4.0, 8, y)
        assert np.max(np.abs(shadow - closed)) <= 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_is_the_operator(self, n):
        # the oracle of the test above against the defining recursion
        y = _tent_points()[::25]
        for v in y:
            assert abs(_mp_tent_uniform(v, n) - _mp_pushforward_uniform(v, n)) <= 1e-30

    @pytest.mark.parametrize("n", [1, 2, 13, 27, 28, 1023, 1024, 2000])
    def test_is_a_cdf_at_every_depth(self, n):
        rng = np.random.default_rng(n)
        y = np.sort(np.concatenate([
            rng.random(100_000),
            np.linspace(0.49, 0.51, 10_001),
            10.0 ** rng.uniform(-320.0, -1.0, 2000),
            1.0 - 10.0 ** rng.uniform(-17.0, -1.0, 2000),
            [0.0, 1.0],
        ]))
        y = np.clip(y, 0.0, 1.0)
        it = iterate_pushforward(DistSpec("uniform").cdf(), 4.0, n)
        values = it(y)
        assert values[0] == 0.0 and values[-1] == 1.0
        assert np.all(np.diff(values) >= 0.0)
        assert values.min() >= 0.0 and values.max() <= 1.0
        assert it(0.0) == 0.0 and it(1.0) == 1.0

    def test_deep_iterates_are_the_arcsine_coordinate(self):
        # D_n - u falls below rounding from n = 28 on; the closed form
        # then returns u, without forming pi/2**n, which underflows
        y = _tent_points()
        U = DistSpec("uniform").cdf()
        deep = iterate_pushforward(U, 4.0, 28)(y)
        for n in (29, 1075, 1076, 2000, 10**6):
            assert np.array_equal(iterate_pushforward(U, 4.0, n)(y), deep)
        assert not np.array_equal(iterate_pushforward(U, 4.0, 27)(y), deep)
        with mpmath.workdps(40):
            u = [float(2 / mpmath.pi * mpmath.asin(mpmath.sqrt(mpmath.mpf(float(v))))) for v in y]
        assert np.max(np.abs(deep - u)) <= 4e-15

    def test_iterates_rows_are_each_depth(self):
        U = DistSpec("uniform").cdf()
        y = _tent_points()
        rows = iterates(U, 4.0, 40, y)
        for n, row in enumerate(rows):
            it = iterate_pushforward(U, 4.0, n)
            assert np.array_equal(row, it(y)), n
            assert it.strategy == ("exact" if n == 0 else "closed-form")
        assert it.provenance == "tent-closed-form[r=4,n=40](closed-form:uniform)"

    def test_route_is_the_uniform_spec_at_r4_only(self):
        U = DistSpec("uniform").cdf()
        assert iterate_pushforward(U, 4.0, 5).strategy == "closed-form"
        assert iterate_pushforward(U, np.nextafter(4.0, 0.0), 5).strategy == "exact"
        assert iterate_pushforward(Cdf(np.copy, "test"), 4.0, 5).strategy == "exact"
        assert iterate_pushforward(DistSpec("arcsine").cdf(), 4.0, 5).strategy == "exact"
        # the named strategies stay the recursion and the grid chain
        assert iterate_pushforward(U, 4.0, 5, strategy="exact").strategy == "exact"
        assert iterate_pushforward(U, 4.0, 13, strategy="grid").strategy == "grid"

    @pytest.mark.parametrize("n", [1, 2, 13, 40])
    def test_route_follows_the_law_not_the_evaluator(self, n):
        # a base rebuilt around another `fn` keeps its spec and so its route
        U = DistSpec("uniform").cdf()
        wrapped = dataclasses.replace(U, fn=lambda arr: U.fn(arr))
        it = iterate_pushforward(wrapped, 4.0, n)
        assert it.strategy == "closed-form" and it.spec is None
        y = _tent_points()
        assert np.array_equal(it(y), iterate_pushforward(U, 4.0, n)(y))
        assert np.array_equal(iterates(wrapped, 4.0, n, y), iterates(U, 4.0, n, y))
        assert iterate_pushforward(wrapped, 4.0, 0).spec is U.spec
        assert iterate_pushforward(Cdf(np.copy, "test"), 4.0, n).strategy == ("grid" if n > 12 else "exact")
        # the strategy is a record: None on a spec's CDF, kept as the spec is
        assert U.strategy is None and dataclasses.replace(it, fn=np.copy).strategy == "closed-form"

    def test_right_past_depth_12_where_the_grid_chain_is_not(self):
        # the grid chain's 4097 knots cannot hold the deviation of D_13
        # from the arcsine law: it puts D_13 4.5e-13 from that law, where
        # the truth is 9.4e-9
        U = DistSpec("uniform").cdf()
        y = standard_grid(1024)
        want = np.array([float(_mp_tent_uniform(v, 13)) for v in y])
        closed = iterate_pushforward(U, 4.0, 13)(y)
        grid = iterate_pushforward(U, 4.0, 13, strategy="grid")(y)
        assert np.max(np.abs(closed - want)) <= 4e-15
        assert np.max(np.abs(grid - want)) > 1e-9


def _depth_first_preimages(t, rr):
    lo = t / rr
    hi = 0.25 - lo
    np.sqrt(hi, out=hi)
    hi += 0.5
    lo /= hi
    return lo, hi


def _depth_first_pull(F, rr, n, arr, rows=1):
    """The exact kernel written as a plain depth-first recursion: every
    node pulls its lower and its upper preimages back separately, so the
    base is called once per node that holds depth 0."""
    if n == 0:
        return np.asarray(F(arr), dtype=float)[np.newaxis]
    out = np.ones((rows,) + arr.shape)
    deeper = min(rows, n)
    if deeper < rows:
        out[0] = F(arr)
    below = arr < rr / 4.0
    if below.any():
        lo, hi = _depth_first_preimages(arr[below], rr)
        v = _depth_first_pull(F, rr, n - 1, lo, deeper) + 1.0
        v -= _depth_first_pull(F, rr, n - 1, hi, deeper)
        out[rows - deeper:, below] = v
    return out


LEVEL_STARTS = ["uniform", "arcsine", "kumaraswamy:2,3"]


class TestLevelBatches:
    """The exact kernel sends both preimage branches of a node down as
    one array while they hold at most 2**14 points.  It must agree with
    the depth-first recursion, exactly where the base is elementwise."""

    @pytest.mark.parametrize("init", LEVEL_STARTS)
    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5, 2.0])
    def test_matches_depth_first_recursion(self, init, r):
        # on 4097 points the pairs outgrow 2**14 points a few levels down,
        # except at r = 2, where every upper preimage lies above the peak
        # the base behind a plain callable: "auto" would serve the uniform
        # at r = 4 in closed form, where `iterates` must run the kernel
        base = DistSpec.parse(init).cdf()
        plain = Cdf(lambda arr: base.fn(arr), base.provenance)
        y = standard_grid(4096)
        assert np.array_equal(iterate_pushforward(base, r, 8, strategy="exact")(y),
                              _depth_first_pull(base.fn, r, 8, y)[0])
        assert np.array_equal(iterates(plain, r, 8, y), _depth_first_pull(base.fn, r, 8, y, rows=9))

    @pytest.mark.parametrize("r", [4.0, 3.7, 3.5, 2.0])
    def test_beta_is_within_its_batch_dependence(self, r):
        # the beta CDF comes from a Chebyshev series evaluated the same way
        # for every point, so it has no batch dependence left: the level
        # batches must not move its values either (the continued fraction
        # it replaced moved them by up to 4.8e-14)
        base = DistSpec("beta", 2.5, 3.5).cdf()
        y = standard_grid(4096)
        exact = iterate_pushforward(base, r, 8, strategy="exact")(y)
        assert np.array_equal(exact, _depth_first_pull(base.fn, r, 8, y)[0])
        assert np.array_equal(iterates(base, r, 8, y), _depth_first_pull(base.fn, r, 8, y, rows=9))

    @pytest.mark.parametrize("size", [4097, 20_000])
    @pytest.mark.parametrize("r", [4.0, 3.7])
    def test_batches_stay_under_the_cap(self, size, r):
        y = np.sort(np.random.default_rng(size).random(size))
        y[0], y[-1] = 0.0, 1.0
        cap = max(size, 2**14)
        counted, sizes = _counted(DistSpec("uniform").cdf())
        reference, leaves = _counted(DistSpec("uniform").cdf())
        for rows, run in ((1, lambda: iterate_pushforward(counted, r, 8)(y)),
                          (9, lambda: iterates(counted, r, 8, y))):
            sizes.clear()
            leaves.clear()
            run()
            _depth_first_pull(reference.fn, r, 8, y, rows)
            assert max(sizes) <= cap
            # the same points reach the base, in no more calls
            assert sum(sizes) == sum(leaves)
            assert len(sizes) <= len(leaves)

    def test_beta_call_count(self):
        # D_0..D_12 at r = 3.7 on 4097 knots, as `iterate --steps 12` builds
        # them: the depth-first recursion calls the base 1311 times, on
        # 1284 points on average
        counted, sizes = _counted(DistSpec("beta", 2.5, 3.5).cdf())
        reference, leaves = _counted(DistSpec("beta", 2.5, 3.5).cdf())
        y = standard_grid(4096)
        iterates(counted, 3.7, 12, y)
        _depth_first_pull(reference.fn, 3.7, 12, y, rows=13)
        assert (len(sizes), len(leaves)) == (148, 1311)
        assert sum(sizes) == sum(leaves) == 1_683_283


# past depth 12, below r = 4, "auto" hands every base but the uniform at
# r = 4 to the grid chain, which on 4097 knots in the arcsine coordinate
# puts these cells 1.3e-3 to 0.95 off the recursion.  At r = 2 it
# interpolates across the jump at the peak: at y = 0.4999 the uniform's
# D_13 reads 0.739, where the recursion reads 0.00104
GRID_CHAIN_OFF = pytest.mark.xfail(strict=True, reason="past depth 12 \"auto\" runs the grid chain")
AUTO_BASES = ("uniform", "beta:2.5,3.5", "kumaraswamy:2,3", "arcsine", "beta:0.7,2")
# n at each r: the recursion on 257 points takes about 1 ms at r = 2, up
# to 0.25 s at r = 3.74, 3.9 and 3.99, and 0.08-0.47 s at r = 3.83,
# n = 20, where beta:0.7,2 takes 0.68 s and waits for an ensemble oracle
# with the costlier cells
AUTO_DEPTHS = {2.0: (13, 16, 20), 3.2: (13, 16, 20), 3.5: (13, 16, 20), 3.56: (13, 16, 20), 3.7: (13, 16, 20),
               3.74: (13, 16, 20), 3.83: (13, 16, 20), 3.9: (13, 16), 3.99: (13,)}
AUTO_CELLS = [
    pytest.param(init, r, n, marks=GRID_CHAIN_OFF)
    for init in AUTO_BASES
    for r, depths in AUTO_DEPTHS.items()
    for n in depths
    if (init, r, n) != ("beta:0.7,2", 3.83, 20)
]


@pytest.mark.parametrize("init, r, n", AUTO_CELLS)
def test_auto_is_the_recursion_past_depth_12(init, r, n):
    # "auto" gives the recursion's values or refuses with a typed error
    base = DistSpec.parse(init).cdf()
    y = standard_grid(256) * (r / 4.0)
    try:
        got = iterate_pushforward(base, r, n)(y)
    except ResourceLimitError:
        return
    off = np.max(np.abs(got - _pull(base.fn, r, n, y)[0]))
    if not off <= 1e-12:
        # without a traceback: to show one, pytest parses this module
        # again for every failing cell, some 25 ms a cell
        pytest.fail(f'"auto" is {off:.2g} off the recursion', pytrace=False)


U = DistSpec("uniform").cdf()
Y = standard_grid(8)


# each count of the API, as a float (was truncated to an int before,
# silently changing the work done) and one below its minimum
COUNT_CASES = {
    "iterate-depth": (lambda: iterate_pushforward(U, 4.0, 2.7), "must be an integer"),
    "iterate-depth-str": (lambda: iterate_pushforward(U, 4.0, "3"), "must be an integer"),
    "iterates-depth": (lambda: iterates(U, 4.0, 2.0, Y), "must be an integer"),
    "scan-depth": (lambda: convergence_table(2.9), "must be an integer"),
    "grid-size": (lambda: standard_grid(4.7), "must be an integer"),
    "ensemble-steps": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1.5, 1000, 0), "must be an integer"),
    "ensemble-samples": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1, 1000.7, 0), "must be an integer"),
    "trajectory-steps": (lambda: trajectory(4.0, 0.3, 10.5), "must be an integer"),
    "trajectory-burn-in": (lambda: trajectory(4.0, 0.3, 10, burn_in=2.9), "must be an integer"),
    "ergodic-steps": (lambda: ergodic_empirical(4.0, 10_000.5, 100), "must be an integer"),
    "ks-band-samples": (lambda: ks_band(100.9), "must be an integer"),
    "sample-size": (lambda: sample(DistSpec("uniform"), 10.5, 0), "must be an integer"),
    "verify-samples": (lambda: run_verification(n_samples=1000.5), "must be an integer"),
    "ks-band-samples-below": (lambda: ks_band(0), "sample count must be >= 1; got 0"),
    "scan-depth-below": (lambda: convergence_table(1), "n_max must be >= 2; got 1"),
    "sample-size-below": (lambda: sample(DistSpec("uniform"), 0, 0), "sample count must be >= 1; got 0"),
    "grid-size-below": (lambda: standard_grid(1), "grid size must be >= 2; got 1"),
    "iterate-depth-below": (lambda: iterate_pushforward(U, 4.0, -1), "iteration count must be >= 0; got -1"),
    "iterates-depth-below": (lambda: iterates(U, 4.0, -1, Y), "iteration count must be >= 0; got -1"),
    "trajectory-steps-below": (lambda: trajectory(4.0, 0.3, 0), "steps must be >= 1; got 0"),
    "trajectory-burn-in-below": (lambda: trajectory(4.0, 0.3, 10, burn_in=-1), "burn_in must be >= 0; got -1"),
    "ensemble-samples-below": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1, 99, 0),
                               "n_samples must be >= 100; got 99"),
    "ensemble-steps-below": (lambda: ensemble_push(DistSpec("uniform"), 4.0, -1, 1000, 0),
                             "n_steps must be >= 0; got -1"),
    "ergodic-steps-below": (lambda: ergodic_empirical(4.0, 9_999, 100), "total_steps must be >= 10000; got 9999"),
    "verify-samples-below": (lambda: run_verification(n_samples=99), "n_samples must be >= 100; got 99"),
    "cli-steps-below": (lambda: cli.cmd_iterate(cli.build_parser().parse_args(["iterate", "--steps", "-1"])),
                        "iteration count must be >= 0; got -1"),
    # a seed is a count too: NumPy would raise its own ValueError or TypeError
    "sample-seed": (lambda: sample(DistSpec("uniform"), 10, 1.5), "seed must be an integer; got 1.5"),
    "sample-seed-str": (lambda: sample(DistSpec("uniform"), 10, "3"), "seed must be an integer; got '3'"),
    "sample-seed-below": (lambda: sample(DistSpec("uniform"), 10, -1), "seed must be >= 0; got -1"),
    "ensemble-seed": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1, 1000, 1.5), "seed must be an integer; got 1.5"),
    "ensemble-seed-str": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1, 1000, "3"),
                          "seed must be an integer; got '3'"),
    "ensemble-seed-below": (lambda: ensemble_push(DistSpec("uniform"), 4.0, 1, 1000, -1), "seed must be >= 0; got -1"),
    "ergodic-seed": (lambda: ergodic_empirical(4.0, 10_000, 100, 1.5), "seed must be an integer; got 1.5"),
    "ergodic-seed-str": (lambda: ergodic_empirical(4.0, 10_000, 100, "3"), "seed must be an integer; got '3'"),
    "ergodic-seed-below": (lambda: ergodic_empirical(4.0, 10_000, 100, -1), "seed must be >= 0; got -1"),
    "verify-seed": (lambda: run_verification(seed=1.5), "seed must be an integer; got 1.5"),
    "verify-seed-str": (lambda: run_verification(seed="3"), "seed must be an integer; got '3'"),
    "verify-seed-below": (lambda: run_verification(seed=-1), "seed must be >= 0; got -1"),
}


@pytest.mark.parametrize("call, message", COUNT_CASES.values(), ids=COUNT_CASES.keys())
def test_non_integral_count_raises(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def test_numpy_integer_counts_are_accepted():
    assert np.array_equal(standard_grid(np.int32(8)), Y)
    assert np.array_equal(iterate_pushforward(U, 4.0, np.int64(3))(Y), iterate_pushforward(U, 4.0, 3)(Y))
    assert np.array_equal(iterates(U, 4.0, np.uint8(2), Y), iterates(U, 4.0, 2, Y))
    assert np.array_equal(convergence_table(np.int64(2), 16)["n"], [0, 1, 2])


def test_numpy_integer_sample_counts_are_accepted():
    spec = DistSpec("uniform")
    assert np.array_equal(ensemble_push(spec, 4.0, 1, np.int64(1000), 0).samples,
                          ensemble_push(spec, 4.0, 1, 1000, 0).samples)
    assert np.array_equal(trajectory(4.0, 0.3, np.int32(10), burn_in=np.uint8(2)).states,
                          trajectory(4.0, 0.3, 10, burn_in=2).states)
    run = ergodic_empirical(4.0, np.int64(10_000), np.int16(100), seed=5)
    assert run.burn_in == 100 and type(run.burn_in) is int
    assert np.array_equal(run.empirical.samples, ergodic_empirical(4.0, 10_000, 100, seed=5).empirical.samples)
    assert ks_band(np.int64(100)) == ks_band(100)
    assert np.array_equal(sample(spec, np.int32(10), 0), sample(spec, 10, 0))
    assert run_verification(n_samples=np.int64(200), grid=64) == run_verification(n_samples=200, grid=64)
