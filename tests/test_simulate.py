"""Orbit simulation and Monte Carlo ensembles."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdfpush import (
    DistSpec,
    DomainError,
    ParameterError,
    ensemble_push,
    ergodic_empirical,
    ks_band,
    ks_statistic,
    sample,
    trajectory,
)
from cdfpush.distributions import _CACHE_BLOCK
from cdfpush.simulate import _BLOCK, _FILL_ROWS, DEGENERATE_SPAN, DEGENERATE_WINDOW, ERGODIC_X0_RANGE

map_params = st.floats(min_value=0.1, max_value=4.0)
TINY = float(np.finfo(float).tiny)  # the least r the map accepts
unit_floats = st.floats(min_value=0.0, max_value=1.0)


class TestLogisticStep:
    """One step x -> r*x*(1-x), taken by `trajectory` for one point and
    by `ensemble_push` for a whole sample."""

    @staticmethod
    def step(r, x):
        return float(trajectory(r, x, 1, burn_in=0).states[0])

    def test_point_values(self):
        assert self.step(4.0, 0.5) == 1.0
        assert self.step(4.0, 0.0) == 0.0
        assert self.step(4.0, 1.0) == 0.0
        assert self.step(2.0, 0.5) == 0.5

    def test_vectorized(self):
        spec = DistSpec("empirical", samples=np.array([0.0, 0.25, 0.5, 1.0]))
        pushed = ensemble_push(spec, 4.0, 1, 400, 0).samples
        assert set(np.unique(pushed)) == {0.0, 0.75, 1.0}
        x = sample(spec, 400, 0)
        assert np.array_equal(pushed, np.sort(4.0 * x * (1.0 - x)))

    @given(map_params, unit_floats)
    def test_range(self, r, x):
        y = self.step(r, x)
        assert 0.0 <= y <= r / 4.0 + 1e-16

    def test_domain(self):
        with pytest.raises(DomainError):
            trajectory(4.0, 1.5, 1)
        with pytest.raises(ParameterError):
            trajectory(5.0, 0.5, 1)
        with pytest.raises(ParameterError):
            ensemble_push(DistSpec("uniform"), 5.0, 1, 100, 0)


class TestTrajectory:
    def test_fixed_point_is_degenerate(self):
        # 3/4 solves 4*x*(1-x) = x, so the orbit never moves
        run = trajectory(4.0, 0.75, 200, burn_in=0)
        assert np.all(run.states == 0.75)
        assert run.degenerate

    def test_absorption_at_zero(self):
        run = trajectory(4.0, 1.0, 50, burn_in=0)
        assert np.all(run.states == 0.0)
        assert run.degenerate

    def test_chaotic_orbit_not_degenerate(self):
        run = trajectory(4.0, 0.123, 10_000, burn_in=100)
        assert not run.degenerate
        assert run.states.min() >= 0.0 and run.states.max() <= 1.0
        assert run.n == 10_000

    def test_recurrence_is_exact(self):
        run = trajectory(3.7, 0.2, 500, burn_in=3)
        x = run.states
        assert np.array_equal(x[1:], 3.7 * x[:-1] * (1.0 - x[:-1]))

    @staticmethod
    def plain_loop(r, x0, steps, burn_in):
        x = x0
        for _ in range(burn_in):
            x = r * x * (1.0 - x)
        states = []
        for _ in range(steps):
            x = r * x * (1.0 - x)
            states.append(x)
        return np.array(states)

    @pytest.mark.parametrize("burn_in", [0, 1000])
    @pytest.mark.parametrize("r", [4.0, 3.7, 2.0, 3.83, TINY])
    def test_states_are_the_plain_loop(self, r, burn_in):
        # the edges of the blocks of _BLOCK states, of the fill's chunks of
        # _FILL_ROWS blocks and of the scalar tail after them; the starts 0, 1/2,
        # 1 and 5e-324 and r = TINY reach 1, 0 and subnormal states
        chunk = _FILL_ROWS * _BLOCK
        edges = (_BLOCK - 1, _BLOCK, _BLOCK + 1, chunk - 1, chunk, chunk + _BLOCK + 1, 20_017)
        cases = [(0.3, 1), (0.3, 5000), (0.01, 5000), (0.77, 5000)] + [(0.3, n) for n in edges]
        cases += [(x0, 3 * _BLOCK + 5) for x0 in (0.0, 0.5, 1.0, 5e-324)]
        for x0, steps in cases:
            run = trajectory(r, x0, steps, burn_in=burn_in)
            assert run.states.dtype == np.float64
            assert np.array_equal(run.states, self.plain_loop(r, x0, steps, burn_in))

    @given(st.floats(min_value=TINY, max_value=4.0), unit_floats, st.integers(1, 3 * _BLOCK))
    def test_any_short_orbit_is_the_plain_loop(self, r, x0, steps):
        assert np.array_equal(trajectory(r, x0, steps, burn_in=0).states, self.plain_loop(r, x0, steps, 0))

    def test_holds_one_array_of_states(self, traced_peak):
        # the states and the fill's work buffer of 512 KiB: no list of
        # states and no temporary of the orbit's size
        n = 2_000_000
        assert traced_peak(lambda: trajectory(4.0, 0.3, n, burn_in=0)) <= 8 * n + 2**20

    @pytest.mark.parametrize("steps", [1, 33, _BLOCK + 1])
    def test_hit_of_one_is_degenerate(self, steps):
        # 1/2 -> 1 -> 0, which is absorbing: with _BLOCK + 1 steps both hits
        # lie in the first filled block, with 1 or 33 steps in the scalar tail
        run = trajectory(4.0, 0.5, steps, burn_in=0)
        assert run.states[0] == 1.0 and np.all(run.states[1:] == 0.0)
        assert run.degenerate and run.period == 0

    @staticmethod
    def degenerate_by_extremes(r, states, period):
        # the flag as it was computed from a full read of the orbit
        tail = states[-DEGENERATE_WINDOW:]
        last = float(states[-1])
        return bool(
            period
            or states.min() == 0.0
            or states.max() == 1.0
            or (tail.size >= 2 and float(tail.max() - tail.min()) < DEGENERATE_SPAN)
            or r * last * (1.0 - last) == last
        )

    @pytest.mark.parametrize("burn_in", [0, 1000])
    @pytest.mark.parametrize("r", [4.0, 3.7, 3.83])
    def test_last_state_detects_endpoint_hits(self, r, burn_in):
        # 0 is absorbing and 1 maps to 0: the last state tells the flag that
        # the extremes of the whole orbit told
        for x0 in (0.5, 0.75, 0.3):
            for steps in (1, 2, 17, 33, 20_017):
                run = trajectory(r, x0, steps, burn_in=burn_in)
                assert run.degenerate == self.degenerate_by_extremes(r, run.states, run.period)

    def test_states_stay_in_time_order(self):
        run = trajectory(4.0, 0.3, 20_017)
        x = run.states
        assert np.array_equal(x[1:], 4.0 * x[:-1] * (1.0 - x[:-1]))
        assert np.any(np.diff(x) < 0.0)

    @pytest.mark.parametrize("r, period", [(3.2, 2), (3.5, 4), (3.83, 3)])
    def test_stable_cycle_flagged(self, r, period):
        # the orbit settles on the stable cycle and repeats it exactly; its
        # tail spread stays far above rounding and no state is a fixed point
        run = trajectory(r, 0.3, 20_000, burn_in=1000)
        assert run.degenerate and run.period == period
        tail = run.states[-100:]
        assert np.unique(tail).size == period
        assert tail.max() - tail.min() > 0.1

    @pytest.mark.parametrize("r", [3.7, 4.0])
    def test_chaotic_orbit_has_no_period(self, r):
        run = trajectory(r, 0.3, 100_000, burn_in=1000)
        assert not run.degenerate and run.period == 0

    def test_period_is_the_least(self):
        # a fixed point repeats with every period; it is reported as 1
        run = trajectory(2.0, 0.3, 1000, burn_in=1000)
        assert run.period == 1

    def test_stable_fixed_point_flagged(self):
        # r=2 contracts onto 1 - 1/r = 1/2
        run = trajectory(2.0, 0.3, 1000, burn_in=1000)
        assert run.degenerate
        assert run.states[-1] == pytest.approx(0.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            trajectory(4.0, 1.5, 10)
        with pytest.raises(ParameterError):
            trajectory(4.0, 0.5, 0)
        with pytest.raises(ParameterError):
            trajectory(4.0, 0.5, 10, burn_in=-1)


class TestEnsemblePush:
    def test_deterministic(self):
        spec = DistSpec("uniform")
        a = ensemble_push(spec, 4.0, 2, 1000, 7)
        b = ensemble_push(spec, 4.0, 2, 1000, 7)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_steps_matches_base(self):
        spec = DistSpec("kumaraswamy", 2.0, 3.0)
        emp = ensemble_push(spec, 4.0, 0, 100_000, 9)
        assert ks_statistic(emp, spec.cdf()) < ks_band(100_000, 0.99)

    def test_two_steps_match_closed_form(self):
        # pushing uniform twice through the r=4 map lands on the
        # Kumaraswamy(1/2, 1/2) law
        emp = ensemble_push(DistSpec("uniform"), 4.0, 2, 100_000, 7)
        K = DistSpec("kumaraswamy", 0.5, 0.5).cdf()
        assert ks_statistic(emp, K) < ks_band(100_000, 0.99)

    @pytest.mark.parametrize("r", [4.0, 3.7])
    @pytest.mark.parametrize(
        "spec",
        [
            DistSpec("uniform"),
            DistSpec("beta", 2.5, 3.5),
            DistSpec("kumaraswamy", 2.0, 3.0),
            DistSpec("empirical", samples=np.linspace(0.0, 1.0, 101)),
        ],
        ids=lambda s: s.label,
    )
    def test_blocked_push_is_the_plain_loop(self, spec, r):
        # in place and in blocks, with the roundings of r * x * (1.0 - x)
        for n in (100, _CACHE_BLOCK - 1, _CACHE_BLOCK, _CACHE_BLOCK + 1, 3 * _CACHE_BLOCK // 2 + 1, 100_000):
            x = sample(spec, n, 11)
            for _ in range(3):
                x = r * x * (1.0 - x)
            assert np.array_equal(ensemble_push(spec, r, 3, n, 11).samples, np.sort(x))

    def test_push_holds_few_arrays(self, traced_peak):
        # out of place, with a sorted copy, this held 3.0 arrays of the sample
        n = 300_000
        spec = DistSpec("uniform")
        assert traced_peak(lambda: ensemble_push(spec, 4.0, 4, n, 2)) <= 2.5 * (8 * n)

    def test_sample_count_validation(self):
        with pytest.raises(ParameterError):
            ensemble_push(DistSpec("uniform"), 4.0, 1, 99, 0)
        with pytest.raises(ParameterError):
            ensemble_push(DistSpec("uniform"), 4.0, -1, 1000, 0)


class TestErgodicEmpirical:
    def test_matches_arcsine_at_r4(self):
        run = ergodic_empirical(4.0, 100_000, 1000, seed=0)
        assert not run.degenerate_attractor
        assert 0.01 <= run.x0 <= 0.99
        ks = ks_statistic(run.empirical, DistSpec("arcsine").cdf())
        assert ks <= 0.01

    def test_deterministic(self):
        a = ergodic_empirical(4.0, 10_000, 100, seed=5)
        b = ergodic_empirical(4.0, 10_000, 100, seed=5)
        assert np.array_equal(a.empirical.samples, b.empirical.samples)
        assert a.x0 == b.x0

    def test_two_seeds_agree_distributionally(self):
        a = ergodic_empirical(4.0, 100_000, 1000, seed=0)
        b = ergodic_empirical(4.0, 100_000, 1000, seed=1)
        assert ks_statistic(a.empirical, b.empirical.cdf()) <= 0.02

    def test_degenerate_attractor_below_r4(self):
        run = ergodic_empirical(2.0, 10_000, 1000, seed=3)
        assert run.degenerate_attractor
        # all mass at the stable fixed point 1/2
        assert run.empirical.cdf()(0.5) == 1.0
        assert run.empirical.cdf()(0.4999) == 0.0

    def test_step_count_validation(self):
        with pytest.raises(ParameterError):
            ergodic_empirical(4.0, 9_999, 100, seed=0)

    def test_samples_are_the_sorted_orbit(self):
        run = ergodic_empirical(3.7, 20_017, 100, seed=4)
        states = trajectory(3.7, run.x0, 20_017, burn_in=100).states
        assert np.array_equal(run.empirical.samples, np.sort(states))

    def test_retry_releases_the_collapsed_orbit(self, traced_peak):
        # the orbit from the first start of seed 3 falls onto 0 within its
        # 2e6 steps, so the run is retried; holding the collapsed orbit
        # while the retry ran peaked at two orbits
        steps = 2_000_000
        low, high = ERGODIC_X0_RANGE
        first = low + (high - low) * np.random.default_rng(3).random()
        runs = []
        peak = traced_peak(lambda: runs.append(ergodic_empirical(4.0, steps, 1000, seed=3)))
        assert runs[0].x0 != first and not runs[0].degenerate_attractor
        assert peak <= 1.25 * (8 * steps)

    @pytest.mark.parametrize("r, period", [(3.2, 2), (3.5, 4), (3.83, 3), (3.7, 0), (4.0, 0)])
    def test_cycles_are_degenerate_attractors(self, r, period):
        run = ergodic_empirical(r, 20_000, 1000, seed=0)
        assert run.degenerate_attractor == bool(period)
        assert run.period == period


class TestEmpiricalCdfType:
    def test_sorted_storage(self):
        emp = DistSpec("empirical", samples=np.array([0.9, 0.1, 0.5]))
        assert np.array_equal(emp.samples, [0.1, 0.5, 0.9])
        assert emp.samples.size == 3

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=np.array([]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            DistSpec("empirical", samples=np.array([0.5, 1.2]))
