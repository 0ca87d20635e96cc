"""The shared verification battery."""

import tracemalloc

import pytest

from cdfpush import DistSpec, ensemble_push, ks_statistic, run_verification
from cdfpush import pushforward, verify
from cdfpush.verify import power_transform_ks, propagation_ks, two_step_uniform_residual


class TestRunVerification:
    def test_all_pass_at_default_settings(self):
        checks = run_verification()
        assert checks, "battery must not be empty"
        failed = [c.name for c in checks if not c.passed]
        assert failed == []

    def test_names_unique_and_values_recorded(self):
        checks = run_verification(n_samples=2000)
        names = [c.name for c in checks]
        assert len(names) == len(set(names))
        assert all(c.value >= 0.0 and c.threshold > 0.0 for c in checks)

    def test_deterministic(self):
        a = run_verification(seed=3, n_samples=5000)
        b = run_verification(seed=3, n_samples=5000)
        assert [(c.name, c.value) for c in a] == [(c.name, c.value) for c in b]

    def test_closed_forms_fail_away_from_r4(self):
        # the closed-form identities are specific to r = 4; at another r
        # they must be reported as failures, not silently skipped
        checks = {c.name: c for c in run_verification(r=3.9, n_samples=2000)}
        assert not checks["one-step-closed-form"].passed
        assert not checks["two-step-kumaraswamy"].passed
        assert not checks["arcsine-fixed-point"].passed
        # the r-independent identities still hold
        assert checks["beta-matches-arcsine"].passed
        assert checks["halfangle-identity"].passed
        assert checks["sqrt-gap-identity"].passed


    def test_two_step_check_tests_the_operator(self, monkeypatch):
        # "auto" would take the closed form at r = 4, which a fault in the
        # operator cannot reach; the check must run the recursion
        exact = pushforward._preimages

        def perturbed(t, rr):
            pair = exact(t, rr)
            pair[0] *= 1.0 + 1e-9
            return pair

        assert two_step_uniform_residual() <= 1e-12
        monkeypatch.setattr(pushforward, "_preimages", perturbed)
        checks = {c.name: c for c in run_verification(n_samples=2000, grid=256)}
        assert not checks["two-step-kumaraswamy"].passed


class TestPropagationKs:
    @pytest.mark.parametrize("r,seed", [(2.0, 2006), (3.5, 2007), (4.0, 2008)])
    def test_below_band_for_every_r(self, r, seed):
        value, band = propagation_ks(DistSpec("kumaraswamy", 2.0, 3.0), r, n=100_000, seed=seed)
        assert value < band

    def test_reports_band(self):
        value, band = propagation_ks(DistSpec("uniform"), 4.0, n=10_000, seed=1)
        assert band == pytest.approx(1.63 / 100.0, rel=1e-12)
        assert 0.0 <= value < band

    @pytest.mark.parametrize("n, seed", [(10_000, 1), (400_000, 17)])
    def test_reference_is_the_exact_image(self, n, seed):
        # one step of the uniform at r = 4 is Kumaraswamy(1, 1/2) in closed
        # form; a tabulated reference sat about 5e-9 from it
        value, _ = propagation_ks(DistSpec("uniform"), 4.0, n=n, seed=seed)
        empirical = ensemble_push(DistSpec("uniform"), 4.0, 1, n, seed)
        closed = ks_statistic(empirical, DistSpec("kumaraswamy", 1.0, 0.5).cdf())
        assert abs(value - closed) <= 1e-12


class TestPowerTransformKs:
    def test_holds_no_second_sorted_copy(self, monkeypatch):
        # the transformed sample is sorted in place into the empirical spec:
        # while the KS statistic runs, the call holds one array of n
        # samples, where sorting a copy held two
        n = 400_000
        held = []
        statistic = verify.ks_statistic

        def measuring(empirical, F):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            return statistic(empirical, F)

        monkeypatch.setattr(verify, "ks_statistic", measuring)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            value, band = power_transform_ks(n=n, seed=4)
        finally:
            tracemalloc.stop()
        assert held[0] <= 1.25 * (8 * n)
        assert value < band

    def test_peak_is_below_three_arrays(self, traced_peak):
        # the Kumaraswamy quantile held the uniform draws, their negation and
        # its log1p at once, 3 arrays of n doubles; in place it holds one, and
        # the peak falls to the sort and the KS statistic's probes, about 1.6
        n = 400_000
        power_transform_ks(n=1000)
        assert traced_peak(lambda: power_transform_ks(n=n, seed=4)) <= 2.25 * (8 * n)
