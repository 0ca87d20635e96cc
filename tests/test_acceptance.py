"""Acceptance suite: the package's headline guarantees at pinned tolerances.

Each criterion prints one pass/fail line with the measured value and its
runtime (visible with `pytest -s`), then asserts.  Statistical criteria
use fixed seeds chosen once and never tuned per run.
"""

import json
import time

import numpy as np
import pytest

from cdfpush import (
    DistSpec,
    ergodic_empirical,
    iterate_pushforward,
    ks_band,
    ks_statistic,
    pushforward_cdf,
    standard_grid,
)
from cdfpush.cli import main
from cdfpush.verify import (
    arcsine_fixed_point_residual,
    beta_arcsine_residual,
    halfangle_identity_residual,
    one_step_uniform_residual,
    power_transform_ks,
    propagation_ks,
    sqrt_gap_identity_residual,
    two_step_uniform_residual,
)

KS_MATRIX_SEED_BASE = 2000
ERGODIC_SEEDS = range(10)


def cdf_violation(F, m: int) -> float:
    """Worst violation of CDF validity for F over the standard grid:
    endpoint deviation from 0 and 1, any decreasing step, and any
    excursion outside [0, 1]."""
    v = np.asarray(F(standard_grid(m)), dtype=float)
    worst_dip = max(0.0, -float(np.diff(v).min()))
    out_of_range = max(0.0, float(v.max()) - 1.0, -float(v.min()))
    return max(abs(float(v[0])), abs(float(v[-1]) - 1.0), worst_dip, out_of_range)


def report(number: int, name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {number:02d} {name}: {status} ({detail}; {elapsed:.2f}s < {budget:g}s)")
    assert ok, f"criterion {number:02d} {name}: {detail}"
    assert elapsed < budget, f"criterion {number:02d} exceeded {budget:g}s ({elapsed:.2f}s)"


def test_01_one_step_closed_form():
    t0 = time.perf_counter()
    value = one_step_uniform_residual(4.0, 4096)
    elapsed = time.perf_counter() - t0
    report(1, "one-step closed form", value <= 1e-12, f"sup={value:.3e} <= 1e-12", elapsed, 1.0)


def test_02_two_step_closed_form():
    t0 = time.perf_counter()
    value = two_step_uniform_residual(4.0, 4096)
    elapsed = time.perf_counter() - t0
    report(2, "two-step closed form", value <= 1e-12, f"sup={value:.3e} <= 1e-12", elapsed, 1.0)


def test_03_arcsine_fixed_point():
    t0 = time.perf_counter()
    value = arcsine_fixed_point_residual(4.0, 4096)
    elapsed = time.perf_counter() - t0
    report(3, "arcsine fixed point", value <= 1e-10, f"sup={value:.3e} <= 1e-10", elapsed, 1.0)


def test_04_beta_matches_arcsine():
    t0 = time.perf_counter()
    value = beta_arcsine_residual(1000)
    elapsed = time.perf_counter() - t0
    report(4, "beta(1/2,1/2) vs arcsine", value <= 1e-10, f"sup={value:.3e} <= 1e-10", elapsed, 1.0)


def test_05_propagation_ks_matrix():
    t0 = time.perf_counter()
    specs = [DistSpec("uniform"), DistSpec("arcsine"), DistSpec("kumaraswamy", 2.0, 3.0)]
    results = []
    case = 0
    for spec in specs:
        for r in (2.0, 3.5, 4.0):
            value, band = propagation_ks(spec, r, n=100_000, seed=KS_MATRIX_SEED_BASE + case)
            results.append((spec.label, r, value, band))
            case += 1
    elapsed = time.perf_counter() - t0
    worst = max(value for _, _, value, _ in results)
    band = results[0][3]
    ok = all(value < band for _, _, value, _ in results)
    report(5, "one-step ensembles track the operator (9 cases)", ok,
           f"worst KS={worst:.5f} < {band:.5f}", elapsed, 10.0)


def test_06_power_transform():
    t0 = time.perf_counter()
    value, band = power_transform_ks(alpha=0.5, beta=2.0, n=100_000, seed=42)
    elapsed = time.perf_counter() - t0
    report(6, "power transform maps Kumaraswamy onto beta", value < band,
           f"KS={value:.5f} < {band:.5f}", elapsed, 2.0)


def test_07_ergodic_orbits():
    t0 = time.perf_counter()
    arcsine = DistSpec("arcsine").cdf()
    values = []
    for seed in ERGODIC_SEEDS:
        run = ergodic_empirical(4.0, 1_000_000, 1000, seed=seed)
        values.append(ks_statistic(run.empirical, arcsine))
    elapsed = time.perf_counter() - t0
    good = sum(v <= 0.01 for v in values)
    report(7, "long orbits match the arcsine law", good >= 9,
           f"{good}/10 seeds with KS <= 0.01 (worst {max(values):.5f})", elapsed, 10.0)


def test_08_figure_output(tmp_path):
    t0 = time.perf_counter()
    target = tmp_path / "figure.json"
    code = main(["figure", "--format", "json", "--out", str(target)])
    data = json.loads(target.read_text())
    cols = {name: np.array(values) for name, values in data["columns"].items()}
    exact_start = data["columns"]["D0"] == data["columns"]["U"]
    sup_d2 = float(np.max(np.abs(cols["D2"] - cols["K"])))
    sups_to_b = [float(np.max(np.abs(cols[f"D{n}"] - cols["B"]))) for n in (2, 3, 4)]
    decreasing = sups_to_b[0] > sups_to_b[1] > sups_to_b[2]
    elapsed = time.perf_counter() - t0
    ok = code == 0 and exact_start and sup_d2 <= 1e-10 and decreasing
    report(8, "figure table reproduces the closed forms", ok,
           f"D0==U {exact_start}, sup|D2-K|={sup_d2:.2e}, |Dn-B|={['%.4f' % s for s in sups_to_b]}",
           elapsed, 5.0)


def test_09_preimage_identities():
    t0 = time.perf_counter()
    half = halfangle_identity_residual(1000)
    gap = sqrt_gap_identity_residual(1000)
    elapsed = time.perf_counter() - t0
    ok = half <= 1e-12 and gap <= 1e-12
    report(9, "preimage identities on the interior grid", ok,
           f"halfangle={half:.3e}, sqrt-gap={gap:.3e} <= 1e-12", elapsed, 1.0)


def test_10_randomized_pushforward_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(50):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            spec = DistSpec("uniform")
        elif kind == 1:
            spec = DistSpec("arcsine")
        elif kind == 2:
            spec = DistSpec("beta", float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.3, 4.0)))
        else:
            spec = DistSpec("kumaraswamy", float(rng.uniform(0.3, 4.0)), float(rng.uniform(0.3, 4.0)))
        r = float(rng.uniform(0.25, 4.0))
        F = spec.cdf()
        if rng.random() < 0.3:
            F = iterate_pushforward(F, float(rng.uniform(0.25, 4.0)), int(rng.integers(1, 3)))
        worst = max(worst, cdf_violation(pushforward_cdf(F, r), 10_000))
    elapsed = time.perf_counter() - t0
    report(10, "randomized pushforwards stay valid CDFs", worst <= 1e-9,
           f"worst violation={worst:.3e} <= 1e-9 over 50 cases", elapsed, 30.0)
