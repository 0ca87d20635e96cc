"""Named verification checks shared by the CLI and the acceptance tests.

Each check compares an exact or statistical quantity against a fixed
threshold and reports the measured value, so a failing run shows how
far off it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import fixed_point_residual, ks_band, ks_statistic, sup_distance
from .distributions import DistSpec, _arcsine_kernel, _count, _Owned, cdf_beta, sample
from .pushforward import (
    DEFAULT_GRID_SIZE,
    iterate_pushforward,
    preimage_pair,
    pushforward_cdf,
    standard_grid,
)
from .simulate import MIN_ENSEMBLE_SAMPLES, ensemble_push

__all__ = [
    "CheckResult",
    "arcsine_fixed_point_residual",
    "beta_arcsine_residual",
    "halfangle_identity_residual",
    "one_step_uniform_residual",
    "power_transform_ks",
    "propagation_ks",
    "run_verification",
    "sqrt_gap_identity_residual",
    "two_step_uniform_residual",
]

ONE_STEP_TOL = 1e-12
TWO_STEP_TOL = 1e-12
FIXED_POINT_TOL = 1e-10
BETA_ARCSINE_TOL = 1e-10
IDENTITY_TOL = 1e-12
IDENTITY_POINTS = 1000
DEFAULT_SAMPLES = 100_000


@dataclass(frozen=True)
class CheckResult:
    """One verification item: measured value against its threshold."""

    name: str
    value: float
    threshold: float
    passed: bool


def _check(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, float(value), float(threshold), bool(value <= threshold))


def one_step_uniform_residual(r: float = 4.0, m: int = DEFAULT_GRID_SIZE) -> float:
    """Sup distance of the one-step pushforward of the uniform CDF from
    1 - sqrt(1 - y), its closed form at r = 4."""
    grid = standard_grid(m)
    pushed = pushforward_cdf(DistSpec("uniform").cdf(), r)
    return float(np.max(np.abs(np.asarray(pushed(grid)) - (1.0 - np.sqrt(1.0 - grid)))))


def two_step_uniform_residual(r: float = 4.0, m: int = DEFAULT_GRID_SIZE) -> float:
    """Sup distance of the two-step pushforward of the uniform CDF from
    the Kumaraswamy(1/2, 1/2) CDF, its closed form at r = 4.  The
    pushforward runs the exact recursion, which the "auto" strategy
    would replace by the tent-map closed form at r = 4, so that this
    checks the operator."""
    iterate = iterate_pushforward(DistSpec("uniform").cdf(), r, 2, strategy="exact")
    return sup_distance(iterate, DistSpec("kumaraswamy", 0.5, 0.5).cdf(), m)


def arcsine_fixed_point_residual(r: float = 4.0, m: int = DEFAULT_GRID_SIZE) -> float:
    """Sup distance between the arcsine CDF and its own pushforward;
    zero to rounding exactly at r = 4, where the arcsine law is invariant."""
    return fixed_point_residual(DistSpec("arcsine").cdf(), r, m)


def beta_arcsine_residual(points: int = IDENTITY_POINTS) -> float:
    """Sup distance between the beta(1/2, 1/2) CDF, evaluated as an
    incomplete beta function, and the closed-form arcsine CDF."""
    grid = standard_grid(points)
    return float(np.max(np.abs(cdf_beta(0.5, 0.5, grid) - DistSpec("arcsine").cdf()(grid))))


def halfangle_identity_residual(points: int = IDENTITY_POINTS) -> float:
    """Worst residual of u(y) = 2*u(x_lo(y)) over the interior of the unit
    interval, with u = (2/pi)*arcsin(sqrt(y)) the arcsine coordinate and
    x_lo the lower preimage at r = 4."""
    grid = standard_grid(points)[1:-1]
    lo, _ = preimage_pair(4.0, grid)
    return float(np.max(np.abs(_arcsine_kernel(grid) - 2.0 * _arcsine_kernel(lo))))


def sqrt_gap_identity_residual(points: int = IDENTITY_POINTS) -> float:
    """Worst residual of (sqrt(x_hi) - sqrt(x_lo))^2 = 1 - sqrt(y) over the
    interior of the unit interval, for the preimage pair at r = 4."""
    grid = standard_grid(points)[1:-1]
    lo, hi = preimage_pair(4.0, grid)
    gap = np.sqrt(hi) - np.sqrt(lo)
    return float(np.max(np.abs(gap**2 - (1.0 - np.sqrt(grid)))))


def propagation_ks(dist: DistSpec, r: float, n: int = DEFAULT_SAMPLES, seed: int = 0) -> tuple[float, float]:
    """KS statistic of a one-step pushed sample ensemble against the exact
    one-step pushforward of the same spec, with its 99% band."""
    empirical = ensemble_push(dist, r, 1, n, seed)
    return ks_statistic(empirical, pushforward_cdf(dist.cdf(), r)), ks_band(n, 0.99)


def power_transform_ks(
    alpha: float = 0.5,
    beta: float = 2.0,
    n: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """KS statistic of X**alpha for X Kumaraswamy(alpha, beta) against the
    beta(1, beta) CDF, with its 99% band.

    The power transform collapses the first Kumaraswamy shape, which is
    what makes the family's closed forms line up with beta laws.
    """
    spec = DistSpec("kumaraswamy", alpha, beta)
    x = sample(spec, n, seed)
    x **= alpha
    empirical = DistSpec("empirical", samples=_Owned(x))
    target = DistSpec("beta", 1.0, beta).cdf()
    return ks_statistic(empirical, target), ks_band(n, 0.99)


def run_verification(
    r: float = 4.0,
    seed: int = 0,
    n_samples: int = DEFAULT_SAMPLES,
    grid: int = DEFAULT_GRID_SIZE,
) -> list[CheckResult]:
    """Run the full battery of closed-form and Monte Carlo checks.

    The closed-form items assert identities that hold at r = 4; running
    with another r deliberately reports them as failed.  The Monte Carlo
    items compare pushed ensembles against the operator at the given r.
    """
    _count(n_samples, "n_samples", MIN_ENSEMBLE_SAMPLES)
    _count(seed, "seed", 0)  # each check below offsets it before its draw
    checks = [
        _check("one-step-closed-form", one_step_uniform_residual(r, grid), ONE_STEP_TOL),
        _check("two-step-kumaraswamy", two_step_uniform_residual(r, grid), TWO_STEP_TOL),
        _check("arcsine-fixed-point", arcsine_fixed_point_residual(r, grid), FIXED_POINT_TOL),
        _check("beta-matches-arcsine", beta_arcsine_residual(), BETA_ARCSINE_TOL),
        _check("halfangle-identity", halfangle_identity_residual(), IDENTITY_TOL),
        _check("sqrt-gap-identity", sqrt_gap_identity_residual(), IDENTITY_TOL),
    ]
    propagation_specs = [
        DistSpec("uniform"),
        DistSpec("arcsine"),
        DistSpec("kumaraswamy", 2.0, 3.0),
    ]
    for offset, spec in enumerate(propagation_specs):
        value, band = propagation_ks(spec, r, n_samples, seed + offset)
        checks.append(_check(f"propagation-ks-{spec.label}", value, band))
    value, band = power_transform_ks(n=n_samples, seed=seed + len(propagation_specs))
    checks.append(_check("power-transform-ks", value, band))
    return checks
