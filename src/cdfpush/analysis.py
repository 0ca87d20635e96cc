"""Distances, Kolmogorov-Smirnov statistics, and convergence diagnostics."""

from __future__ import annotations

import math
import numpy as np

from .distributions import Cdf, DistSpec, _count
from .errors import ParameterError
from .pushforward import (
    DEFAULT_GRID_SIZE,
    MONOTONICITY_TOLERANCE,
    iterates,
    pushforward_cdf,
    standard_grid,
)

__all__ = [
    "convergence_table",
    "fixed_point_residual",
    "ks_band",
    "ks_statistic",
    "sup_distance",
]

# asymptotic critical values of the one-sample KS statistic, scaled by 1/sqrt(n)
_KS_CRITICAL = {0.95: 1.36, 0.99: 1.63}
# `ks_statistic` first evaluates the reference at every _KS_STRIDE-th sorted
# sample; monotonicity bounds the terms of the samples between
_KS_STRIDE = 16


def ks_band(n: int, confidence: float = 0.99) -> float:
    """Asymptotic KS acceptance threshold c(confidence)/sqrt(n)."""
    count = _count(n, "sample count", 1)
    try:
        scale = _KS_CRITICAL[float(confidence)]
    except KeyError:
        raise ParameterError(
            f"confidence must be one of {sorted(_KS_CRITICAL)}; got {confidence!r}"
        ) from None
    return scale / math.sqrt(count)


def sup_distance(F, G, m: int = DEFAULT_GRID_SIZE) -> float:
    """Supremum distance between two CDFs over the standard grid of size m."""
    grid = standard_grid(m)
    return _sup_gap(np.asarray(F(grid), dtype=float), np.asarray(G(grid), dtype=float))


def _sup_gap(f: np.ndarray, g: np.ndarray) -> float:
    """The maximum of |f - g| behind `sup_distance`, on values already
    evaluated over one grid."""
    return float(np.abs(f - g).max())


def ks_statistic(empirical: DistSpec, F) -> float:
    """One-sample Kolmogorov-Smirnov statistic of an empirical spec's
    samples against the CDF F.

    The exact two-sided form over the n sorted samples x_0 <= ... <= x_{n-1}:
    the largest of (i+1)/n - F(x_i) and F(x_i-) - i/n, with the left limit
    F(x_i-) from the atoms of a reference `Cdf` whose spec is empirical and
    F(x_i) itself for any other reference.  F is monotone, so most samples
    cannot carry the supremum, and F is called at most twice and sees each
    sample at most once:

    1. F is evaluated at every 16th sample and the last one.
    2. Between adjacent evaluated indices a < b, every sample i has
       (i+1)/n - F(x_i) <= b/n - F(x_a) and F(x_i-) - i/n <= F(x_b) - (a+1)/n.
       F is evaluated at the samples of every gap whose bound exceeds the
       maximum so far minus `MONOTONICITY_TOLERANCE`, the slack that covers
       rounding dips in a computed CDF.  If the values of step 1 decrease
       anywhere by more than that slack, the bound does not hold and every
       remaining sample is evaluated.
    """
    x = empirical.samples
    if x is None:
        raise ParameterError(f"the KS statistic needs an empirical spec; got {empirical.label}")
    n = x.size
    spec = F.spec if isinstance(F, Cdf) else None
    atoms = spec.samples if spec is not None and spec.family == "empirical" else None

    def terms_max(i: np.ndarray, fx: np.ndarray) -> float:
        # the largest KS term (i+1)/n - F(x_i) or F(x_i-) - i/n over the
        # 0-based sample indices i with reference values fx
        left = fx if atoms is None else np.searchsorted(atoms, x[i], side="left") / atoms.size
        return float(max(np.max((i + 1) / n - fx), np.max(left - i / n)))

    probe = np.append(np.arange(0, n - 1, _KS_STRIDE), n - 1)
    f_probe = np.asarray(F(x[probe]), dtype=float)
    stat = terms_max(probe, f_probe)
    a, b = probe[:-1], probe[1:]
    f_a, f_b = f_probe[:-1], f_probe[1:]
    if np.all(f_b - f_a >= -MONOTONICITY_TOLERANCE):
        bound = np.maximum(b / n - f_a, f_b - (a + 1) / n)
        open_gaps = bound > stat - MONOTONICITY_TOLERANCE
    else:
        open_gaps = np.ones(a.size, dtype=bool)
    # every index of an open gap [a, b), less the probe a already evaluated
    in_open_gap = np.repeat(open_gaps, b - a)
    in_open_gap[a] = False
    rest = np.flatnonzero(in_open_gap)
    if rest.size:
        stat = max(stat, terms_max(rest, np.asarray(F(x[rest]), dtype=float)))
    return stat


def fixed_point_residual(F, r, m: int = DEFAULT_GRID_SIZE) -> float:
    """Sup distance between F and its one-step pushforward at parameter r.

    Zero (to rounding) exactly when F is invariant under the map.
    """
    return sup_distance(pushforward_cdf(F, r), F, m)


def convergence_table(n_max: int, m: int = 1024, r: float = 4.0) -> dict[str, np.ndarray]:
    """Distances of D_n (the n-fold pushforward of the uniform CDF) to the
    uniform, Kumaraswamy(1/2, 1/2), and arcsine CDFs for n = 0..n_max.

    Returns the columns `n` (integers) and `to_uniform`, `to_kumaraswamy`,
    `to_arcsine` (sup distances on the standard grid of size m), each an
    array with one entry per depth.  The iterates come from one call of
    `iterates`, so each depth is evaluated once and the work is shared.
    At r = 4 every depth is the tent-map closed form, so the distance to
    the arcsine law stays right at any n_max: it falls as
    pi^2/(9*sqrt(3))*4**-n until it reaches rounding level.
    """
    _count(n_max, "n_max", 2)
    uniform = DistSpec("uniform").cdf()
    grid = standard_grid(m)
    references = [
        np.asarray(F(grid), dtype=float)
        for F in (uniform, DistSpec("kumaraswamy", 0.5, 0.5).cdf(), DistSpec("arcsine").cdf())
    ]
    rows = iterates(uniform, r, n_max, grid)
    gaps = np.array([[_sup_gap(row, ref) for ref in references] for row in rows])
    return {
        "n": np.arange(len(rows)),
        "to_uniform": gaps[:, 0],
        "to_kumaraswamy": gaps[:, 1],
        "to_arcsine": gaps[:, 2],
    }
