"""Distances, Kolmogorov-Smirnov statistics, and convergence diagnostics."""

from __future__ import annotations

import math
import numpy as np

from .distributions import Cdf, DistSpec, _count
from .errors import NumericsError, ParameterError
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
    cannot carry the supremum; F sees each sample at most once, on a ladder
    of rungs:

    1. The first rung evaluates F at every s-th sample and the last one,
       where s is the largest power of 4 not above sqrt(n).  A gap of s
       samples widens the bound below by s/n, and the statistic scales like
       1/sqrt(n), so a coarser first rung would leave nearly every gap open.
    2. Between adjacent evaluated indices a < b, every sample i has
       (i+1)/n - F(x_i) <= b/n - F(x_a) and F(x_i-) - i/n <= F(x_b) - (a+1)/n.
       A gap stays open while its bound exceeds the maximum so far minus
       `MONOTONICITY_TOLERANCE`, the slack that covers rounding dips in a
       computed CDF.  Each further rung divides s by 4, so an open gap
       starts at a multiple of 4s and holds at most 4s samples; the rung
       splits it in four at a + s, a + 2s and a + 3s, those below b, and
       evaluates F there: at s = 1, the rest of the gap.  If the values
       evaluated so far decrease anywhere by more than that slack, the
       bound does not hold and every remaining sample goes to one final call.

    Raises `NumericsError` if F returns a value that is not finite.
    """
    x = empirical.samples if isinstance(empirical, DistSpec) else None
    if x is None:
        label = empirical.label if isinstance(empirical, DistSpec) else type(empirical).__name__
        raise ParameterError(f"the KS statistic needs an empirical spec; got {label}")
    n = x.size
    spec = F.spec if isinstance(F, Cdf) else None
    atoms = spec.samples if spec is not None and spec.family == "empirical" else None

    def evaluate(i: np.ndarray) -> tuple[np.ndarray, float]:
        # F at the samples of the 0-based sorted indices i, and the largest
        # KS term (i+1)/n - F(x_i) or F(x_i-) - i/n over them
        fx = np.asarray(F(x[i]), dtype=float)
        if not np.isfinite(fx).all():
            raise NumericsError("the KS reference returned a value that is not finite")
        left = fx if atoms is None else np.searchsorted(atoms, x[i], side="left") / atoms.size
        return fx, float(max(np.max((i + 1) / n - fx), np.max(left - i / n)))

    s = 4 ** ((math.isqrt(n).bit_length() - 1) // 2)
    idx = np.append(np.arange(0, n - 1, s), n - 1)
    f, stat = evaluate(idx)
    seen = [idx]
    # the gaps (a, b) between adjacent evaluated samples, with F at their ends
    a, b, fa, fb = idx[:-1], idx[1:], f[:-1], f[1:]
    while np.all(fb - fa >= -MONOTONICITY_TOLERANCE):
        # a gap stays open while its bound may reach the statistic and it
        # holds a sample that F has not seen
        is_open = (np.maximum(b / n - fa, fb - (a + 1) / n) > stat - MONOTONICITY_TOLERANCE) & (b - a > 1)
        a, b, fa, fb = a[is_open], b[is_open], fa[is_open], fb[is_open]
        if not a.size:
            return stat
        s //= 4
        # every open gap starts at a multiple of 4s and holds at most 4s
        # samples, so a + s, a + 2s and a + 3s, clipped to b, split it
        cuts = np.minimum(a[:, None] + s * np.arange(1, 4), b[:, None])
        f_cuts = np.repeat(fb[:, None], 3, axis=1)
        inside = cuts < b[:, None]
        new = cuts[inside]
        if new.size:
            f_cuts[inside], stat_new = evaluate(new)
            stat = max(stat, stat_new)
            seen.append(new)
        # the rows (a, cuts, b) hold the next rung's gaps in order
        ends, f_ends = np.column_stack((a, cuts, b)), np.column_stack((fa, f_cuts, fb))
        a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
        fa, fb = f_ends[:, :-1].ravel(), f_ends[:, 1:].ravel()
    rest = np.setdiff1d(np.arange(n), np.concatenate(seen), assume_unique=True)
    return max(stat, evaluate(rest)[1]) if rest.size else stat


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
