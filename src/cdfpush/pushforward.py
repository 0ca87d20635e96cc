"""Exact propagation of CDFs through the quadratic interval map.

For the map x -> r*x*(1-x) on [0, 1] the image CDF of a distribution
with CDF F has the closed form

    G(y) = F(x_lo(y)) + 1 - F(x_hi(y))        for y < r/4,
    G(y) = 1                                   for y >= r/4,

where x_lo <= x_hi are the two preimages of y.  Iterating this operator
propagates a distribution forward exactly, with no sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Cdf, _arcsine_kernel, _as_unit_array, _restore
from .errors import MonotonicityError, ParameterError, ResourceLimitError

__all__ = [
    "DEFAULT_GRID_SIZE",
    "EXACT_ITERATION_LIMIT",
    "IterateCdf",
    "iterate_pushforward",
    "preimage_pair",
    "pushforward_cdf",
    "standard_grid",
    "tabulate",
    "validate_map_param",
]

# beyond this depth one exact evaluation costs 2**n base evaluations per
# point, reached through 2**n - 1 preimage pairs of the depth-first `_pull`
EXACT_ITERATION_LIMIT = 12
DEFAULT_GRID_SIZE = 4096
# rounding slack allowed before a tabulated dip counts as a real failure
MONOTONICITY_TOLERANCE = 1e-9


def validate_map_param(r) -> float:
    """Check 0 < r <= 4 and return r as a float."""
    value = float(r)
    if not math.isfinite(value) or not 0.0 < value <= 4.0:
        raise ParameterError(f"map parameter r must satisfy 0 < r <= 4; got {r!r}")
    return value


def standard_grid(m: int) -> np.ndarray:
    """Evaluation grid y_i = sin^2(pi*i/(2m)) for i = 0..m.

    Knots are uniform in the arcsine coordinate, clustering near both
    endpoints where iterated CDFs have square-root behavior.
    """
    size = int(m)
    if size < 2:
        raise ParameterError(f"grid size must be >= 2; got {m!r}")
    i = np.arange(size + 1)
    grid = np.sin(0.5 * np.pi * i / size) ** 2
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


def _preimages(t: np.ndarray, rr: float) -> tuple[np.ndarray, np.ndarray]:
    """Both preimages (lower, upper) of validated points t <= r/4, in the
    cancellation-free form documented at `preimage_pair`."""
    hi = 0.5 + np.sqrt(0.25 - t / rr)
    return (t / rr) / hi, hi


def preimage_pair(r, y):
    """Both preimages of y under x -> r*x*(1-x), as (lower, upper).

    With q = sqrt(1/4 - y/r) the half-width of the pair around 1/2,
    the lower branch is computed as (y/r)/(1/2 + q) rather than
    1/2 - q, which cancels catastrophically as y -> 0.  For y above
    the peak both entries collapse to the critical point 1/2.
    """
    rr = validate_map_param(r)
    arr, scalar = _as_unit_array(y)
    lo = np.full_like(arr, 0.5)
    hi = np.full_like(arr, 0.5)
    mask = arr <= rr / 4.0
    lo[mask], hi[mask] = _preimages(arr[mask], rr)
    return _restore(lo, scalar), _restore(hi, scalar)


def _pull(F, rr: float, n: int, arr: np.ndarray) -> np.ndarray:
    """Values at arr of the n-fold pushforward of F, depth first.

    arr must already be validated: preimages of points in [0, 1] stay
    in [0, 1], so no level checks its domain again.  Each level splits
    the points below the peak r/4 into one preimage pair and recurses
    on each branch; points at or above the peak are exactly 1.
    """
    if n == 0:
        return np.asarray(F(arr), dtype=float)
    below = arr < rr / 4.0
    # before the `all` test: an empty array passes it
    if not below.any():
        return np.ones_like(arr)
    whole = below.all()
    lo, hi = _preimages(arr if whole else arr[below], rr)
    v = _pull(F, rr, n - 1, lo) + 1.0
    v -= _pull(F, rr, n - 1, hi)
    if whole:
        return v
    out = np.ones_like(arr)
    out[below] = v
    return out


def pushforward_cdf(F, r) -> Cdf:
    """One exact pushforward of the CDF F through the map with parameter r.

    F may be any callable CDF (closed form, grid, or a previous
    pushforward); evaluation failures inside F propagate.  The result is
    exactly 1 for y >= r/4, short-circuited before any floating
    arithmetic on those points.  This is the n = 1 case of the kernel
    behind the exact strategy of `iterate_pushforward`.
    """
    rr = validate_map_param(r)
    tag = getattr(F, "provenance", "callable")

    def kernel(arr: np.ndarray) -> np.ndarray:
        return _pull(F, rr, 1, arr)

    return Cdf(kernel, provenance=f"pushforward[r={rr:g}]({tag})")


def _settle(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Settle raw values at the knots `grid` into a CDF table, in place,
    as `tabulate` documents; the grid chain settles every step."""
    steps = np.diff(values)
    if float(steps.min()) < -MONOTONICITY_TOLERANCE:
        knot = int(np.argmin(steps))
        raise MonotonicityError(
            f"tabulated CDF decreases by {-float(steps.min()):.3e} near "
            f"y={grid[knot]:.6g} (allowed slack {MONOTONICITY_TOLERANCE:g})"
        )
    np.clip(values, 0.0, 1.0, out=values)
    values[0] = 0.0
    np.maximum.accumulate(values, out=values)
    values[-1] = 1.0
    return values


def tabulate(F, m: int = DEFAULT_GRID_SIZE, support_top: float = 1.0) -> Cdf:
    """Tabulate a callable CDF on the standard grid of size m, as a `Cdf`.

    The result interpolates the tabulated values piecewise linearly in
    u = (2/pi)*arcsin(sqrt(y)), the coordinate in which the standard
    grid is uniform; this keeps the square-root edge behavior of
    iterated CDFs nearly linear per interval, and it returns the
    tabulated values exactly at the knots.  Endpoint values are forced
    to 0 and 1.  A decrease between adjacent knots larger than the
    rounding slack raises MonotonicityError; dips within the slack are
    flattened by a running maximum.

    `support_top` < 1 scales the knots into [0, support_top] and appends
    a final knot at y = 1.  A pushforward at parameter r is flat at 1
    above r/4 but has a square-root edge there, which the unscaled grid
    undersamples for r < 4; scaling the knots to the support restores
    resolution at the edge.
    """
    top = float(support_top)
    if not 0.0 < top <= 1.0:
        raise ParameterError(f"support_top must lie in (0, 1]; got {support_top!r}")
    grid = standard_grid(m)
    if top < 1.0:
        grid = np.append(top * grid, 1.0)
    if np.any(np.diff(grid) <= 0.0):
        # a subnormal support_top rounds neighbouring knots together
        raise ParameterError("grid must increase strictly from 0 to 1")
    values = _settle(np.array(F(grid), dtype=float, copy=True), grid)
    u_knots = _arcsine_kernel(grid)

    def kernel(arr: np.ndarray) -> np.ndarray:
        return np.interp(_arcsine_kernel(arr), u_knots, values)

    return Cdf(kernel, f"grid[m={int(m)}]({getattr(F, 'provenance', 'callable')})")


@dataclass(frozen=True)
class IterateCdf(Cdf):
    """The n-fold pushforward of a base CDF, realized as a `Cdf`.

    `strategy` records how evaluation happens: "exact" runs the
    depth-first pushforward recursion (2**n base evaluations per point;
    at n = 0 the base itself) while "grid" interpolates a table on the
    standard grid, built by tabulating the base once and stepping the
    table's values n times.
    """

    strategy: str


def iterate_pushforward(F0, r, n: int, strategy: str = "auto") -> IterateCdf:
    """Propagate the CDF F0 forward n steps through the map.

    strategy "auto" uses the exact recursion up to EXACT_ITERATION_LIMIT
    steps and the grid chain on DEFAULT_GRID_SIZE intervals beyond;
    "exact" above the limit raises ResourceLimitError instead of
    attempting a 2**n-fold evaluation.  n = 0 returns the base CDF
    unchanged, recorded as "exact" whatever the strategy.

    The exact iterate validates its points once and hands them to one
    depth-first recursion over the base kernel; its values are bit for
    bit those of the n-fold composition of `pushforward_cdf`.  The grid
    chain tabulates the base once and then steps the values at the
    knots; its values are bit for bit those of n-fold re-tabulation,
    `tabulate(pushforward_cdf(table, r))`.
    """
    rr = validate_map_param(r)
    steps = int(n)
    if steps < 0:
        raise ParameterError(f"iteration count must be >= 0; got {n!r}")
    if strategy not in ("auto", "exact", "grid"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    base = F0 if isinstance(F0, Cdf) else Cdf(lambda arr: np.asarray(F0(arr), dtype=float), "callable")
    resolved = strategy
    if strategy == "auto":
        resolved = "exact" if steps <= EXACT_ITERATION_LIMIT else "grid"
    if resolved == "exact" and steps > EXACT_ITERATION_LIMIT:
        raise ResourceLimitError(
            f"exact recursion for n={steps} would need 2**{steps} base evaluations "
            f"per point; the supported depth is {EXACT_ITERATION_LIMIT} (use the grid strategy)"
        )

    if steps == 0:
        return IterateCdf(base.fn, base.provenance, "exact")
    if resolved == "exact":
        fn = base.fn

        def kernel(arr: np.ndarray) -> np.ndarray:
            return _pull(fn, rr, steps, arr)

        provenance = base.provenance
        for _ in range(steps):
            provenance = f"pushforward[r={rr:g}]({provenance})"
        return IterateCdf(kernel, provenance, resolved)

    # the chain steps on value arrays at fixed knots: each step gathers
    # at the arcsine coordinates of both preimages of every knot below
    # the peak, which are computed once here (Ulam's method)
    quarter = rr / 4.0
    grid = standard_grid(DEFAULT_GRID_SIZE)
    u = _arcsine_kernel(grid)
    below = grid < quarter
    u_lo, u_hi = (_arcsine_kernel(x) for x in _preimages(grid[below], rr))
    values = _settle(np.array(base(grid), dtype=float, copy=True), grid)
    for _ in range(steps):
        pushed = np.ones_like(grid)
        v = np.interp(u_lo, u, values) + 1.0
        v -= np.interp(u_hi, u, values)
        pushed[below] = v
        values = _settle(pushed, grid)

    def kernel(arr: np.ndarray) -> np.ndarray:
        # the image of any distribution is supported below the peak
        out = np.ones_like(arr)
        mask = arr < quarter
        if mask.any():
            out[mask] = np.interp(_arcsine_kernel(arr[mask]), u, values)
        return out

    provenance = f"pushforward-grid[r={rr:g},n={steps},m={DEFAULT_GRID_SIZE}]({base.provenance})"
    return IterateCdf(kernel, provenance, resolved)
