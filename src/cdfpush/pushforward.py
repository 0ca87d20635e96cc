"""Exact propagation of CDFs through the quadratic interval map.

For the map x -> r*x*(1-x) on [0, 1] the image CDF of a distribution
with CDF F has the closed form

    G(y) = F(x_lo(y)) + 1 - F(x_hi(y))        for y < r/4,
    G(y) = 1                                   for y >= r/4,

where x_lo <= x_hi are the two preimages of y.  Iterating this operator
propagates a distribution forward exactly, with no sampling error.  The
paper's own case, the uniform start at r = 4, also has a closed form at
every depth through the map's conjugacy with the tent map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .distributions import Cdf, _arcsine_kernel, _as_unit_array, _integer, _restore, _uniform_kernel
from .errors import MonotonicityError, ParameterError, ResourceLimitError

__all__ = [
    "DEFAULT_GRID_SIZE",
    "EXACT_ITERATION_LIMIT",
    "IterateCdf",
    "iterate_pushforward",
    "iterates",
    "preimage_pair",
    "pushforward_cdf",
    "standard_grid",
    "tabulate",
    "validate_map_param",
]

# beyond this depth one exact evaluation costs up to 2**n base evaluations
# per point (all of them at r = 4; `_pull` prunes at the peak r/4 below it);
# for any start but the uniform at r = 4, which has its closed form at every
# depth, `iterates` evaluates depths 0..limit in one traversal, which costs
# about twice the deepest one, and the deeper ones from one pass of the grid
# chain
EXACT_ITERATION_LIMIT = 12
# `_pull` sends both preimage branches of a node down as one array while
# they hold at most this many points: the up to 13 rows of a batch then take
# 13 * 2**14 * 8 B = 1.7 MB, inside a 2 MiB L2 cache; a larger batch would
# save few base calls and leave the cache.  A row of 2**14 points is 128 KiB,
# glibc's initial mmap threshold: until the process frees a larger array,
# glibc hands such memory back after each subtree and faults it in again
_LEVEL_BATCH = 2**14
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
    size = _integer(m, "grid size")
    if size < 2:
        raise ParameterError(f"grid size must be >= 2; got {m!r}")
    i = np.arange(size + 1)
    grid = np.sin(0.5 * np.pi * i / size) ** 2
    grid[0] = 0.0
    grid[-1] = 1.0
    return grid


def _preimages(t: np.ndarray, rr: float) -> np.ndarray:
    """Both preimages of validated points t <= r/4, in the
    cancellation-free form documented at `preimage_pair`, as the rows
    (lower, upper) of one (2,) + t.shape array."""
    pair = np.empty((2,) + t.shape)
    lo, hi = pair
    np.divide(t, rr, out=lo)
    np.subtract(0.25, lo, out=hi)
    np.sqrt(hi, out=hi)
    hi += 0.5
    lo /= hi
    return pair


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


def _pull(F, rr: float, n: int, arr: np.ndarray, rows: int = 1) -> np.ndarray:
    """Values at arr of the pushforwards of F of depths n-rows+1..n, one
    row each, from one traversal of the preimage tree; rows <= n + 1.

    arr must already be validated: preimages of points in [0, 1] stay
    in [0, 1], so no level checks its domain again.  Each node splits
    its points below the peak r/4 into one preimage pair; points at or
    above the peak are exactly 1 at every depth >= 1.  While the pair
    holds at most `_LEVEL_BATCH` points, both branches go down as one
    array, lower branch first, so a whole level of a small tree costs
    one base call; a larger pair recurses on each branch.  The base is
    called at a node only when depth 0 is one of its rows, so with
    rows > 1 it receives exactly the arrays that the separate
    evaluation of each depth hands it, and each row is bit for bit that
    evaluation.  Every point meets the same preimage, base and
    combination arithmetic whatever it is batched with, so only a base
    whose values depend on the batch (the continued fraction that an
    extreme beta falls back to) can tell the batches apart.  No array
    that F returned is ever written into.
    """
    if n == 0:
        return np.asarray(F(arr), dtype=float)[np.newaxis]
    below = arr < rr / 4.0
    inside = np.count_nonzero(below)
    whole = inside == below.size
    deeper = min(rows, n)  # depths 1..n here are depths 0..n-1 at the children
    out = None  # stays None where the children's combination is the result
    if not (inside and whole and deeper == rows):
        out = (np.empty if inside and whole else np.ones)((rows,) + arr.shape)
        if deeper < rows:
            out[0] = F(arr)
        if not inside:
            return out
    pair = _preimages(arr if whole else arr[below], rr)
    into = out[1:] if whole and out is not None else None
    if 2 * inside <= _LEVEL_BATCH:
        both = _pull(F, rr, n - 1, pair.reshape(-1), deeper).reshape((deeper,) + pair.shape)
        v = np.add(both[:, 0], 1.0, out=into)
        v -= both[:, 1]
    else:
        lo, hi = pair
        v = np.add(_pull(F, rr, n - 1, lo, deeper), 1.0, out=into)
        v -= _pull(F, rr, n - 1, hi, deeper)
    if out is None:  # the rows = 1 path at a node below the peak: no copy
        return v
    if not whole:
        out[rows - deeper:, below] = v
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
        return _pull(F, rr, 1, arr)[0]

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
    pushforward recursion over the preimage tree (up to 2**n base
    evaluations per point, batched by levels; at n = 0 the base itself),
    "grid" interpolates the values that the grid chain holds at the
    knots of the standard grid after n steps, and "closed-form"
    evaluates the tent-map closed form of the uniform start at r = 4 (see
    `_tent_uniform`).  `iterates` evaluates every depth the same ways at
    once.
    """

    strategy: str


def _depth(n) -> int:
    steps = _integer(n, "iteration count")
    if steps < 0:
        raise ParameterError(f"iteration count must be >= 0; got {n!r}")
    return steps


def _route(fn, rr: float, n: int) -> tuple[int, str]:
    """How the "auto" strategy evaluates the depths 0..n of the base
    kernel fn: the leading `exact` of them exactly, the deeper ones by
    the strategy `deeper`.

    The uniform start at r = 4 (the kernel of the uniform spec, not a
    callable that wraps it) has a closed form at every depth from 1 on.
    Any other base goes exactly through `EXACT_ITERATION_LIMIT`, a
    leading run since a depth costs at least as much as the one before,
    and to the grid chain beyond.  This is the one place that decides
    between the strategies.
    """
    if fn is _uniform_kernel and rr == 4.0:
        return 1, "closed-form"
    return min(n, EXACT_ITERATION_LIMIT) + 1, "grid"


def _tent_coordinate(arr: np.ndarray) -> np.ndarray:
    """u = (2/pi)*arcsin(sqrt(y)), computed as the angle of the point
    (sqrt(1 - y), sqrt(y)): arcsin magnifies the rounding of sqrt(y)
    next to y = 1 (to 2.7e-14 on the knots of `standard_grid(4096)`),
    while the angle keeps full precision on all of [0, 1]."""
    return (2.0 / np.pi) * np.arctan2(np.sqrt(arr), np.sqrt(1.0 - arr))


def _tent_uniform(u: np.ndarray, n: int) -> np.ndarray:
    """D_n, n >= 1, of the uniform start at r = 4 at the tent coordinates
    u of `_tent_coordinate`; may return u itself.

    y = sin^2(pi*u/2) conjugates the map at r = 4 to the tent map
    (Ulam and von Neumann, Bull. AMS 53, 1947), whose n-th preimage of
    [0, u] is 2**n intervals of length u/2**n; with a = pi/2**n the
    uniform mass of their images under sin^2(pi*t/2) sums to

        D_n = 2*sin^2(a*u/2) + sin(a*u)*cot(a).

    Both terms are nonnegative and increase with u, so the sum is
    monotone and keeps its relative precision near 0; it is capped at 1
    and is exactly 1 at u = 1.  D_n - u is
    -(pi^2/6)*4**-n*u*(1-u)*(2-u)*(1 + O(4**-n)), at most (pi^2/3)*4**-n
    of u: from the depth where that is below half an ulp (n = 28) on,
    D_n is u itself, and a = pi/2**n, which underflows past n = 1075, is
    never formed.
    """
    if math.ldexp(math.pi**2 / 3.0, -2 * n) < 0.5 * np.finfo(float).eps:
        return u
    a = math.ldexp(math.pi, -n)
    out = np.sin(u * (0.5 * a))
    np.square(out, out=out)
    out *= 2.0
    out += np.sin(u * a) * (math.cos(a) / math.sin(a))
    np.minimum(out, 1.0, out=out)
    out[u == 1.0] = 1.0
    return out


def _grid_chain(fn, rr: float, grid: np.ndarray, u: np.ndarray):
    """Yield the settled values at the knots `grid` (arcsine coordinates
    `u`) of D_0, D_1, D_2, ... of the base kernel fn, without end.

    The base is tabulated once, at the first `next`.  Each step then
    gathers at the arcsine coordinates of both preimages of every knot
    below the peak, which are computed once here (Ulam's method).  The
    values are bit for bit those of n-fold re-tabulation,
    `tabulate(pushforward_cdf(table, r))`.
    """
    below = grid < rr / 4.0
    u_lo, u_hi = (_arcsine_kernel(x) for x in _preimages(grid[below], rr))
    values = _settle(np.array(fn(grid), dtype=float, copy=True), grid)
    while True:
        yield values
        pushed = np.ones_like(grid)
        v = np.interp(u_lo, u, values) + 1.0
        v -= np.interp(u_hi, u, values)
        pushed[below] = v
        values = _settle(pushed, grid)


def _as_cdf(F0) -> Cdf:
    if isinstance(F0, Cdf):
        return F0
    return Cdf(lambda arr: np.asarray(F0(arr), dtype=float), "callable")


def iterate_pushforward(F0, r, n: int, strategy: str = "auto") -> IterateCdf:
    """Propagate the CDF F0 forward n steps through the map.

    strategy "auto" evaluates the uniform start at r = 4 (the uniform
    spec's CDF) by its closed form at every depth, recorded as
    "closed-form"; any other base goes through the exact recursion up to
    EXACT_ITERATION_LIMIT steps and the grid chain on DEFAULT_GRID_SIZE
    intervals beyond.  "exact" and "grid" force the recursion or the
    grid chain for every base; "exact" above the limit raises
    ResourceLimitError instead of attempting a 2**n-fold evaluation.
    n = 0 returns the base CDF unchanged, recorded as "exact" whatever
    the strategy.  n must be an integer; a float or a string raises
    ParameterError.

    The exact iterate validates its points once and hands them to the
    kernel `_pull` for one row; its values are bit for bit those of the
    n-fold composition of `pushforward_cdf`.  The grid strategy
    tabulates the base once, when the iterate is built, and takes the
    values after n steps of the grid chain.  To evaluate all
    of D_0..D_n at the same points, `iterates` shares that work.
    """
    rr = validate_map_param(r)
    steps = _depth(n)
    if strategy not in ("auto", "exact", "grid"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    base = _as_cdf(F0)
    if steps == 0:
        return IterateCdf(base.fn, base.provenance, "exact")
    exact, deeper = _route(base.fn, rr, steps)
    resolved = strategy
    if strategy == "auto":
        resolved = "exact" if steps < exact else deeper
    if resolved == "exact" and steps > EXACT_ITERATION_LIMIT:
        raise ResourceLimitError(
            f"exact recursion for n={steps} would need 2**{steps} base evaluations "
            f"per point; the supported depth is {EXACT_ITERATION_LIMIT} (use the grid strategy)"
        )

    if resolved == "closed-form":

        def kernel(arr: np.ndarray) -> np.ndarray:
            return _tent_uniform(_tent_coordinate(arr), steps)

        provenance = f"tent-closed-form[r=4,n={steps}]({base.provenance})"
        return IterateCdf(kernel, provenance, resolved)
    if resolved == "exact":
        fn = base.fn

        def kernel(arr: np.ndarray) -> np.ndarray:
            return _pull(fn, rr, steps, arr)[0]

        provenance = base.provenance
        for _ in range(steps):
            provenance = f"pushforward[r={rr:g}]({provenance})"
        return IterateCdf(kernel, provenance, resolved)

    quarter = rr / 4.0
    grid = standard_grid(DEFAULT_GRID_SIZE)
    u = _arcsine_kernel(grid)
    values = next(islice(_grid_chain(base.fn, rr, grid, u), steps, None))

    def kernel(arr: np.ndarray) -> np.ndarray:
        # the image of any distribution is supported below the peak
        out = np.ones_like(arr)
        mask = arr < quarter
        if mask.any():
            out[mask] = np.interp(_arcsine_kernel(arr[mask]), u, values)
        return out

    provenance = f"pushforward-grid[r={rr:g},n={steps},m={DEFAULT_GRID_SIZE}]({base.provenance})"
    return IterateCdf(kernel, provenance, resolved)


def iterates(F0, r, n: int, y) -> np.ndarray:
    """Values at the points y of D_0..D_n, the iterates of the CDF F0
    under the map, as an (n+1, len(y)) array (y is flattened).

    Row k equals `iterate_pushforward(F0, r, k)(y)` bit for bit, but the
    work is shared.  For the uniform start at r = 4 the tent coordinates
    of y are computed once and every row from depth 1 on is its closed
    form.  For any other base the depths that "auto" evaluates exactly
    come from one traversal of `_pull`, which calls the base once per
    node of the preimage tree (once per level while the levels are
    small), and the deeper ones from one pass of the grid chain, which
    tabulates the base once.  n must be an integer, as for
    `iterate_pushforward`.
    """
    rr = validate_map_param(r)
    steps = _depth(n)
    fn = _as_cdf(F0).fn
    arr = _as_unit_array(y)[0].ravel()
    exact, deeper = _route(fn, rr, steps)
    out = np.ones((steps + 1, arr.size))
    out[:exact] = _pull(fn, rr, exact - 1, arr, rows=exact)
    if exact > steps:
        return out
    if deeper == "closed-form":
        u = _tent_coordinate(arr)
        for k in range(exact, steps + 1):
            out[k] = _tent_uniform(u, k)
        return out
    grid = standard_grid(DEFAULT_GRID_SIZE)
    u = _arcsine_kernel(grid)
    mask = arr < rr / 4.0
    at = _arcsine_kernel(arr[mask])
    chain = islice(_grid_chain(fn, rr, grid, u), exact, steps + 1)
    for row, values in zip(out[exact:], chain):
        row[mask] = np.interp(at, u, values)
    return out
