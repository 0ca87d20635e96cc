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
from itertools import islice

import numpy as np

from .distributions import (
    _CACHE_BLOCK, Cdf, DistSpec, _arcsine_kernel, _as_unit_array, _count, _empirical_kernel, _Owned, _restore,
)
from .errors import MonotonicityError, ParameterError, ResourceLimitError

__all__ = [
    "DEFAULT_GRID_SIZE",
    "EXACT_ITERATION_LIMIT",
    "iterate_pushforward",
    "iterates",
    "preimage_pair",
    "pushforward_cdf",
    "standard_grid",
    "validate_map_param",
]

# beyond this depth one exact evaluation costs up to 2**n base evaluations
# per point (all of them at r = 4; `_pull` prunes at the peak r/4 below it);
# for any start but the uniform at r = 4, which has its closed form at every
# depth, `_plan` evaluates depths 0..limit in one traversal, which costs
# about twice the deepest one, and the deeper ones from one pass of the grid
# chain
EXACT_ITERATION_LIMIT = 12
DEFAULT_GRID_SIZE = 4096
# rounding slack allowed before a dip in a grid table counts as a real failure
MONOTONICITY_TOLERANCE = 1e-9


def validate_map_param(r) -> float:
    """Check 0 < r <= 4 and return r as a float.

    A subnormal r is rejected too: r/4 rounds to 0 below the smallest
    normal float, which would put the peak of the map at 0.
    """
    value = float(r)
    if not math.isfinite(value) or not np.finfo(float).tiny <= value <= 4.0:
        raise ParameterError(f"map parameter r must satisfy 0 < r <= 4 and not be subnormal; got {r!r}")
    return value


def standard_grid(m: int) -> np.ndarray:
    """Evaluation grid y_i = sin^2(pi*i/(2m)) for i = 0..m.

    Knots are uniform in the arcsine coordinate, clustering near both
    endpoints where iterated CDFs have square-root behavior.
    """
    size = _count(m, "grid size", 2)
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
    holds at most `_CACHE_BLOCK` points, both branches go down as one
    array, lower branch first, so a whole level of a small tree costs
    one base call; a larger pair recurses on each branch, so these split
    branches hand the base the points of one half of the interval only,
    [0, 1/2] or [1/2, 1] (a beta base evaluates a batch that lies
    wholly on one side of its own split without splitting it).  The base is
    called at a node only when depth 0 is one of its rows, so with
    rows > 1 it receives exactly the arrays that the separate
    evaluation of each depth hands it, and each row is bit for bit that
    evaluation.  Every point meets the same preimage, base and
    combination arithmetic whatever it is batched with, so only a base
    whose values depend on the batch (the continued fraction that an
    extreme beta falls back to) can tell the batches apart.  No array
    that F returned is ever written into.

    The rows share one traversal for memory, not for base work: one call
    per depth hands the base the same 148 calls and 1,683,283 points for
    D_0..D_12 of beta(2.5, 3.5) at r = 3.7 on 4097 knots, with the same
    bytes, but in a fresh process D_0..D_12 of kumaraswamy(2, 3) at r = 4
    then took 2-3 times the page faults (60k against 128k-175k) and
    13-60 % more time (2-core Xeon, NumPy 2).
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
    if 2 * inside <= _CACHE_BLOCK:
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
    """One exact pushforward of the CDF F (any callable CDF; evaluation
    failures inside F propagate) through the map with parameter r:
    `iterate_pushforward(F, r, 1, strategy="exact")`, which says how the
    atoms of a step CDF are honoured: only through its law."""
    return iterate_pushforward(F, r, 1, strategy="exact")


def _settle(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Settle raw values at the knots `grid` into a CDF table, in place:
    a decrease between adjacent knots larger than the rounding slack
    raises MonotonicityError; otherwise the values are clipped to
    [0, 1], pinned to 0 and 1 at the ends, and dips within the slack are
    flattened by a running maximum.  The grid chain settles every step."""
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


def _tent_uniform(u: np.ndarray, n: int) -> np.ndarray:
    """D_n, n >= 1, of the uniform start at r = 4 at the arcsine
    coordinates u = `_arcsine_kernel(y)`; may return u itself.

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


def _grid_chain(values: np.ndarray, rr: float, grid: np.ndarray, u: np.ndarray):
    """Yield `values`, the settled table of some D_k at the knots `grid`
    (arcsine coordinates `u`), then the tables of D_{k+1}, D_{k+2}, ...
    without end.

    Each step gathers at the arcsine coordinates of both preimages of
    every knot below the peak (Ulam's method); they are computed once,
    after the first table is taken, so a chain read for one table costs
    nothing more.  Each table is the previous one pushed forward one
    step exactly, evaluated at the knots by interpolation in the
    arcsine coordinate, and settled by `_settle`.
    """
    yield values
    below = grid < rr / 4.0
    u_lo, u_hi = (_arcsine_kernel(x) for x in _preimages(grid[below], rr))
    while True:
        pushed = np.ones_like(grid)
        v = np.interp(u_lo, u, values) + 1.0
        v -= np.interp(u_hi, u, values)
        pushed[below] = v
        values = _settle(pushed, grid)
        yield values


def _plan(base: Cdf, rr: float, n: int, first: int, strategy: str):
    """How the depths first..n of the base are evaluated, as
    (the strategy of depth n, a kernel that maps validated points arr to
    the (n - first + 1,) + arr.shape array of their rows, the law of
    depth n where the plan knows it or None).

    This is the one place that decides between the strategies, on the
    law that `base.spec` names; depth 0 is the base itself.  "auto"
    evaluates the uniform start at r = 4 (the uniform spec's law,
    whatever evaluates it) by its closed form from depth 1 on, and any
    other base exactly through `EXACT_ITERATION_LIMIT`, a leading run
    since a depth costs at least as much as the one before, and by the
    grid chain beyond.  "exact" and "grid" force the recursion or the
    grid chain from depth 1 on; "exact" past the limit raises
    ResourceLimitError instead of attempting a 2**n-fold evaluation.
    Under "auto" and "exact" an empirical base is pushed as its law:
    D_k is the step CDF of its samples pushed k times with the roundings
    of `r * x * (1.0 - x)`, recorded as "exact" at any depth, and its
    law is the empirical spec of those samples.

    The exact rows come from one traversal of `_pull`.  The grid chain
    on `DEFAULT_GRID_SIZE` intervals tabulates the base once, here, and
    runs to the first grid row here as well, so an iterate built for one
    depth holds one table; the kernel steps on from that table, keeping
    one table at a time.
    """
    if strategy not in ("auto", "exact", "grid"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    family = getattr(base.spec, "family", None)
    closed = strategy == "auto" and family == "uniform" and rr == 4.0
    image = strategy != "grid" and family == "empirical"
    if strategy == "exact" and n > EXACT_ITERATION_LIMIT and not image:
        raise ResourceLimitError(
            f"exact recursion for n={n} would need 2**{n} base evaluations "
            f"per point; the supported depth is {EXACT_ITERATION_LIMIT} (use the grid strategy)"
        )
    # the first depth that `_pull` does not evaluate
    split = max(first, 1 if closed or image or strategy == "grid" else min(n, EXACT_ITERATION_LIMIT) + 1)
    resolved = "exact" if split > n or image else "closed-form" if closed else "grid"
    law = base.spec if n == 0 else None
    if image:
        samples, laws = base.spec.samples, []
        for k in range(1, n + 1):
            samples = rr * samples * (1.0 - samples)
            if k >= split:
                laws.append(DistSpec("empirical", samples=_Owned(samples)))
        law = laws[-1] if laws else law

        def deeper(arr: np.ndarray, out: np.ndarray) -> None:
            for row, depth in zip(out, laws):
                row[...] = _empirical_kernel(depth.samples, arr)

    elif resolved == "closed-form":

        def deeper(arr: np.ndarray, out: np.ndarray) -> None:
            u = _arcsine_kernel(arr)
            for k, row in enumerate(out, split):
                row[...] = _tent_uniform(u, k)

    elif resolved == "grid":
        grid = standard_grid(DEFAULT_GRID_SIZE)
        u = _arcsine_kernel(grid)
        table = _settle(np.array(base.fn(grid), dtype=float, copy=True), grid)
        start = next(islice(_grid_chain(table, rr, grid, u), split, None))

        def deeper(arr: np.ndarray, out: np.ndarray) -> None:
            # the image of any distribution is supported below the peak
            mask = arr < rr / 4.0
            at = _arcsine_kernel(arr[mask])
            for row, values in zip(out, _grid_chain(start, rr, grid, u)):
                row[mask] = np.interp(at, u, values)

    def kernel(arr: np.ndarray) -> np.ndarray:
        if split > n:  # every row exact; at n = 0 `_pull` returns what the base did
            exact = _pull(base.fn, rr, n, arr, n + 1 - first)
            return exact if n else exact.copy()
        out = np.ones((n + 1 - first,) + arr.shape)
        if split > first:
            out[: split - first] = _pull(base.fn, rr, split - 1, arr, split - first)
        deeper(arr, out[split - first :])
        return out

    return resolved, kernel, law


def _as_cdf(F0) -> Cdf:
    if isinstance(F0, Cdf):
        return F0
    return Cdf(lambda arr: np.asarray(F0(arr), dtype=float), "callable")


def iterate_pushforward(F0, r, n: int, strategy: str = "auto") -> Cdf:
    """Propagate the CDF F0 forward n steps through the map.

    strategy is "auto", "exact" or "grid", as `_plan` describes.  The
    result is a `Cdf` whose `strategy` records the one the plan took:
    "exact" (the recursion over the preimage tree, or the pushed samples
    of an empirical base; at n = 0 the base itself), "grid" (the grid
    chain on the standard grid) or "closed-form" (the tent-map closed
    form of the uniform start at r = 4).  n = 0 returns the base CDF
    unchanged, recorded as "exact" whatever the strategy.  The iterate's
    `spec` is its law where the plan knows it: the base's at n = 0, and
    the empirical spec of the pushed samples where an empirical base is
    pushed as its law; None otherwise.  Atoms are honoured only through
    a law: an empirical spec is pushed as the law of its pushed samples,
    while a plain callable is read through its preimages lo <= hi as
    F(lo) + 1 - F(hi), which takes P(X > hi) for P(X >= hi) and so is
    wrong at an atom on an upper preimage.  n must be an
    integer; a float or a string raises ParameterError.  The exact
    iterate's values are bit for bit those of the n-fold composition of
    `pushforward_cdf`; a grid iterate is built with its table.  To
    evaluate all of D_0..D_n at the same points, `iterates` shares the
    work.
    """
    rr = validate_map_param(r)
    steps = _count(n, "iteration count", 0)
    base = _as_cdf(F0)
    resolved, rows, law = _plan(base, rr, steps, steps, strategy)
    if steps == 0:
        return Cdf(base.fn, base.provenance, spec=law, strategy="exact")
    tag, times = {
        "exact": (f"pushforward[r={rr:g}]", steps),
        "grid": (f"pushforward-grid[r={rr:g},n={steps},m={DEFAULT_GRID_SIZE}]", 1),
        "closed-form": (f"tent-closed-form[r=4,n={steps}]", 1),
    }[resolved]
    provenance = f"{tag}(" * times + base.provenance + ")" * times
    return Cdf(lambda arr: rows(arr)[0], provenance, spec=law, strategy=resolved)


def iterates(F0, r, n: int, y) -> np.ndarray:
    """Values at the points y of D_0..D_n, the iterates of the CDF F0
    under the map, as an (n+1, len(y)) array (y is flattened).

    Row k equals `iterate_pushforward(F0, r, k)(y)` bit for bit: both
    run the plan of `_plan` for "auto", here once for all depths, so the
    exact rows share one traversal of the preimage tree and the grid
    rows one pass of the grid chain.  n must be an integer, as for
    `iterate_pushforward`.
    """
    rr = validate_map_param(r)
    steps = _count(n, "iteration count", 0)
    arr = _as_unit_array(y)[0].ravel()
    return _plan(_as_cdf(F0), rr, steps, 0, "auto")[1](arr)
