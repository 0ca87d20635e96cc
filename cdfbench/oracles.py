"""Reference values that share no code with cdfpush.

- At r = 4 the logistic map is conjugate to the tent map through
  y = sin^2(pi*u/2) (Ulam and von Neumann, Bull. AMS 53, 1947), so every
  n-step preimage of y is sin^2(pi*(2j +- u)/2^(n+1)).  From the uniform
  start this sums to the closed form

      D_n(y) = 2*sin^2(pi*u/2^(n+1)) + sin(pi*u/2^n)*cot(pi/2^n),
      u = (2/pi)*arcsin(sqrt(y)).

- For any r the set {x : f^n(x) <= y} is built level by level as a union
  of intervals, with endpoints in extended precision (x86 long double),
  and D_n(y) is its base mass from SciPy `betainc` / `betaincc`.
- Kolmogorov-Smirnov acceptance uses the Kolmogorov distribution
  (`scipy.stats.kstwobign`) at a false-alarm level small enough that a
  correct program fails no check on any seed in practice.

`self_check` compares the closed form with mpmath at sampled points, and
the interval expansion with the closed form, so a broken oracle (or a
platform whose long double is no wider than a double) stops the
benchmark instead of grading the program against it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import betainc, betaincc
from scipy.stats import kstwobign

# false-alarm probability of one KS check against a correct program
KS_ALPHA = 1e-6
KS_CRITICAL = float(kstwobign.isf(KS_ALPHA))
# a single orbit is serially correlated; measured sqrt(n)*KS at r = 4 over
# 12 orbits of 2e6 steps averages 0.89, against 0.87 for independent draws
ORBIT_KS_SCALE = 1.5
SELF_CHECK_TOL = 1e-14


def ks_threshold(n: int, scale: float = 1.0) -> float:
    """Largest KS distance a correct sample of size n reaches with
    probability KS_ALPHA (asymptotic Kolmogorov law)."""
    return scale * KS_CRITICAL / math.sqrt(n)


def standard_grid(m: int) -> np.ndarray:
    """Knots sin^2(pi*i/(2m)), i = 0..m, uniform in the arcsine coordinate."""
    return np.sin(np.pi * np.arange(m + 1) / (2 * m)) ** 2


def arcsine_coordinate(y: np.ndarray) -> np.ndarray:
    return (2.0 / np.pi) * np.arcsin(np.sqrt(y))


def arcsine_cdf(y: np.ndarray) -> np.ndarray:
    return arcsine_coordinate(y)


def base_cdf(spec: str):
    """(CDF, survival function) of a cdfpush distribution spec string,
    from this module's own forms."""
    family, _, params = spec.partition(":")
    if family == "uniform":
        return (lambda x: np.array(x, dtype=float)), (lambda x: 1.0 - x)
    if family == "arcsine":
        return arcsine_cdf, (lambda x: arcsine_cdf(1.0 - x))
    a, b = (float(p) for p in params.split(","))
    if family == "beta":
        return (lambda x: betainc(a, b, x)), (lambda x: betaincc(a, b, x))
    if family == "kumaraswamy":

        def log_sf(x):
            with np.errstate(divide="ignore"):  # log(0) = -inf at x = 1 is exact
                return b * np.log1p(-(x**a))

        return (lambda x: -np.expm1(log_sf(x))), (lambda x: np.exp(log_sf(x)))
    raise ValueError(f"no oracle for distribution {spec!r}")


def tent_uniform(y: np.ndarray, n: int) -> np.ndarray:
    """D_n(y) from the uniform start at r = 4, in closed form."""
    y = np.asarray(y, dtype=float)
    if n == 0:
        return y.copy()
    u = arcsine_coordinate(y)
    a = math.pi / 2**n
    return 2.0 * np.sin(0.5 * a * u) ** 2 + np.sin(a * u) * (math.cos(a) / math.sin(a))


def tent_iterate(cdf0, y: np.ndarray, n: int) -> np.ndarray:
    """D_n(y) at r = 4 from any base CDF, summed over the tent-map laps.

    {x : f^n(x) <= y} is the union over j < 2^(n-1) of
    [s(2j), s(2j+u)] and [s(2j+2-u), s(2j+2)], s(t) = sin^2(pi*t/2^(n+1)).
    """
    y = np.asarray(y, dtype=float)
    if n == 0:
        return cdf0(y)
    u = arcsine_coordinate(y)[None, :]
    j = np.arange(2 ** (n - 1), dtype=float)[:, None]
    scale = math.pi / 2 ** (n + 1)

    def at(t):
        return cdf0(np.sin(scale * t) ** 2)

    laps = at(2 * j + u) - at(2 * j) + at(2 * j + 2) - at(2 * j + 2 - u)
    return laps.sum(axis=0)


def preimage_iterates(base: tuple, r: float, y: np.ndarray, n: int) -> np.ndarray:
    """Rows D_0(y)..D_n(y) for the map x -> r*x*(1-x), any 0 < r <= 4.

    D_k(y) is the base mass of {x : f^k(x) <= y}.  That set is built level
    by level as a union of intervals: the preimage of [a, b] is
    [lo(a), lo(b)] and [hi(b), hi(a)], merged into [lo(a), hi(a)] when b
    reaches the peak r/4 and empty when a does.  Summing positive interval
    masses, each from the CDF left of 1/2 and the survival function right
    of it, keeps the error near one rounding per interval, where the
    signed recursion D(lo) + 1 - D(hi) cancels.
    """
    cdf, sf = base
    y = np.asarray(y, dtype=float)
    peak = r / 4.0
    left = np.zeros((1, y.size), dtype=np.longdouble)
    right = y[None, :].astype(np.longdouble)
    valid = np.ones_like(left, dtype=bool)
    rows = [cdf(y)]
    for _ in range(n):
        valid &= left < peak
        merged = valid & (right >= peak)
        lo_a, hi_a = _preimages(np.where(valid, left, 0.0), r)
        lo_b, hi_b = _preimages(np.where(valid & ~merged, right, 0.0), r)
        left = np.concatenate([lo_a, hi_b])
        right = np.concatenate([np.where(merged, hi_a, lo_b), hi_a])
        valid = np.concatenate([valid, valid & ~merged])
        rows.append(_mass(cdf, sf, left, right, valid))
    return np.array(rows)


def _preimages(v: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    r = np.longdouble(r)
    root = np.sqrt(1 - 4 * v / r)
    return 2 * v / (r * (1 + root)), (1 + root) / 2


def _mass(cdf, sf, left: np.ndarray, right: np.ndarray, valid: np.ndarray) -> np.ndarray:
    out = np.zeros(left.shape)
    low = valid & (left < 0.5)
    high = valid & ~low
    a, b = left.astype(float), right.astype(float)
    out[low] = cdf(b[low]) - cdf(a[low])
    out[high] = sf(a[high]) - sf(b[high])
    return out.sum(axis=0)


def self_check(rng: np.random.Generator) -> float:
    """Largest disagreement between the float64 forms above and
    independent computations; raises if it exceeds SELF_CHECK_TOL."""
    worst = 0.0
    mpmath.mp.dps = 40
    ys = np.concatenate([[0.0, 1.0, 0.5, 0.75], rng.random(12)])
    for n in (1, 2, 5, 12, 16, 30):
        fast = tent_uniform(ys, n)
        for y, value in zip(ys, fast):
            u = 2 / mpmath.pi * mpmath.asin(mpmath.sqrt(mpmath.mpf(float(y))))
            a = mpmath.pi / 2**n
            exact = 2 * mpmath.sin(a * u / 2) ** 2 + mpmath.sin(a * u) * mpmath.cot(a)
            worst = max(worst, abs(float(exact) - float(value)))
    # the closed form against the defining recursion, in high precision
    for n in (1, 3, 6):
        for y in ys[:8]:
            worst = max(worst, abs(float(_mp_recursion(mpmath.mpf(float(y)), n)) - float(tent_uniform(np.array([y]), n)[0])))
    # interval expansion and lap sum against the closed form
    uniform = base_cdf("uniform")
    grid = standard_grid(64)
    rows = preimage_iterates(uniform, 4.0, grid, 12)
    for n in range(13):
        closed = tent_uniform(grid, n)
        worst = max(worst, float(np.max(np.abs(rows[n] - closed))))
        if n <= 8:
            worst = max(worst, float(np.max(np.abs(tent_iterate(uniform[0], grid, n) - closed))))
    if not worst <= SELF_CHECK_TOL:
        raise RuntimeError(f"oracle self-check failed: disagreement {worst:.3e} > {SELF_CHECK_TOL:g}")
    return worst


def _mp_recursion(y, n: int):
    if n == 0:
        return y
    if y >= 1:
        return mpmath.mpf(1)
    root = mpmath.sqrt(1 - y)
    return _mp_recursion((1 - root) / 2, n - 1) + 1 - _mp_recursion((1 + root) / 2, n - 1)
