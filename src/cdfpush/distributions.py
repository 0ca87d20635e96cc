"""Distribution primitives on the unit interval.

`DistSpec` describes the uniform, arcsine, beta, Kumaraswamy and
empirical families and realizes each as a `Cdf`, with quantiles and
seeded sampling.  `cdf_kumaraswamy` evaluates the Kumaraswamy closed
form directly; `cdf_beta` evaluates the incomplete beta function, which
has none, from Chebyshev series of its hypergeometric factor fitted once
per (alpha, beta) and cached.  All evaluators are vectorized over numpy
arrays and accept plain floats.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError

__all__ = [
    "Cdf",
    "DistSpec",
    "cdf_beta",
    "cdf_kumaraswamy",
    "sample",
]

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny
# continued fraction: run to _BETA_CF_TOL where it is the fallback (see
# `_Side`), to _BETA_CF_FIT_TOL where it samples a fit, and never past
# _BETA_CF_MAX_ITER iterations in either
_BETA_CF_TOL = 1e-12
_BETA_CF_FIT_TOL = 2.0 * _EPS
_BETA_CF_MAX_ITER = 300
# floor keeping Lentz denominators away from zero without disturbing the value
_CF_TINY = 1e-300
# A side of the beta CDF is fitted by a Chebyshev series in
# s = -ln(1 - u) at 2 * _CHEB_MAX_DEGREE + 1 points.  It takes the
# continued fraction instead when the continued fraction does not
# converge at those points, or when the coefficients past the cap are not
# down at rounding level (_CHEB_PLATEAU of the largest): a large shape
# with its split next to 1, as for the (1e5, 50) side, or a + b in the
# hundreds of thousands.  Fits that pass end below degree 100 up to
# a = b = 1e4.
_CHEB_MAX_DEGREE = 256
_CHEB_PLATEAU = 2.0**-46
# beta quantile: a point is done once its Newton step or its bracket is
# this small relative to x on its side (to the smallest normal float below)
_QUANTILE_RTOL = 1e-13
_QUANTILE_MAX_PASSES = 100
# beta quantile starts: cells per side of the inverse table, the cap on the
# exponent of its coordinate, and the CDF samples per side that start and
# bracket its knots
_INVERSE_CELLS = 4096
_INVERSE_MAX_EXPONENT = 8.0
_INVERSE_SAMPLES = 1024
# Points per block of the package's cache-blocked loops: the beta draws of
# `_beta_quantile` and the pushes of `simulate.ensemble_push`, both split
# by `_blocks`, and the batches of both preimage branches in
# `pushforward._pull`, whose up to 13 rows then take 13 * 2**14 * 8 B =
# 1.7 MB.  Each stays inside a 2 MiB L2 cache.  Interleaved in one process,
# draws of beta(2.5, 3.5) took 13-17 ms for 1e5 points in blocks against
# 22-26 ms whole, and 56-67 ms for 4e5 points against 123-139 ms; blocks
# of 4096 and 65536 took 10-56 % more time than 2**14 (2-core Xeon,
# NumPy 2.4).  A block of 2**14 doubles is 128 KiB, glibc's initial mmap
# threshold: until the process frees a larger array, glibc hands such
# memory back after each block and faults it in again.
_CACHE_BLOCK = 2**14

_PARAMETRIC_FAMILIES = ("beta", "kumaraswamy")
_CLOSED_FORM_FAMILIES = ("uniform", "arcsine") + _PARAMETRIC_FAMILIES
_FAMILIES = _CLOSED_FORM_FAMILIES + ("empirical",)


def _as_unit_array(y, name: str = "y") -> tuple[np.ndarray, bool]:
    """Coerce to a float array in [0, 1]; the flag marks scalar input."""
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    if arr.size:
        bad = ~((arr >= 0.0) & (arr <= 1.0))  # also catches NaN
        if bad.any():
            raise DomainError(f"{name} must lie in [0, 1]; got {arr[bad].flat[0]!r}")
    return arr, scalar


def _restore(out: np.ndarray, scalar: bool):
    return float(out[0]) if scalar else out


def _count(value, name: str, least: int) -> int:
    """A count or size as an int of at least `least`: Python and NumPy
    integers pass; anything else (a float, a string) raises instead of
    being truncated, and so does a count below `least`."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer; got {value!r}") from None
    if count < least:
        raise ParameterError(f"{name} must be >= {least}; got {value!r}")
    return count


def _blocks(n: int) -> list[slice]:
    """Slices of range(n) in round(n / `_CACHE_BLOCK`) blocks, at least one,
    whose sizes differ by at most one point: from n = 0.75 `_CACHE_BLOCK`
    on, 0.75 to 1.5 times `_CACHE_BLOCK`, with no short remainder.  A
    block pays some 0.2 ms of NumPy calls in a beta draw: 2e4 draws split
    as 16384 + 3616 points took 10 % more time than in one block."""
    count = max(1, round(n / _CACHE_BLOCK))
    edges = [n * i // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _positive_param(value, name: str) -> float:
    v = float(value)
    if not math.isfinite(v) or v <= 0.0:
        raise ParameterError(f"{name} must be a finite positive number; got {value!r}")
    return v


@dataclass(frozen=True)
class Cdf:
    """A cumulative distribution function on [0, 1].

    Wraps a vectorized evaluator together with a provenance string
    recording how the function was realized (closed form, pushforward,
    grid interpolation).  Calling validates the evaluation points once;
    the wrapped kernel receives a clean float array.

    `spec` is the law, set by `DistSpec.cdf()` and by an iterate whose
    law the evaluation plan knows (see `iterate_pushforward`), and the
    plan and the KS statistic route on it.  `strategy` records how
    `iterate_pushforward` evaluated an iterate (None elsewhere); no
    computation reads it.  `dataclasses.replace(F, fn=...)` keeps both,
    so the route follows the law and not the evaluator.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str
    spec: DistSpec | None = field(default=None, kw_only=True)
    strategy: str | None = field(default=None, kw_only=True)

    def __call__(self, y):
        arr, scalar = _as_unit_array(y)
        out = np.asarray(self.fn(arr), dtype=float)
        return _restore(out, scalar)


def _uniform_kernel(arr: np.ndarray) -> np.ndarray:
    return arr.copy()


def _arcsine_kernel(arr: np.ndarray) -> np.ndarray:
    """u = (2/pi)*arcsin(sqrt(y)), the arcsine CDF and the coordinate of
    the standard grid and of the tent map at r = 4, as the angle of
    (sqrt(1 - y), sqrt(y)): arcsin(sqrt(y)) is 2.8e-9 off at 1 - 2**-53."""
    return (2.0 / np.pi) * np.arctan2(np.sqrt(arr), np.sqrt(1.0 - arr))


def _empirical_kernel(samples: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """The step CDF of the sorted samples: the share of them at or below arr."""
    return np.searchsorted(samples, arr, side="right") / samples.size


def _kumaraswamy_kernel(a: float, b: float, arr: np.ndarray) -> np.ndarray:
    """1 - (1 - y**a)**b, evaluated as -expm1(b*log(-expm1(a*log(y)))).

    Forming y**a first rounds it to the floats near 1 as y -> 1, which
    leaves the CDF flat over runs of y and then jumping (by 2.8e-8 at
    a = b = 0.25); -expm1(a*log(y)) keeps 1 - y**a to full relative
    precision.  Subtracting from +0.0 turns the -0.0 at y = 0 into 0.
    """
    with np.errstate(divide="ignore"):  # log(0) = -inf at both endpoints
        return 0.0 - np.expm1(b * np.log(-np.expm1(a * np.log(arr))))


def cdf_kumaraswamy(alpha, beta, y):
    """Kumaraswamy CDF 1 - (1 - y**alpha)**beta, accurate up to y = 1."""
    a = _positive_param(alpha, "alpha")
    b = _positive_param(beta, "beta")
    arr, scalar = _as_unit_array(y)
    return _restore(_kumaraswamy_kernel(a, b, arr), scalar)


def _beta_continued_fraction(a: float, b: float, x: np.ndarray, tol: float) -> np.ndarray:
    """Modified Lentz evaluation of the incomplete-beta continued fraction.

    Valid for x below the symmetry split (a+1)/(a+b+2); vectorized over x.
    Raises instead of returning an unconverged value.  It runs only to
    fit a side, once per process, and on the sides that no series fits
    (see `_Side`), so it allocates a new array per operation: 2-6 % slower
    than in place on 16 384 points of such a side (8.2-8.6 ms at
    (1e4, 0.05); 2-core Xeon, NumPy 2.4).
    """
    # every coefficient factor is at most (a + 2 max_iter + 1) times
    # (a + b + 2 max_iter + 1); past float range they meet as inf / inf = nan
    n = 2.0 * _BETA_CF_MAX_ITER
    if not math.isfinite((a + n + 1.0) * (a + b + n + 1.0)):
        raise ConvergenceError(
            f"incomplete-beta continued fraction: its coefficients overflow "
            f"(alpha={a:g}, beta={b:g})"
        )

    def floor(v):
        np.copyto(v, _CF_TINY, where=np.abs(v) < _CF_TINY)
        return v

    c = np.ones_like(x)
    d = 1.0 / floor(1.0 - (a + b) * x / (a + 1.0))
    h = d.copy()
    converged = np.zeros(x.shape, dtype=bool)
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        # even-index coefficient, then odd-index coefficient
        for scale, denom in (
            (m * (b - m), (a + m2 - 1.0) * (a + m2)),
            (-(a + m) * (a + b + m), (a + m2) * (a + m2 + 1.0)),
        ):
            num = scale * x / denom
            d = 1.0 / floor(1.0 + num * d)
            c = floor(1.0 + num / c)
            delta = d * c
            h *= delta
        step = np.abs(delta - 1.0)
        converged |= step < tol
        if converged.all():
            return h
    worst = float(np.max(step[~converged]))
    raise ConvergenceError(
        f"incomplete-beta continued fraction: {int((~converged).sum())} points "
        f"unconverged after {_BETA_CF_MAX_ITER} iterations (alpha={a:g}, beta={b:g}, "
        f"worst step {worst:.3e})"
    )


def _chebyshev_fit(p: float, q: float, span: float):
    """Chebyshev coefficients of h(u) = 2F1(p+q, 1; p+1; u) as a function
    of s = -ln(1 - u) on [0, span], chopped where they reach the rounding
    plateau, or None when the fit does not get there by degree
    `_CHEB_MAX_DEGREE`.

    h is analytic with its one singularity at u = 1, which s sends to
    infinity: in s the singularities nearest the interval lie at
    Im s = +-pi, so the Bernstein ellipse that avoids them is wider than
    in u and the coefficients fall faster (Trefethen, Approximation
    Theory and Approximation Practice, 2013): 15 terms for each side of
    beta(2.5, 3.5), where the fit in u took 22 and 26.  The coefficients
    are the discrete cosine transform of h at the 2 * `_CHEB_MAX_DEGREE`
    + 1 Chebyshev points, where the continued fraction evaluates h to
    rounding level at u = -expm1(-s); the coefficients past the cap
    measure the plateau, and the series keeps every coefficient above
    twice it.  A side on which the continued fraction does not converge
    gets no fit.
    """
    n = 2 * _CHEB_MAX_DEGREE
    s = (0.5 * span) * (1.0 + np.cos(np.pi / n * np.arange(n + 1)))
    try:
        values = _beta_continued_fraction(p, q, -np.expm1(-s), _BETA_CF_FIT_TOL)
    except ConvergenceError:
        return None
    coef = np.fft.rfft(np.concatenate((values, values[-2:0:-1]))).real / n
    coef[0] *= 0.5
    coef[n] *= 0.5
    size = np.abs(coef)
    plateau = size[_CHEB_MAX_DEGREE + 1:].max()
    if plateau > _CHEB_PLATEAU * size.max():
        return None
    return coef[: max(3, np.flatnonzero(size > 2.0 * plateau)[-1] + 1)]


def _clenshaw(coef: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """sum_k coef[k] T_k(t) at t = t2 / 2 for at least three coefficients,
    by Clenshaw's recurrence on three buffers: the same operations for
    every point, whatever its batch."""
    b2 = np.full_like(t2, coef[-1])
    b1 = np.multiply(t2, coef[-1])
    b1 += coef[-2]
    out = np.empty_like(t2)
    for c in coef[-3:0:-1]:
        np.multiply(t2, b1, out=out)
        out -= b2
        out += c
        b1, b2, out = out, b1, b2
    np.multiply(t2, b1, out=out)
    out *= 0.5
    out -= b2
    out += coef[0]
    return out


# Stirling corrections of TOMS 708 (DiDonato & Morris, ACM TOMS 18, 1992):
# minimax coefficients for arguments of at least 8
_STIRLING_COEF = (
    0.833333333333333e-01, -0.277777777760991e-02, 0.793650666825390e-03,
    -0.595202931351870e-03, 0.837308034031215e-03, -0.165322962780713e-02,
)
_HALF_LN_2PI = 0.918938533204672741780329736406


def _stirling_correction(x: float) -> float:
    """lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi) / 2) for x >= 8."""
    t = 1.0 / (x * x)
    s = 0.0
    for c in reversed(_STIRLING_COEF):
        s = s * t + c
    return s / x


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b), as TOMS 708 `betaln` and `algdiv` form it.

    With both shapes below 8, the difference of lgamma values, which is
    right to rounding there.  Otherwise Stirling's form with the
    corrections of `_stirling_correction`, arranged so that no terms of
    size a ln a cancel: the difference of lgamma values was 1.6e-12 off
    at (1000, 1000) and 1.8e-11 at (0.05, 1e4).  With h = a/b for a <= b,
    ln B = ln(2 pi)/2 - ln(b)/2 + (a - 1/2) ln(h/(1+h)) - b ln(1+h)
    + corrections, and for a < 8 <= b, ln B = lgamma(a) + a - (b + a -
    1/2) ln(1+h) - a ln b + corrections, the two logs subtracted smaller
    first.
    """
    a, b = min(a, b), max(a, b)
    if b < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    if a < 8.0:
        return math.lgamma(a) + _ln_gamma_ratio(a, b)
    h = a / b
    corrections = _stirling_correction(b) - _stirling_correction(a + b)
    u = -(a - 0.5) * math.log(h / (1.0 + h))
    v = b * math.log1p(h)
    front = (_HALF_LN_2PI - 0.5 * math.log(b)) + (corrections + _stirling_correction(a))
    return (front - min(u, v)) - max(u, v)


def _ln_gamma_ratio(a: float, b: float) -> float:
    """lgamma(b) - lgamma(a + b) for a < 8 <= b, from Stirling's form as
    `_ln_beta` arranges it (TOMS 708 `algdiv`)."""
    corrections = _stirling_correction(b) - _stirling_correction(a + b)
    u = (b + (a - 0.5)) * math.log1p(a / b)
    v = a * (math.log(b) - 1.0)
    return (corrections - min(u, v)) - max(u, v)


def _ln_p_beta(p: float, q: float) -> float:
    """ln(p B(p, q)), the constant of the front factor of the side of
    beta(p, q), which divides by p.

    ln p + ln B(p, q) cancels for p below 1, where ln B ~ -ln p: its
    rounding, 6e-14 at p = 1e-300, made the CDF dip by up to 7.9e-14.
    There p B(p, q) = Gamma(1+p) Gamma(q) / Gamma(p+q) keeps every term
    of order one: as lgamma(1+p) + lgamma(1+q) - lgamma(1+p+q) +
    log1p(p/q) for q below 8, which does not cancel for small q either,
    and as lgamma(1+p) + `_ln_gamma_ratio` from q = 8 on.
    """
    if p >= 1.0:
        return math.log(p) + _ln_beta(p, q)
    if q < 8.0:
        return (math.lgamma(1.0 + p) + math.lgamma(1.0 + q) - math.lgamma(1.0 + p + q)) + math.log1p(p / q)
    return math.lgamma(1.0 + p) + _ln_gamma_ratio(p, q)


def _logs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ln x and ln(1 - x): -inf at x = 0 and at x = 1 respectively."""
    ln_1mx = np.negative(x)
    with np.errstate(divide="ignore"):
        np.log1p(ln_1mx, out=ln_1mx)
        return np.log(x), ln_1mx


class _Side:
    """The side of beta(p, q) below its split (p+1)/(p+q+2).

    There I_u(p, q) = front(u) * h(u) (DLMF 8.17.8), with front(u) =
    u^p (1-u)^q / (p B(p, q)) and h(u) = 2F1(p+q, 1; p+1; u): a Chebyshev
    series in s = -ln(1 - u) on [0, -ln(1 - split)], evaluated by
    Clenshaw, or, where `_chebyshev_fit` finds none (`coef` is None), the
    continued fraction for the same function.  front is formed from ln u
    and ln(1 - u), and the series reads s from the second, so a point
    pays two logs and one exp.  By I_x(a, b) = 1 - I_(1-x)(b, a), the
    side of beta(a, b) at and above its split is the side of beta(b, a)
    below its own, in the coordinate u = 1 - x, where ln u = ln(1 - x)
    and ln(1 - u) = ln x: `_side` fits each side once for both laws, and
    no point forms 1 - x.
    """

    def __init__(self, p: float, q: float):
        self.p, self.q = p, q
        self.split = (p + 1.0) / (p + q + 2.0)
        # a split that rounds to 1 (shapes some 2**53 apart) leaves no
        # finite span in s, and no series
        span = -math.log1p(-self.split) if self.split < 1.0 else math.inf
        self.scale = -4.0 / span  # ln(1 - u) -> 2t for t in [-1, 1]
        self.coef = _chebyshev_fit(p, q, span) if span < math.inf else None
        self.ln_p_beta = _ln_p_beta(p, q)

    def h(self, ln_1mu: np.ndarray) -> np.ndarray:
        """h(u) at ln(1 - u) = -s, which it overwrites."""
        if self.coef is None:
            u = np.expm1(ln_1mu, out=ln_1mu)
            np.negative(u, out=u)
            return _beta_continued_fraction(self.p, self.q, u, _BETA_CF_TOL)
        ln_1mu *= self.scale
        ln_1mu -= 2.0
        return _clenshaw(self.coef, ln_1mu)

    def front(self, ln_u: np.ndarray, ln_1mu: np.ndarray) -> np.ndarray:
        """u^p (1-u)^q / (p B(p, q)) from ln u and ln(1 - u), 0 at u = 0
        and u = 1."""
        # p ln u overflows to -inf for shapes past about 1e305: exp gives 0
        with np.errstate(over="ignore"):
            front = np.multiply(ln_u, self.p)
            front += self.q * ln_1mu
        front -= self.ln_p_beta
        return np.exp(front, out=front)

    def from_logs(self, ln_u: np.ndarray, ln_1mu: np.ndarray):
        """(I_u(p, q), front) from ln u and ln(1 - u), which it overwrites."""
        front = self.front(ln_u, ln_1mu)
        tail = self.h(ln_1mu)
        tail *= front
        return tail, front

    def tail(self, u: np.ndarray):
        """(I_u(p, q), front) at u in [0, split].  p front divided by
        u(1-u) is the beta density, which Newton's step takes from here at
        no extra exp or log; both are 0 at u = 0."""
        return self.from_logs(*_logs(u))

    @functools.cached_property
    def inverse(self) -> "_InverseTable":
        """The quantile's start table, built on the first draw."""
        return _InverseTable(self)

    def quantile(self, t: np.ndarray) -> np.ndarray:
        """The roots u of I_u(p, q) = t for t up to the side's mass."""
        return _newton(self, t, *self.inverse.start(t))


# A side's fit is paid once per process, for beta(a, b) and beta(b, a)
# alike (2-core Xeon, NumPy 2.4): 0.3-0.6 ms a side for (0.5, 0.5) and
# (2.5, 3.5), 2-3 ms for (1000, 1000), plus 1.1-1.5 ms for the first use of
# numpy.fft.  The 15 Clenshaw terms of (2.5, 3.5) take 12-13 ns a point,
# the continued fraction 85 ns (110 ns to the fit's tolerance), so the
# fits are repaid once the same (a, b) has met some 10^4 points, as it
# does within one beta `iterate` or `simulate` command.  The first draw
# adds each side's inverse table: 2-3 CDF calls over its 1025 samples and
# 4095 knots in 1.1-2.6 ms, or 3-5 calls in 9-17 ms on a continued-fraction
# side.  With them a draw takes one pass where it took 4.2, which repays
# the tables from about 5000 draws on.
@functools.lru_cache(maxsize=128)
def _side(p: float, q: float) -> _Side:
    return _Side(p, q)


def _beta_law(a: float, b: float) -> tuple[_Side, _Side]:
    """The sides (lower, upper) of beta(a, b); one object when a = b."""
    return _side(a, b), _side(b, a)


def _side_cdf(side: _Side, ln_u: np.ndarray, ln_1mu: np.ndarray, flip: bool) -> np.ndarray:
    """The side's tail from the logs, capped at 1, and 1 - it where the
    side is the upper one (flip): the CDF at the points."""
    tail = side.from_logs(ln_u, ln_1mu)[0]
    np.minimum(tail, 1.0, out=tail)
    if flip:
        np.subtract(1.0, tail, out=tail)
    return tail


def _beta_kernel(lower: _Side, upper: _Side, arr: np.ndarray) -> np.ndarray:
    """I_x(a, b) at x = arr in [0, 1] from the sides of `_beta_law(a, b)`:
    the tail of lower below the split, and 1 - the tail of upper at 1 - x
    at and above it.  ln x and ln(1 - x) are formed once: the lower side
    reads them as they are, the upper side swapped, and each side's
    series reads its s = -ln(1 - u) from them, so no point forms 1 - x or
    pays a third log.  The sides are gathered by index (a boolean gather
    costs several times more on the interleaved sides of random points).
    Each tail is capped at 1 before the flip: at shapes of 1e-16 and
    below, a side's tail rounds above 1 by up to 2 ulps next to its
    split.

    A batch wholly on one side of the split is evaluated in place on its
    logs, with no index arrays, gathers or scatters and no run of the
    other side's series on an empty array; each point meets the same
    operations in the same order, so its value is bit for bit the split
    path's.  `_pull`'s split branches hand the base one half of [0, 1] at
    a time, so most leaf batches are one-sided: 87.5 % of the points of
    `iterate --r 3.7 --init beta:2.5,3.5 --steps 12 --grid 4096`, 65.7 %
    at r = 3.5, and 88.1 % for the r = 3.7 push-12 ensemble of 2e4 draws.
    The figure's beta column and the r = 4 push-3 ensemble's reference
    are mixed batches; only some of `verify`'s KS calls are one-sided."""
    flat = arr.reshape(-1)
    ln_x, ln_1mx = _logs(flat)
    above = flat >= lower.split
    count = np.count_nonzero(above)
    if count == 0 or count == flat.size:
        args = (upper, ln_1mx, ln_x, True) if count else (lower, ln_x, ln_1mx, False)
        return _side_cdf(*args).reshape(arr.shape)
    below, above = np.flatnonzero(~above), np.flatnonzero(above)
    out = np.empty_like(flat)
    out[below] = _side_cdf(lower, ln_x[below], ln_1mx[below], False)
    out[above] = _side_cdf(upper, ln_1mx[above], ln_x[above], True)
    return out.reshape(arr.shape)


def cdf_beta(alpha, beta, y):
    """Regularized incomplete beta function I_y(alpha, beta).

    The hypergeometric form of each side of the split (alpha+1)/(alpha+beta+2)
    is evaluated from a Chebyshev series in s = -ln(1 - u), u the side's
    coordinate, fitted once per (alpha, beta), so a value does not depend
    on the other points of its call.  A side that no series of degree 256
    captures (a split next to 1, as for the lower side of beta(1e5, 50))
    takes the continued fraction, which raises ConvergenceError rather
    than return an unconverged value; so do shapes past about 1e150, whose
    continued fraction overflows.
    """
    a = _positive_param(alpha, "alpha")
    b = _positive_param(beta, "beta")
    arr, scalar = _as_unit_array(y)
    return _restore(_beta_kernel(*_beta_law(a, b), arr), scalar)


def _newton(side: _Side, t, x, lo, hi) -> np.ndarray:
    """Roots of I_x(p, q) = t on the side, by safeguarded Newton from the
    starts x in the brackets [lo, hi].

    rtsafe (Press et al., Numerical Recipes, section 9.4), vectorized: every
    CDF pass narrows each bracket, and a point bisects whenever its Newton
    step would leave the bracket or is not under half the step before last.
    Only unconverged points are evaluated, each from its own values, so on
    a Chebyshev series no root depends on the other points of its call.
    A point is done once its step or its bracket falls below
    `_QUANTILE_RTOL` times x; a start at 0 or 1 is returned as is.  Raises
    ConvergenceError past `_QUANTILE_MAX_PASSES` passes instead of
    returning an unconverged value.
    """
    out = x.copy()
    todo = np.arange(x.size)
    step = np.ones_like(x)
    step_old = np.ones_like(x)
    done = (x == 0.0) | (x == 1.0)
    for passes in range(_QUANTILE_MAX_PASSES + 1):
        if done.any():
            out[todo[done]] = x[done]
            keep = np.flatnonzero(~done)
            todo, t, lo, hi, x, step, step_old = (v.take(keep) for v in (todo, t, lo, hi, x, step, step_old))
        if not todo.size:
            return out
        if passes == _QUANTILE_MAX_PASSES:
            raise ConvergenceError(
                f"beta quantile: {todo.size} points unconverged after {passes} "
                f"CDF passes (the side of beta({side.p:g}, {side.q:g}) below its split)"
            )
        tail, front = side.tail(x)
        g = tail - t
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            density = side.p * front / (x * (1.0 - x))  # inf at a subnormal root: a step of 0
            newton = g / density
            target = x - newton
            bisect = ~((target >= lo) & (target <= hi) & (np.abs(2.0 * g) <= np.abs(step_old * density)))
        step_old = step
        step = np.where(bisect, 0.5 * (hi - lo), newton)
        x = np.where(bisect, lo + step, target)
        tol = _QUANTILE_RTOL * np.maximum(x, _TINY)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)


def _inverse_cells(side: _Side, sigma: float, end, w, t, x) -> list:
    """The cubic Hermite interpolant through the points (w, x) of an
    `_InverseTable`, as the coefficients c0..c3 of each cell, in
    x = c0 + u (c1 + u (c2 + u c3)) for the cell's coordinate u in [0, 1],
    and the cell's end.  The slope dx/dw at a point is sigma t / (w f(x)),
    with f = p front / (x (1 - x)) the beta density, and `end` at w = 0; a
    slope that is not finite is replaced by the cell's secant."""
    with np.errstate(divide="ignore", invalid="ignore"):  # and inf * 0 where t underflows
        m = sigma * t / w * (x * (1.0 - x)) / (side.p * side.front(*_logs(x)))
        m[0] = end
        dw = np.diff(w)
        m0, m1 = m[:-1] * dw, m[1:] * dw
    x0, x1 = x[:-1], x[1:]
    secant = x1 - x0
    m0 = np.where(np.isfinite(m0), m0, secant)
    m1 = np.where(np.isfinite(m1), m1, secant)
    return [x0, m0, 3.0 * secant - 2.0 * m0 - m1, m0 + m1 - 2.0 * secant, x1]


def _hermite(cells: list, j: np.ndarray, u: np.ndarray):
    """Value, start and end of cell j of `_inverse_cells` at u, the value
    held inside the cell: a start and bracket for `_newton`."""
    c0, c1, c2, c3, end = (c.take(j) for c in cells)
    x = c3 * u
    x += c2
    x *= u
    x += c1
    x *= u
    x += c0
    return np.minimum(np.maximum(x, c0), end), c0, end


class _InverseTable:
    """A cubic Hermite table of the quantile of one `_Side`.

    The side holds the tails t up to its mass m, its tail at the split.
    The table maps w = (t / m)**(1/sigma) in [0, 1] to the root x, at
    `_INVERSE_CELLS` + 1 knots uniform in w, so a point finds its cell by
    arithmetic.  With sigma the side's endpoint exponent p,
    t ~ x^p / (p B(p, q)) makes x an analytic function of w up to 0,
    where x / w tends to (p B(p, q) m)**(1/p), so the interpolant keeps
    its relative accuracy in the far tail.  sigma is capped at
    `_INVERSE_MAX_EXPONENT`: for large p, t**(1/p) packs the bulk of the
    side into a few cells next to w = 1.

    The knots are roots found by `_newton` after one CDF pass at
    `_INVERSE_SAMPLES` + 1 Chebyshev points of the side.  A knot starts
    from the same kind of interpolant through the samples, inside the two
    samples around it, which bracket it.
    """

    def __init__(self, side: _Side):
        p, cells = side.p, _INVERSE_CELLS
        # the one CDF pass: the tail at the side's Chebyshev points, ends included
        x = side.split * (0.5 - 0.5 * np.cos(np.pi / _INVERSE_SAMPLES * np.arange(_INVERSE_SAMPLES + 1)))
        t = side.tail(x)[0]
        self.mass = mass = t[-1]
        self.inv_mass = 1.0 / mass
        self.sigma = sigma = min(p, _INVERSE_MAX_EXPONENT)
        # where sigma is capped, cell 0 starts from the tail's power law
        # x = (p B(p, q) t)**(1/p) instead: exact as t -> 0, where that
        # cell's interpolant is orders of magnitude off
        capped = sigma < p
        self.tail_law = (1.0 / p, side.ln_p_beta / p) if capped else None
        with np.errstate(over="ignore"):  # x / w at w = 0, where sigma is not capped
            end = np.inf if capped else np.exp((side.ln_p_beta + np.log(mass)) / p)
        # Each knot k / cells starts from the interpolant through the samples,
        # in the cell j of the two samples around it, which bracket it: cell j
        # holds the knots with ceil(w_j cells) <= k < ceil(w_(j+1) cells).
        # cells is a power of two, so w cells is exact.
        w = (np.minimum(np.maximum.accumulate(t), mass) / mass) ** (1.0 / sigma)
        j = np.repeat(np.arange(_INVERSE_SAMPLES), np.diff(np.ceil(w * cells).astype(np.intp)))[1:]
        wk = np.arange(cells + 1) / cells
        u = (wk[1:-1] - w[j]) / np.diff(w)[j]
        tk = mass * wk**sigma
        xk = _newton(side, tk[1:-1], *_hermite(_inverse_cells(side, sigma, end, w, t, x), j, u))
        # the table: the knots at w = 0, 1/cells, ..., 1
        self.cells = _inverse_cells(side, sigma, end, wk, tk, np.concatenate((x[:1], xk, x[-1:])))

    def start(self, t: np.ndarray):
        """Start x and bracket [lo, hi] of the root of I_x(p, q) = t, from
        the table cell that w falls in."""
        cells = _INVERSE_CELLS
        v = (t * self.inv_mass) ** (1.0 / self.sigma)
        v *= cells
        j = np.minimum(v.astype(np.intp), cells - 1)
        x, lo, hi = _hermite(self.cells, j, v - j)
        if self.tail_law is not None:
            inv_p, shift = self.tail_law
            first = np.flatnonzero(j == 0)
            x[first] = np.minimum(np.exp(np.log(t[first]) * inv_p + shift), hi[first])
        return x, lo, hi


def _beta_quantile(a: float, b: float, p: np.ndarray) -> np.ndarray:
    """Invert the beta CDF at p in [0, 1], in place.

    A p up to the mass of the lower side is solved there at t = p, any
    other on the upper side at t = 1 - p, whose root x stands for 1 - x:
    the one place where the two sides meet.  `_Side.quantile` starts each
    point from its side's inverse table, inside the bracket of its cell,
    and `_newton` confirms it: one CDF pass and one Newton step finish all
    but a few in a thousand.  p = 0 and p = 1 map to exactly 0 and 1, and
    so does a p whose start rounds to an end.

    The points go through the tables and `_newton` in `_blocks`, so that
    their temporaries stay in cache, and each block's roots are written
    back into p, which the caller gives up.  Where both sides are
    Chebyshev series no root depends on the other points of its call, so
    the blocks do not move a draw.
    """
    lower, upper = _beta_law(a, b)
    mass = lower.inverse.mass
    for span in _blocks(p.size):
        block = p[span]
        below = np.flatnonzero((block > 0.0) & (block <= mass))
        above = np.flatnonzero((block > mass) & (block < 1.0))
        t_below, t_above = block[below], 1.0 - block[above]
        np.copyto(block, block >= 1.0)  # 0 and 1 stay; -0.0 becomes +0.0
        block[below] = lower.quantile(t_below)
        block[above] = 1.0 - upper.quantile(t_above)
    return p


class _Owned:
    """Samples that the caller created and gives up: passed as
    `DistSpec("empirical", samples=_Owned(x))`, the 1-D float array x is
    sorted in place and kept, where other samples are sorted into a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


@dataclass(frozen=True, eq=False)
class DistSpec:
    """Symbolic description of a distribution on [0, 1].

    `alpha`/`beta` are required for the beta and Kumaraswamy families and
    must be absent otherwise; `samples` is required for empirical specs
    and is stored as a sorted copy, so the array passed in is left as it is.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; expected one of {', '.join(_FAMILIES)}"
            )
        if self.family in _PARAMETRIC_FAMILIES:
            if self.alpha is None or self.beta is None:
                raise ParameterError(f"family {self.family!r} requires alpha and beta")
            object.__setattr__(self, "alpha", _positive_param(self.alpha, "alpha"))
            object.__setattr__(self, "beta", _positive_param(self.beta, "beta"))
        elif self.alpha is not None or self.beta is not None:
            raise ParameterError(f"family {self.family!r} takes no shape parameters")
        if self.family == "empirical":
            if self.samples is None:
                raise ParameterError("empirical spec requires samples")
            if isinstance(self.samples, _Owned):
                arr = self.samples.array
                arr.sort()
            else:
                arr = np.sort(np.asarray(self.samples, dtype=float).ravel())
            if arr.size == 0:
                raise ParameterError("empirical spec needs at least one sample")
            if not (arr[0] >= 0.0 and arr[-1] <= 1.0):  # sorting puts NaN last
                raise ParameterError("empirical samples must lie in [0, 1]")
            object.__setattr__(self, "samples", arr)
        elif self.samples is not None:
            raise ParameterError("samples are only valid for the empirical family")

    @classmethod
    def parse(cls, text: str) -> "DistSpec":
        """Parse a spec string of the form `family` or `family:alpha,beta`.

        Examples: "uniform", "arcsine", "beta:0.5,0.5", "kumaraswamy:1,0.5".
        """
        name, sep, params = str(text).strip().partition(":")
        family = name.strip().lower()
        if family == "empirical" or family not in _FAMILIES:
            raise ParameterError(
                f"cannot parse distribution {text!r}; expected "
                f"uniform, arcsine, beta:a,b, or kumaraswamy:a,b"
            )
        if family in _PARAMETRIC_FAMILIES:
            parts = params.split(",") if sep else []
            if len(parts) != 2:
                raise ParameterError(
                    f"family {family!r} needs two parameters, e.g. '{family}:2,3'"
                )
            try:
                a, b = (float(part) for part in parts)
            except ValueError as exc:
                raise ParameterError(f"cannot parse parameters in {text!r}") from exc
            return cls(family, a, b)
        if sep:
            raise ParameterError(f"family {family!r} takes no parameters")
        return cls(family)

    @property
    def label(self) -> str:
        if self.family in _PARAMETRIC_FAMILIES:
            return f"{self.family}({self.alpha:g},{self.beta:g})"
        if self.family == "empirical":
            return f"empirical[n={self.samples.size}]"
        return self.family

    def cdf(self) -> Cdf:
        """Realize the spec as a callable CDF that carries the spec."""
        if self.family == "kumaraswamy":
            kernel = functools.partial(_kumaraswamy_kernel, self.alpha, self.beta)
        elif self.family == "beta":
            kernel = functools.partial(_beta_kernel, *_beta_law(self.alpha, self.beta))
        elif self.family == "empirical":
            kernel = functools.partial(_empirical_kernel, self.samples)
        else:
            kernel = _uniform_kernel if self.family == "uniform" else _arcsine_kernel
        provenance = self.label if self.family == "empirical" else f"closed-form:{self.label}"
        return Cdf(kernel, provenance, spec=self)

    def quantile(self, p):
        """Evaluate the quantile function at probability p.

        The beta law has no closed-form inverse: its CDF is inverted by
        Newton from a cached inverse table, safeguarded by the table's
        bracket, which stops once a step moves the root by less than 1e-13
        of its distance from 0 below the split (a+1)/(a+b+2) and from 1
        above it (of the smallest normal float where that is subnormal),
        with p = 0 and p = 1 mapped to exactly 0 and 1.  Empirical
        specs have no quantile; use `sample`, which bootstraps.
        """
        if self.family == "empirical":
            raise ParameterError("empirical specs are sampled by bootstrap, not by quantile")
        arr, scalar = _as_unit_array(p, "p")
        return _restore(self._invert(arr.copy()), scalar)

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """The quantiles of a closed-form family at the probabilities u, a
        float array in [0, 1] that the caller gives up, computed in place
        in u."""
        if self.family == "arcsine":
            u *= 0.5 * np.pi
            np.sin(u, out=u)
            u **= 2
        elif self.family == "kumaraswamy":
            # 1 - (1 - p)**(1/b), without cancelling for small p; the in-place
            # power takes NumPy's scalar-power path, as `**` does
            np.negative(u, out=u)
            with np.errstate(divide="ignore"):  # log1p(-1) = -inf at p = 1
                np.log1p(u, out=u)
            u /= self.beta
            np.expm1(u, out=u)
            np.negative(u, out=u)
            u **= 1.0 / self.alpha
        elif self.family == "beta":
            u = _beta_quantile(self.alpha, self.beta, u.ravel()).reshape(u.shape)
        return u


def sample(dist: DistSpec, n: int, seed: int) -> np.ndarray:
    """Draw n values from the spec, deterministically for a fixed seed.

    Closed-form families use inversion of uniform draws; empirical specs
    bootstrap (resample with replacement from the stored samples).
    """
    count = _count(n, "sample count", 1)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    if dist.family == "empirical":
        idx = rng.integers(0, dist.samples.size, size=count)
        return dist.samples[idx]
    return dist._invert(rng.random(count))
