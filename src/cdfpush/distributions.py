"""Distribution primitives on the unit interval.

`DistSpec` describes the uniform, arcsine, beta, Kumaraswamy and
empirical families and realizes each as a `Cdf`, with quantiles and
seeded sampling.  `cdf_beta` and `cdf_kumaraswamy` evaluate the two
parametric closed forms directly.  All evaluators are vectorized over
numpy arrays and accept plain floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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

_BETA_CF_TOL = 1e-12
_BETA_CF_MAX_ITER = 300
# beta quantile: a point is done once its Newton step or its bracket is this
# small.  Deep tails alternate Newton and bisection steps: beta(50, 1e5) at
# p = 5e-324 takes 82 passes, bisection alone 41.
_NEWTON_STEP_TOL = 1e-15
_BRACKET_TOL = 1e-12
_QUANTILE_MAX_PASSES = 100
# floor keeping Lentz denominators away from zero without disturbing the value
_CF_TINY = 1e-300

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


def _integer(value, name: str) -> int:
    """A count or size as an int: Python and NumPy integers pass, anything
    else (a float, a string) raises instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer; got {value!r}") from None


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
    """

    fn: Callable[[np.ndarray], np.ndarray]
    provenance: str

    def __call__(self, y):
        arr, scalar = _as_unit_array(y)
        out = np.asarray(self.fn(arr), dtype=float)
        return _restore(out, scalar)


def _uniform_kernel(arr: np.ndarray) -> np.ndarray:
    return arr.copy()


def _arcsine_kernel(arr: np.ndarray) -> np.ndarray:
    """(2/pi)*arcsin(sqrt(y)): the arcsine CDF, and the coordinate in
    which the standard grid of `pushforward` is uniform."""
    return (2.0 / np.pi) * np.arcsin(np.sqrt(arr))


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


def _beta_continued_fraction(a: float, b: float, x: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Modified Lentz evaluation of the incomplete-beta continued fraction.

    Valid for x below the symmetry split (a+1)/(a+b+2); vectorized over x.
    Raises instead of returning an unconverged value.  The loop works in
    place on preallocated buffers; each `out=` ufunc rounds exactly as the
    expression it replaces.
    """
    c = np.ones_like(x)
    d = 1.0 - (a + b) * x / (a + 1.0)
    num = np.empty_like(x)
    delta = np.empty_like(x)  # also scratch for |d| and |c| before it is formed
    small = np.empty(x.shape, dtype=bool)
    converged = np.zeros(x.shape, dtype=bool)

    def floor(v):
        np.less(np.abs(v, out=delta), _CF_TINY, out=small)
        np.copyto(v, _CF_TINY, where=small)

    floor(d)
    np.divide(1.0, d, out=d)
    h = d.copy()
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # even-index coefficient, then odd-index coefficient
        for scale, denom in (
            (m * (b - m), (a + m2 - 1.0) * (a + m2)),
            (-(a + m) * (a + b + m), (a + m2) * (a + m2 + 1.0)),
        ):
            np.divide(np.multiply(x, scale, out=num), denom, out=num)
            np.add(np.multiply(num, d, out=d), 1.0, out=d)
            floor(d)
            np.add(np.divide(num, c, out=c), 1.0, out=c)
            floor(c)
            np.divide(1.0, d, out=d)
            h *= np.multiply(d, c, out=delta)
        # num is free until the next coefficient: it holds |delta - 1|
        np.abs(np.subtract(delta, 1.0, out=num), out=num)
        converged |= np.less(num, tol, out=small)
        if converged.all():
            return h
    worst = float(np.max(num[~converged]))
    raise ConvergenceError(
        f"incomplete-beta continued fraction: {int((~converged).sum())} points "
        f"unconverged after {max_iter} iterations (alpha={a:g}, beta={b:g}, "
        f"worst step {worst:.3e})"
    )


def _regularized_incomplete_beta(a: float, b: float, y: np.ndarray, tol: float, max_iter: int):
    """I_y(a, b), and the factor y**a (1-y)**b / B(a, b) in front of its
    continued fraction (0 at the endpoints), as two arrays like y.

    The factor divided by y(1-y) is the beta density, which Newton's step
    in `_beta_quantile` takes from here at no extra exp or log.
    """
    interior = (y > 0.0) & (y < 1.0)
    whole = bool(interior.all())
    x = y if whole else y[interior]
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = np.exp(a * np.log(x) + b * np.log1p(-x) - ln_beta)
    res = np.empty_like(x)
    direct = x < (a + 1.0) / (a + b + 2.0)
    if direct.any():
        cf = _beta_continued_fraction(a, b, x[direct], tol, max_iter)
        res[direct] = front[direct] * cf / a
    flipped = ~direct
    if flipped.any():
        cf = _beta_continued_fraction(b, a, 1.0 - x[flipped], tol, max_iter)
        res[flipped] = 1.0 - front[flipped] * cf / b
    if whole:
        return res, front
    out = np.where(y == 1.0, 1.0, 0.0)
    out[interior] = res
    full_front = np.zeros_like(y)
    full_front[interior] = front
    return out, full_front


def cdf_beta(alpha, beta, y):
    """Regularized incomplete beta function I_y(alpha, beta).

    Continued-fraction evaluation with the symmetry split at
    (alpha+1)/(alpha+beta+2); non-convergence raises ConvergenceError
    rather than returning a silently wrong value.
    """
    a = _positive_param(alpha, "alpha")
    b = _positive_param(beta, "beta")
    arr, scalar = _as_unit_array(y)
    out, _ = _regularized_incomplete_beta(a, b, arr, _BETA_CF_TOL, _BETA_CF_MAX_ITER)
    return _restore(out, scalar)


def _beta_quantile(a: float, b: float, p: np.ndarray) -> np.ndarray:
    """Invert the beta CDF at p in [0, 1] by safeguarded Newton.

    rtsafe (Press et al., Numerical Recipes, section 9.4), vectorized: every
    CDF pass narrows a bracket [lo, hi] around each root, and a point
    bisects whenever its Newton step would leave the bracket or is not
    under half the step before last.  Only unconverged points are
    evaluated.  A point is done once its step falls below
    `_NEWTON_STEP_TOL` or its bracket below `_BRACKET_TOL`; p = 0 and
    p = 1 map to exactly 0 and 1.  Raises ConvergenceError past
    `_QUANTILE_MAX_PASSES` passes instead of returning an unconverged
    value.
    """
    out = np.where(p < 1.0, 0.0, 1.0)
    todo = np.flatnonzero((p > 0.0) & (p < 1.0))
    q = p[todo]
    lo = np.zeros_like(q)
    hi = np.ones_like(q)
    x = np.full_like(q, 0.5)
    step = np.ones_like(q)
    step_old = np.ones_like(q)
    for _ in range(_QUANTILE_MAX_PASSES):
        if not todo.size:
            break
        F, front = _regularized_incomplete_beta(a, b, x, _BETA_CF_TOL, _BETA_CF_MAX_ITER)
        g = F - q
        below = g < 0.0
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        density = front / (x * (1.0 - x))
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = g / density
            target = x - newton
            bisect = ~((target >= lo) & (target <= hi) & (np.abs(2.0 * g) <= np.abs(step_old * density)))
        step_old = step
        step = np.where(bisect, 0.5 * (hi - lo), newton)
        x = np.where(bisect, lo + step, target)
        done = (np.abs(step) < _NEWTON_STEP_TOL) | (hi - lo < _BRACKET_TOL)
        out[todo[done]] = x[done]
        keep = ~done
        todo, q, lo, hi, x, step, step_old = (
            v[keep] for v in (todo, q, lo, hi, x, step, step_old)
        )
    if todo.size:
        raise ConvergenceError(
            f"beta quantile: {todo.size} points unconverged after "
            f"{_QUANTILE_MAX_PASSES} CDF passes (alpha={a:g}, beta={b:g})"
        )
    return out


@dataclass(frozen=True, eq=False)
class DistSpec:
    """Symbolic description of a distribution on [0, 1].

    `alpha`/`beta` are required for the beta and Kumaraswamy families and
    must be absent otherwise; `samples` is required for empirical specs
    and is stored sorted.
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
            arr = np.sort(np.asarray(self.samples, dtype=float).ravel())
            if arr.size == 0:
                raise ParameterError("empirical spec needs at least one sample")
            if not ((arr >= 0.0) & (arr <= 1.0)).all():
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
        """Realize the spec as a callable CDF."""
        if self.family == "uniform":
            kernel = _uniform_kernel
        elif self.family == "arcsine":
            kernel = _arcsine_kernel
        elif self.family == "kumaraswamy":
            a, b = self.alpha, self.beta

            def kernel(arr, a=a, b=b):
                return _kumaraswamy_kernel(a, b, arr)

        elif self.family == "beta":
            a, b = self.alpha, self.beta

            def kernel(arr, a=a, b=b):
                return _regularized_incomplete_beta(a, b, arr, _BETA_CF_TOL, _BETA_CF_MAX_ITER)[0]

        else:
            samples = self.samples

            def kernel(arr, samples=samples):
                return np.searchsorted(samples, arr, side="right") / samples.size

        if self.family == "empirical":
            provenance = self.label
        else:
            provenance = f"closed-form:{self.label}"
        return Cdf(kernel, provenance=provenance)

    def quantile(self, p):
        """Evaluate the quantile function at probability p.

        The beta law has no closed-form inverse: its CDF is inverted by
        safeguarded Newton to within 1e-12, with p = 0 and p = 1 mapped to
        exactly 0 and 1.  Empirical specs have no quantile; use `sample`,
        which bootstraps.
        """
        if self.family == "empirical":
            raise ParameterError("empirical specs are sampled by bootstrap, not by quantile")
        arr, scalar = _as_unit_array(p, "p")
        if self.family == "uniform":
            out = arr.copy()
        elif self.family == "arcsine":
            out = np.sin(0.5 * np.pi * arr) ** 2
        elif self.family == "kumaraswamy":
            out = (1.0 - (1.0 - arr) ** (1.0 / self.beta)) ** (1.0 / self.alpha)
        else:
            out = _beta_quantile(self.alpha, self.beta, arr)
        return _restore(out, scalar)


def sample(dist: DistSpec, n: int, seed: int) -> np.ndarray:
    """Draw n values from the spec, deterministically for a fixed seed.

    Closed-form families use inversion of uniform draws; empirical specs
    bootstrap (resample with replacement from the stored samples).
    """
    count = _integer(n, "sample count")
    if count < 1:
        raise ParameterError(f"sample count must be >= 1; got {n!r}")
    rng = np.random.default_rng(seed)
    if dist.family == "empirical":
        idx = rng.integers(0, dist.samples.size, size=count)
        return dist.samples[idx]
    u = rng.random(count)
    return np.asarray(dist.quantile(u), dtype=float)
