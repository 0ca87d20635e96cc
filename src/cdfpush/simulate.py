"""Deterministic orbits and seeded Monte Carlo ensembles of the map.

Trajectory simulation is the independent check on the pushforward
operator: ensembles of sampled points pushed through the map pointwise
should match the operator's output distribution, and at r = 4 a single
long orbit should match the arcsine law.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import DistSpec, _blocks, _count, _Owned, sample
from .errors import DegenerateOrbitError, DomainError
from .pushforward import validate_map_param

__all__ = [
    "DEFAULT_BURN_IN",
    "ErgodicRun",
    "Trajectory",
    "ensemble_push",
    "ergodic_empirical",
    "trajectory",
]

DEFAULT_BURN_IN = 1000
# tail window and span used to detect orbits collapsed onto an attractor,
# and the longest period of a cycle that the window is checked for
DEGENERATE_WINDOW = 100
DEGENERATE_SPAN = 1e-15
MAX_CYCLE_PERIOD = 64
ERGODIC_X0_RANGE = (0.01, 0.99)
MAX_ERGODIC_RETRIES = 8
# the fewest samples of an ensemble and states of an orbit that make a
# usable empirical CDF
MIN_ENSEMBLE_SAMPLES = 100
MIN_ERGODIC_STEPS = 10_000
# `trajectory` steps the map in Python floats and stores only the state that
# starts each block of 64 steps, in the slot of the block's last state; NumPy
# then fills in the blocks, 1024 at a time through a 64 x 1024 work buffer
# (512 KiB).  For 2e6 steps at r = 4 this took 63 ms, 7 of them in the fill,
# against 73 ms for the former 16 states per struct.pack_into call; blocks of
# 32 took 69 ms, and fills of 512 or 256 blocks at a time 11 and 16 ms, as the
# fill's time is mostly that of its ufunc calls (medians of 9, 2-core Xeon,
# Python 3.11, NumPy 2.4).
_BLOCK = 64
_FILL_ROWS = 1024


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded orbit after burn-in.

    `degenerate` marks collapsed orbits: absorption at an endpoint, a
    tail parked on an exact fixed point, a tail whose spread has fallen
    below rounding resolution, or a tail that repeats itself exactly with
    a period of at most `MAX_CYCLE_PERIOD`, a stable cycle; `period` is
    that cycle's period, 0 when the tail repeats with none.
    """

    r: float
    x0: float
    burn_in: int
    states: np.ndarray
    degenerate: bool
    period: int = 0

    @property
    def n(self) -> int:
        return int(self.states.size)


def _cycle_period(states: np.ndarray) -> int:
    """The least p <= `MAX_CYCLE_PERIOD` with tail[p:] == tail[:-p] on the
    tail window, or 0.  A chaotic orbit never repeats this way: r = 3.2,
    3.5 and 3.83 settle on periods 2, 4 and 3, r = 3.7 and 4 on none."""
    tail = states[-DEGENERATE_WINDOW:]
    for p in range(1, min(MAX_CYCLE_PERIOD, tail.size - 1) + 1):
        if np.array_equal(tail[p:], tail[:-p]):
            return p
    return 0


def _is_degenerate(r: float, states: np.ndarray, period: int) -> bool:
    # 0 is absorbing and 1 maps to 0, so an orbit that hits an endpoint ends
    # on 0, a fixed point, or its last state is the hit of 1
    if period or states[-1] == 1.0:
        return True
    tail = states[-DEGENERATE_WINDOW:]
    if tail.size >= 2 and float(tail.max() - tail.min()) < DEGENERATE_SPAN:
        return True
    last = float(states[-1])
    return r * last * (1.0 - last) == last


def _fill_blocks(rr: float, states: np.ndarray) -> None:
    """Fill in whole blocks of `_BLOCK` states whose last slot holds the
    state that starts the block: `_BLOCK` steps of all the block starts
    at once, `_FILL_ROWS` blocks at a time, each step with the roundings
    of rr * x * (1.0 - x)."""
    blocks = states.reshape(-1, _BLOCK)
    work = np.empty((_BLOCK, min(_FILL_ROWS, len(blocks))))
    gap = np.empty(work.shape[1])
    for first in range(0, len(blocks), _FILL_ROWS):
        chunk = blocks[first : first + _FILL_ROWS]
        rows, g = work[:, : len(chunk)], gap[: len(chunk)]
        x = chunk[:, -1]
        for row in rows:
            np.subtract(1.0, x, out=g)
            np.multiply(x, rr, out=row)
            row *= g
            x = row
        chunk[...] = rows.T


def trajectory(r, x0, steps, burn_in: int = DEFAULT_BURN_IN) -> Trajectory:
    """Iterate the map from x0, discard burn_in states, record `steps` more.

    The Python loop only steps the map, `_BLOCK` steps at a time, and
    stores the state that starts each block in the slot of the block's
    last state; `_fill_blocks` then computes the blocks from those starts
    in NumPy, and the loop records the last `steps % _BLOCK` states one by
    one.  NumPy rounds each operation as Python does, fuses no two into
    an FMA and keeps subnormals, so the states are bit for bit those of
    the plain loop `x = r * x * (1.0 - x)`.
    """
    rr = validate_map_param(r)
    start = float(x0)
    if not 0.0 <= start <= 1.0:
        raise DomainError(f"x0 must lie in [0, 1]; got {x0!r}")
    n_record = _count(steps, "steps", 1)
    n_burn = _count(burn_in, "burn_in", 0)
    states = np.empty(n_record)  # before the loop: a size too large fails at once
    put = memoryview(states)  # its item stores cost less than those of the ndarray
    x = start
    for _ in range(n_burn):
        x = rr * x * (1.0 - x)
    filled = n_record - n_record % _BLOCK
    for last in range(_BLOCK - 1, filled, _BLOCK):
        put[last] = x
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
        x = rr * x * (1.0 - x)
    _fill_blocks(rr, states[:filled])
    for i in range(filled, n_record):
        x = rr * x * (1.0 - x)
        put[i] = x
    period = _cycle_period(states)
    return Trajectory(rr, start, n_burn, states, _is_degenerate(rr, states, period), period)


def ensemble_push(dist: DistSpec, r, n_steps: int, n_samples: int, seed: int) -> DistSpec:
    """Sample the spec, push every point n_steps through the map in
    lockstep, and return the final ensemble as an empirical spec.

    The sample is pushed in place, one of its `_blocks` at a time through
    all the steps, as fl(fl(r x) fl(1 - x)): the roundings of
    `r * x * (1.0 - x)`.  The spec then sorts the pushed sample in place.
    """
    rr = validate_map_param(r)
    count = _count(n_samples, "n_samples", MIN_ENSEMBLE_SAMPLES)
    steps = _count(n_steps, "n_steps", 0)
    x = sample(dist, count, seed)
    blocks = _blocks(count)
    scratch = np.empty(-(-count // len(blocks)))  # the size of the largest block
    for span in blocks:
        block = x[span]
        gap = scratch[:block.size]
        for _ in range(steps):
            np.subtract(1.0, block, out=gap)
            block *= rr
            block *= gap
    return DistSpec("empirical", samples=_Owned(x))


@dataclass(frozen=True, eq=False)
class ErgodicRun:
    """Empirical spec of one long orbit plus degeneracy diagnostics:
    `period` is that of the cycle the orbit settled on, 0 if none."""

    empirical: DistSpec
    r: float
    x0: float
    burn_in: int
    degenerate_attractor: bool
    period: int = 0


def ergodic_empirical(r, total_steps, burn_in: int = DEFAULT_BURN_IN, seed: int = 0) -> ErgodicRun:
    """Empirical CDF of a single seeded orbit of length total_steps.

    The start point is drawn uniformly from (0.01, 0.99).  At r = 4 a
    degenerate orbit means a measure-zero start, so the draw is retried
    a bounded number of times before DegenerateOrbitError; away from
    r = 4 the attractor itself may be degenerate, so the first orbit is
    returned with the flag set for the caller to inspect.  A collapsed
    orbit is released before the next one is drawn, and the states of the
    one returned are sorted in place into its empirical spec, so the call
    holds one array of total_steps states at a time.
    """
    rr = validate_map_param(r)
    steps = _count(total_steps, "total_steps", MIN_ERGODIC_STEPS)
    rng = np.random.default_rng(_count(seed, "seed", 0))
    low, high = ERGODIC_X0_RANGE
    for _ in range(MAX_ERGODIC_RETRIES):
        x0 = low + (high - low) * float(rng.random())
        run = trajectory(rr, x0, steps, burn_in)
        if rr == 4.0 and run.degenerate:
            del run
            continue
        return ErgodicRun(
            DistSpec("empirical", samples=_Owned(run.states)), rr, x0, run.burn_in, run.degenerate, run.period
        )
    raise DegenerateOrbitError(
        f"all {MAX_ERGODIC_RETRIES} seeded orbits at r={rr:g} collapsed onto a degenerate set"
    )
