"""Command-line interface.

Subcommands: `iterate` (pushforward iterates on a grid), `figure`
(iterates next to the three reference laws), `verify` (the check
battery), and `simulate` (Monte Carlo ensembles and long orbits).
Tables are emitted as CSV or JSON with a reproducibility meta block and
no timestamps, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
`--out` or a stdout that cannot be written), 3 numerical-integrity
failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ks_band, ks_statistic
from .distributions import _CACHE_BLOCK, DistSpec, cdf_beta, cdf_kumaraswamy
from .errors import (
    DegenerateOrbitError,
    DomainError,
    NumericsError,
    ParameterError,
    ResourceLimitError,
)
from .pushforward import DEFAULT_GRID_SIZE, iterate_pushforward, iterates, standard_grid
from .simulate import DEFAULT_BURN_IN, ensemble_push, ergodic_empirical
from .verify import run_verification

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICS = 3


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {
        "command": args.command,
        "r": args.r,
        "seed": args.seed,
        "grid": args.grid,
        "format": args.fmt,
        "package": f"cdfpush {__version__}",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    meta.update(extra)
    return meta


def _write_text(pieces: list[str], out: str | None) -> None:
    """Write the strings in order to `out` or, when empty, stdout.  A path
    that cannot be written, or a stdout that cannot (its reader has gone,
    as after `| head -1`, or its disk is full), raises `ParameterError`;
    stdout is then pointed at the null device, so that the interpreter's
    flush at exit has nothing to report."""
    if not out:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ParameterError(f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with Path(out).open("w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from None


# Float cells.  A float x in (0, 1) is y * 10**(E - 16) with y = x * 10**(16 - E)
# in [1e16, 1e17).  y is formed in double-double: Dekker's exact product (Numer.
# Math. 18, 1971) of x and the double nearest 10**(16 - E), plus x times that
# power's remainder, gives y = p + e with p an integer and |e| < 32, off by
# about 2**-46.  The 17 digits of `%.17g` are y rounded half to even.  Those of
# the JSON repr, Python's shortest round-trip repr, are, of the integers in
# y's rounding interval with the most trailing zeros, the one nearest y.
# Where a tie or an end of the interval lies within `_UNDECIDED` of the
# double-double, Python formats the cell.
_UNDECIDED = 2.0**-30
_SPLITTER = 2.0**27 + 1  # Veltkamp: c - (c - v) with c = _SPLITTER * v is v's upper 26 bits
_FAST_MIN = 1e-280  # from here up, 10**(16 - E) and its split stay finite
_POW10_MIN, _POW10_MAX = 16, 297  # 16 - E for E in [-281, 0]: log10 may put x just below 1 at E = 0
_EXPONENT_MIN = -281
_FEW_FLOATS = 256  # Python formats fewer floats faster than _float_cells' 0.1 ms of fixed cost
_FLOAT_CELL = "S24"  # the widest float cell, "-2.2250738585072014e-308"; a set width saves a pass


@functools.cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10**k for k in [`_POW10_MIN`, `_POW10_MAX`] as double-doubles hi + lo,
    with hi's upper and lower 26 bits; built on the first float cell, with
    integer arithmetic."""
    hi, lo = [], []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        hi.append(float(10**k))  # int to float rounds to nearest
        lo.append(float(10**k - int(hi[-1])))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLITTER * hi
    upper = c - (c - hi)
    return hi, lo, upper, hi - upper


@functools.cache
def _cell_pieces() -> tuple[np.ndarray, ...]:
    """The 4-digit groups "0000".."9999" as uint32; the cell heads "" (of a
    scientific cell) and "0.", .., "0.000" (of a cell in [1e-4, 1)); and the
    exponent tails "e-281".."e-05", then ""."""
    groups = (np.arange(10**4)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    heads = np.array([b"", b"0.", b"0.0", b"0.00", b"0.000"])
    tails = np.array([f"e{e:03d}".encode() for e in range(_EXPONENT_MIN, -4)] + [b""])
    return groups.view(np.uint32).ravel(), heads, tails


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * 10**k as p + e, p the rounded product: Dekker's exact product of x
    and hi, plus x * lo."""
    hi, lo, upper, lower = (table[k - _POW10_MIN] for table in _powers_of_ten())
    p = x * hi
    c = _SPLITTER * x
    x_upper = c - (c - x)
    x_lower = x - x_upper
    e = ((x_upper * upper - p) + x_upper * lower + x_lower * upper) + x_lower * lower + x * lo
    return p, e


def _decimal(x: np.ndarray, shortest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(N, E, decided) for floats x in [`_FAST_MIN`, 1): N * 10**(E - 16),
    N in [1e16, 1e17) and E in [-281, -1], is x to 17 digits or, with
    `shortest`, to its shortest round-trip digits; `decided` is False where
    the double-double cannot tell (see the comment above `_UNDECIDED`)."""
    E = np.floor(np.log10(x)).astype(np.int64)
    p, e = _scaled(x, 16 - E)
    # log10 may be one off next to a power of ten: put y in [1e16, 1e17)
    shift = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.int64) - ((p < 1e16) | ((p == 1e16) & (e < 0)))
    moved = np.flatnonzero(shift)
    if moved.size:
        E[moved] += shift[moved]
        p[moved], e[moved] = _scaled(x[moved], 16 - E[moved])
    P = p.astype(np.int64)
    floor_e = np.floor(e)
    f = e - floor_e  # y = Y + f, Y an integer
    Y = P + floor_e.astype(np.int64)
    if shortest:
        # the rounding interval [y - below, y + above]: half an ulp on each
        # side, but a quarter below a power of two
        mantissa, exponent = np.frexp(x)
        above = np.ldexp(_powers_of_ten()[0][16 - E - _POW10_MIN], exponent - 54)
        below = np.where(mantissa == 0.5, 0.5 * above, above)
        ends = np.stack((e - below, e + above))
        floors = np.floor(ends)
        decided = np.all(np.abs(ends - floors - 0.5) < 0.5 - _UNDECIDED, axis=0)
        first, last = P + floors.astype(np.int64) + [[1], [0]]  # its integers
        # there are at most 23.  With `step` 10 where there are 10 or more,
        # else 1, a multiple of 10 * step among them is the only one and has
        # the most trailing zeros; failing one, the multiples of `step` have,
        # and of those in the interval the one nearest y is taken
        step = np.where(last - first >= 9, 10, 1)
        coarse = last // (10 * step) * (10 * step)
        rest = Y % step
        side = (2 * rest - step) + 2 * f  # > 0: y is nearer the multiple above
        nearest = Y - rest + step * (side > 0)
        nearest += step * ((nearest < first).astype(np.int64) - (nearest > last))
        decided &= (coarse >= first) | (np.abs(side) > 2 * _UNDECIDED)
        N = np.where(coarse >= first, coarse, nearest)
    else:
        decided = np.abs(f - 0.5) > _UNDECIDED
        N = Y + (f > 0.5)
    carry = N == 10**17
    N[carry] = 10**16
    return N, E + carry, decided


def _digits(N: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """The 17 digits of each N in [1e16, 1e17) as "000d" and four groups of
    4, one row of 20 bytes each, from the uint32 `groups` "0000".."9999".
    NumPy divides by a scalar far faster than by a broadcast array, so N is
    split by scalars; the temporaries are freed on return."""
    high = N // 10**8
    lead = high // 10**8
    quads = [groups.take(lead)]
    for rest in (high - lead * 10**8, N - high * 10**8):
        q = rest // 10**4
        quads += [groups.take(q), groups.take(rest - q * 10**4)]
    return np.stack(quads, axis=1).view(np.uint8)


def _float_cells(values, shortest: bool) -> np.ndarray:
    """The bytes of `'%.17g' % v` or, with `shortest`, of the JSON float repr
    `json.dumps(v)` for each float v of `values`.  The cells of v in
    [`_FAST_MIN`, 1), where every float cell of a CLI table but 0 and 1
    lies, are formed for the whole array at once, as 0.ddd or d.ddde-XX;
    0.0 and 1.0 are constants; Python formats every other cell and those
    the double-double cannot decide, so their bytes match by construction."""
    x = np.asarray(values, dtype=np.float64).ravel()
    groups, heads, tails = _cell_pieces()
    zero, one = x.view(np.uint64) == 0, x == 1.0  # the bits of 0.0, not of -0.0, are all 0
    fast = (x >= _FAST_MIN) & (x < 1.0)
    N, E, decided = _decimal(np.where(fast, x, 0.5), shortest)  # 0.5 stands in for a cell formed elsewhere
    fast &= decided
    scientific = E < -4  # d.ddde-XX, else 0.ddd
    # the digits of N as "000d" and 16 more, or in scientific cells as "00d."
    # and 16 more, stripped of zeros (and of a dot) at both ends
    chars = _digits(N, groups)
    chars[scientific, 2] = chars[scientific, 3]
    chars[scientific, 3] = ord(".")
    body = np.char.strip(chars.view("S20").ravel(), b"0.")
    cells = np.char.add(
        np.char.add(heads[np.where(scientific, 0, -E)], body),
        tails[np.where(scientific, E - _EXPONENT_MIN, -1)],
    )
    cells[zero] = b"0.0" if shortest else b"0"
    cells[one] = b"1.0" if shortest else b"1"
    left = ~(fast | zero | one)
    if left.any():
        cells[left] = _python_cells(x[left].tolist(), shortest)
    return cells


# the C JSON encoder with a NUL between the items of a list: JSON text
# escapes every control character, so the NULs split it into the items
_JSON_CELLS = json.JSONEncoder(separators=("\0", ": "))
_JSON_META = json.JSONEncoder(indent=2)  # json.dumps(..., indent=2)


def _python_cells(values: list, shortest: bool) -> list[bytes]:
    """The cells of `values` as Python formats them, `%.17g` or, with
    `shortest`, the JSON encoder's, by one call in C for the whole list."""
    if not values:
        return []
    text = _JSON_CELLS.encode(values)[1:-1] if shortest else "\0".join(["%.17g"] * len(values)) % tuple(values)
    return text.encode().split(b"\0")


def _column_cells(blocks: list[np.ndarray], fmt: str) -> list[np.ndarray]:
    """The cells of each 1-D array of `blocks` as bytes: the float arrays go
    to `_float_cells` as one batch, or under `_FEW_FLOATS` of them to
    `_python_cells`; integers to NumPy's bytes, which are str(v) as in
    both formats; other values to `_format_value` (CSV) or the JSON
    encoder."""
    shortest = fmt == "json"
    floats = [block for block in blocks if block.dtype.kind == "f"]
    if floats:
        values = floats[0] if len(floats) == 1 else np.concatenate(floats)
        if values.size < _FEW_FLOATS:
            cells = np.array(_python_cells(values.tolist(), shortest), dtype=_FLOAT_CELL)
        else:
            cells = _float_cells(values, shortest)
        ends = itertools.accumulate(block.size for block in floats)
        batch = (cells[end - block.size : end] for block, end in zip(floats, ends))

    def other(block: np.ndarray) -> np.ndarray:
        if block.dtype.kind in "iu":
            return block.astype(bytes)
        values = block.tolist()
        cells = _python_cells(values, True) if shortest else [_format_value(v).encode() for v in values]
        return np.array(cells, dtype=bytes)

    return [next(batch) if block.dtype.kind == "f" else other(block) for block in blocks]


def _distinct(arrays: list[np.ndarray]) -> tuple[list[np.ndarray], list[int]]:
    """The arrays less the float64 ones that repeat an earlier one bit for
    bit, and for each array the position of its first copy among them.
    Equal bits give equal cells, while 0.0 and -0.0, or two NaN payloads,
    differ in bits and are never shared."""
    distinct, slots, seen = [], [], {}  # seen: the slots of the float64 arrays by size and middle bits
    for a in arrays:
        slot = len(distinct)
        if a.dtype == np.float64 and a.size:
            # one element first, the middle one: CDF columns all share their ends, 0 and 1
            bits = a.view(np.uint64)
            key = (bits.size, bits.item(bits.size // 2))
            for k in seen.get(key, ()):
                if np.array_equal(distinct[k].view(np.uint64), bits):
                    slot = k
                    break
            else:
                seen.setdefault(key, []).append(slot)
        if slot == len(distinct):
            distinct.append(a)
        slots.append(slot)
    return distinct, slots


def _emit_table(columns: dict, meta: dict, footer: dict, fmt: str, out: str | None) -> None:
    """The one table writer: CSV (header, rows, then the footer as
    `# key = value` lines; no meta) or JSON (`"meta"`: meta then footer,
    `"columns"`: lists), to `out` or, when empty, stdout.  A path that
    cannot be written raises `ParameterError`.

    The bytes are those of `json.dumps(payload, indent=2)` and of a
    per-cell `%.17g` join: floats are `%.17g` in CSV and their shortest
    round-trip repr in JSON.  The rows are formatted in blocks of at most
    `_CACHE_BLOCK` cells, the floats of each block in one batch (see
    `_column_cells`); a float column that repeats an earlier one bit for
    bit reuses its cells (see `_distinct`)."""
    arrays, slots = _distinct([np.asarray(values) for values in columns.values()])
    step = max(1, _CACHE_BLOCK // max(1, len(slots)))
    if fmt == "json":
        separator = b",\n      "  # between the items of a column, at its depth under indent=2
        items = [[] for _ in arrays]  # each column's items, joined a block at a time
        for start in range(0, max(map(len, arrays), default=0), step):
            for joined, cells in zip(items, _column_cells([a[start : start + step] for a in arrays], fmt)):
                if cells.size:
                    joined.append(separator.join(cells.tolist()))  # tolist drops the NUL padding
        texts = [separator.join(joined).decode() for joined in items]
        # the meta block without its closing "\n}", then the columns
        pieces = [_JSON_META.encode({"meta": {**meta, **footer}})[:-2], ',\n  "columns": {']
        for i, (name, slot) in enumerate(zip(columns, slots)):
            pieces += [",\n    " if i else "\n    ", json.dumps(name), ": "]
            pieces += ["[\n      ", texts[slot], "\n    ]"] if texts[slot] else ["[]"]
        pieces.append("\n  }\n}\n" if columns else "}\n}\n")
        _write_text(pieces, out)
        return
    rows = min(map(len, arrays), default=0)
    ends = [b","] * (len(slots) - 1) + [b"\n"]
    pieces = [",".join(columns), "\n"]
    for start in range(0, rows, step):
        cells = _column_cells([a[start : min(start + step, rows)] for a in arrays], fmt)
        # np.stack's Python overhead shows on a few rows; C order keeps tobytes to one copy
        rows_of_cells = np.ascontiguousarray(np.array([cells[slot] for slot in slots]).T)
        # each cell followed by its end, less the NULs that pad the cells (a cell holds none)
        pieces.append(np.char.add(rows_of_cells, ends).tobytes().translate(None, b"\0").decode())
    pieces += [f"# {key} = {_format_value(value)}\n" for key, value in footer.items()]
    _write_text(pieces, out)


def _iterate_columns(args: argparse.Namespace, steps: int) -> dict[str, np.ndarray]:
    """The grid `y` and the iterates D0..D<steps> of `--init` on it."""
    base = DistSpec.parse(args.init)
    grid = standard_grid(args.grid)
    rows = iterates(base.cdf(), args.r, steps, grid)
    return {"y": grid, **{f"D{n}": row for n, row in enumerate(rows)}}


def cmd_iterate(args: argparse.Namespace) -> int:
    columns = _iterate_columns(args, args.steps)
    _emit_table(columns, _meta(args, init=args.init, steps=args.steps), {}, args.fmt, args.out)
    return EXIT_OK


def cmd_figure(args: argparse.Namespace) -> int:
    columns = _iterate_columns(args, 4)
    grid = columns["y"]
    columns["U"] = grid.copy()
    columns["K"] = np.asarray(cdf_kumaraswamy(0.5, 0.5, grid), dtype=float)
    columns["B"] = np.asarray(cdf_beta(0.5, 0.5, grid), dtype=float)
    _emit_table(columns, _meta(args, init=args.init), {}, args.fmt, args.out)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks = run_verification(r=args.r, seed=args.seed, n_samples=args.n, grid=args.grid)
    all_pass = all(check.passed for check in checks)
    meta = _meta(args, n=args.n)
    if args.fmt == "json":
        payload = {"meta": meta, "checks": [asdict(check) for check in checks]}
        _write_text([json.dumps(payload, indent=2), "\n"], args.out)
    else:
        names, values, thresholds, passed = zip(*map(astuple, checks))
        statuses = ["PASS" if ok else "FAIL" for ok in passed]
        columns = {"check": names, "value": values, "threshold": thresholds, "status": statuses}
        _emit_table(columns, meta, {"all_pass": all_pass}, args.fmt, args.out)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def _atom(x: np.ndarray, share: float):
    """(value, share) of the largest atom of the sorted samples x if it
    holds more than `share` of them, else None.  Such a value holds k + 1
    samples in a row for k = floor(share * x.size), which one shifted
    compare finds."""
    k = int(share * x.size)
    values = x[:-k][x[k:] == x[:-k]]  # np.unique would import numpy.ma, 12 ms
    if not values.size:
        return None
    counts = np.searchsorted(x, values, side="right") - np.searchsorted(x, values, side="left")
    i = counts.argmax()
    return float(values[i]), float(counts[i] / x.size)


def cmd_simulate(args: argparse.Namespace) -> int:
    grid = standard_grid(args.grid)
    if args.mode == "ensemble":
        base = DistSpec.parse(args.init)
        empirical = ensemble_push(base, args.r, args.push_steps, args.n, args.seed)
        reference = iterate_pushforward(base.cdf(), args.r, args.push_steps)
        columns = {
            "y": grid,
            "empirical": np.asarray(empirical.cdf()(grid), dtype=float),
            "reference": np.asarray(reference(grid), dtype=float),
        }
        footer = {"ks_statistic": ks_statistic(empirical, reference)}
        meta = _meta(args, mode=args.mode, init=args.init, push_steps=args.push_steps, n=args.n)
        # an atom of share s puts the KS statistic against a continuous law
        # at s / 2 or more, so past twice the band it cannot pass
        band = ks_band(args.n)
        atom = _atom(empirical.samples, 2.0 * band)
        if atom:
            print(
                f"notice: ensemble at r={args.r:g} collapsed: {atom[1]:.1%} of its samples "
                f"are exactly {atom[0]:.17g}, which puts the KS statistic past the 99 % band {band:.3g}",
                file=sys.stderr,
            )
    else:
        run = ergodic_empirical(args.r, args.steps, args.burn_in, args.seed)
        arcsine = DistSpec("arcsine").cdf()
        columns = {
            "y": grid,
            "empirical": np.asarray(run.empirical.cdf()(grid), dtype=float),
            "arcsine": np.asarray(arcsine(grid), dtype=float),
        }
        footer = {
            "ks_statistic": ks_statistic(run.empirical, arcsine),
            "x0": run.x0,
            "degenerate_attractor": run.degenerate_attractor,
        }
        meta = _meta(args, mode=args.mode, steps=args.steps, burn_in=args.burn_in)
        if args.r != 4.0:
            print(
                f"notice: the arcsine column is the invariant law of r=4 only; "
                f"it is not the law of an orbit at r={args.r:g}",
                file=sys.stderr,
            )
        if run.degenerate_attractor:
            cycle = f" (a cycle of period {run.period})" if run.period else ""
            print(
                f"notice: orbit at r={args.r:g} collapsed onto a degenerate attractor{cycle}; "
                f"the empirical CDF reflects that attractor, not an ergodic average",
                file=sys.stderr,
            )
    _emit_table(columns, meta, footer, args.fmt, args.out)
    return EXIT_OK


_DISPATCH = {
    "iterate": cmd_iterate,
    "figure": cmd_figure,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdfpush",
        description="Propagate distributions through the quadratic interval map "
        "x -> r*x*(1-x) and check the exact operator against closed forms "
        "and Monte Carlo simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, grid_default: int = 1024) -> None:
        p.add_argument("--r", type=float, default=4.0, help="map parameter in (0, 4]")
        p.add_argument("--grid", type=int, default=grid_default, help="grid size m (m+1 knots)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed for sampled quantities")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p_iterate = sub.add_parser("iterate", help="tabulate pushforward iterates D_0..D_steps")
    p_iterate.add_argument("--init", default="uniform", help="initial distribution, e.g. beta:0.5,0.5")
    p_iterate.add_argument("--steps", type=int, default=4, help="number of pushforward steps")
    add_common(p_iterate)

    p_figure = sub.add_parser(
        "figure", help="tabulate D_0..D_4 next to the uniform, Kumaraswamy(1/2,1/2), and beta(1/2,1/2) CDFs"
    )
    p_figure.add_argument("--init", default="uniform", help="initial distribution")
    add_common(p_figure)

    p_verify = sub.add_parser("verify", help="run the closed-form and Monte Carlo check battery")
    p_verify.add_argument("--n", type=int, default=100_000, help="Monte Carlo sample count")
    add_common(p_verify, grid_default=DEFAULT_GRID_SIZE)

    p_simulate = sub.add_parser("simulate", help="Monte Carlo ensembles and long orbits")
    p_simulate.add_argument("--mode", choices=("orbit", "ensemble"), default="orbit")
    p_simulate.add_argument("--init", default="uniform", help="initial distribution (ensemble mode)")
    p_simulate.add_argument("--steps", type=int, default=100_000, help="orbit length after burn-in")
    p_simulate.add_argument("--push-steps", type=int, default=2, help="map applications (ensemble mode)")
    p_simulate.add_argument("--n", type=int, default=100_000, help="ensemble size (ensemble mode)")
    p_simulate.add_argument("--burn-in", type=int, default=DEFAULT_BURN_IN, help="discarded initial steps")
    add_common(p_simulate)

    return parser


def _exit_code(run) -> int:
    """The exit code of run(), a command: a usage error (`ParameterError`,
    `DomainError`) prints one `error:` line to stderr and gives 2, a
    numerical-integrity failure (`NumericsError`, `DegenerateOrbitError`,
    `ResourceLimitError`, or a `MemoryError` such as NumPy raises for an
    array too large to allocate) one `numerical integrity failure:` line
    and 3."""
    try:
        return run()
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, DegenerateOrbitError, ResourceLimitError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"numerical integrity failure: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERICS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return _exit_code(lambda: _DISPATCH[args.command](args))


if __name__ == "__main__":
    sys.exit(main())
