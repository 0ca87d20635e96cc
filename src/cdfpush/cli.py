"""Command-line interface.

Subcommands: `iterate` (pushforward iterates on a grid), `figure`
(iterates next to the three reference laws), `verify` (the check
battery), and `simulate` (Monte Carlo ensembles and long orbits).
Tables are emitted as CSV or JSON with a reproducibility meta block and
no timestamps, so identical invocations produce identical bytes.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical-integrity failure.
"""

from __future__ import annotations

import argparse
import platform
import json
import sys
from dataclasses import asdict, astuple
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ks_band, ks_statistic
from .distributions import DistSpec, cdf_beta, cdf_kumaraswamy
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
    """Write the strings in order to `out` or, when empty, stdout."""
    if not out:
        sys.stdout.writelines(pieces)
        return
    try:
        with Path(out).open("w") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc.strerror or exc}") from None


# the items of a list at the depth of a column under `json.dumps(..., indent=2)`;
# without `indent` the encoder runs in C
_JSON_ITEMS = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_column(values) -> str:
    text = _JSON_ITEMS.encode(np.asarray(values).tolist())
    return text if text == "[]" else f"[\n      {text[1:-1]}\n    ]"


def _emit_table(columns: dict, meta: dict, footer: dict, fmt: str, out: str | None) -> None:
    """The one table writer: CSV (header, rows with floats at `%.17g`, then
    the footer as `# key = value` lines; no meta) or JSON (`"meta"`: meta
    then footer, `"columns"`: lists), to `out` or, when empty, stdout.
    A path that cannot be written raises `ParameterError`.

    The bytes are those of `json.dumps(payload, indent=2)` and of a
    per-cell `%.17g` join; the CSV body is formatted by one `%` operation
    and each JSON column by the C encoder."""
    if fmt == "json":
        # the meta block without its closing "\n}", then the columns
        pieces = [json.dumps({"meta": {**meta, **footer}}, indent=2)[:-2], ',\n  "columns": {']
        for i, (name, values) in enumerate(columns.items()):
            pieces += [",\n    " if i else "\n    ", json.dumps(name), ": ", _json_column(values)]
        pieces.append("\n  }\n}\n" if columns else "}\n}\n")
        _write_text(pieces, out)
        return
    cells, template = [], []
    for values in map(np.asarray, columns.values()):
        if values.dtype.kind == "f":  # one format for the whole column: the hot path
            cells.append(values.tolist())
            template.append("%.17g")
        else:
            cells.append([_format_value(v) for v in values.tolist()])
            template.append("%s")
    rows = min(map(len, cells), default=0)
    pieces = [",".join(columns), "\n"]
    if rows:
        body = "\n".join([",".join(template)] * rows)
        pieces += [body % tuple(chain.from_iterable(zip(*cells))), "\n"]
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
    `ResourceLimitError`) one `numerical integrity failure:` line and 3."""
    try:
        return run()
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericsError, DegenerateOrbitError, ResourceLimitError) as exc:
        print(f"numerical integrity failure: {exc}", file=sys.stderr)
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
