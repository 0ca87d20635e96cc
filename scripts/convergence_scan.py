#!/usr/bin/env python3
"""Tabulate convergence of iterated pushforwards toward the arcsine law.

For each depth n = 0..n_max, computes the sup-norm distance of the n-step
pushforward of the uniform CDF (at the given r) to the uniform, two-step
Kumaraswamy, and arcsine closed forms, and writes one row per depth.

Usage:
    python3 scripts/convergence_scan.py --n-max 12 --out convergence.csv

The table goes through the writer of `cdfpush` (floats at `%.17g` in CSV,
as their shortest round-trip repr in JSON), with `r` and `grid` as its CSV
footer and its JSON meta. Errors exit as those of `cdfpush` do: a bad
parameter, an unwritable `--out` or an unwritable stdout (`| head -1`)
prints one `error:` line to stderr and exits 2, a numerical-integrity
failure one `numerical integrity failure:` line and exits 3.
"""

from __future__ import annotations

import argparse

from cdfpush import convergence_table
from cdfpush.cli import EXIT_OK, _emit_table, _exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=12,
                        help="deepest iterate to include (default: 12)")
    parser.add_argument("--grid", type=int, default=1024,
                        help="grid intervals for sup-norm scans (default: 1024)")
    parser.add_argument("--r", type=float, default=4.0,
                        help="logistic map parameter (default: 4)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--out", default=None,
                        help="output path (default: stdout)")
    args = parser.parse_args(argv)

    def run() -> int:
        columns = convergence_table(args.n_max, m=args.grid, r=args.r)
        _emit_table(columns, {}, {"r": args.r, "grid": args.grid}, args.format, args.out)
        return EXIT_OK

    return _exit_code(run)


if __name__ == "__main__":
    raise SystemExit(main())
