#!/usr/bin/env python3
"""Tabulate convergence of iterated pushforwards toward the arcsine law.

For each depth n = 0..n_max, computes the sup-norm distance of the n-step
pushforward of the uniform CDF (at the given r) to the uniform, two-step
Kumaraswamy, and arcsine closed forms, and writes one row per depth.

Usage:
    python3 scripts/convergence_scan.py --n-max 12 --out convergence.csv

A bad parameter prints one `error:` line to stderr and exits 2, the
usage-error code of `cdfpush`.
"""

from __future__ import annotations

import argparse
import json
import sys

from cdfpush import DomainError, ParameterError, convergence_table
from cdfpush.cli import EXIT_USAGE

COLUMNS = ("n", "to_uniform", "to_kumaraswamy", "to_arcsine")


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

    try:
        report = convergence_table(args.n_max, m=args.grid, r=args.r)
    except (ParameterError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cols = report.columns()

    if args.format == "json":
        payload = {
            "meta": {"r": report.r, "grid": report.grid_size},
            "columns": {k: list(v) for k, v in cols.items()},
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(COLUMNS)]
        for i in range(len(cols["n"])):
            lines.append(",".join(
                str(cols["n"][i]) if name == "n" else "%.17g" % cols[name][i]
                for name in COLUMNS
            ))
        lines.append("# r = %g" % report.r)
        lines.append("# grid = %d" % report.grid_size)
        text = "\n".join(lines) + "\n"

    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
