"""The benchmark's workloads: one round of CLI invocations each.

A run repeats its workload's round until the run time is used up, so
every run attempts whole rounds of the same operations.  Each operation
is one `cdfpush.cli.main(argv)` call, or one `main(argv)` of
`scripts/convergence_scan.py`, and every flag is spelled out so that a
change of CLI defaults does not change the work.

The workload seed only picks the `--seed` of sampled operations.  The
two `tables-sub4` ensembles beyond depth 12 at r = 3.5 keep a fixed seed:
they fail on every seed through a program fault (see `GRID_FAULT`),
and a fixed input keeps their share of failures exact.

Each workload ends with a few small coverage operations, so that each
run reports every end-to-end metric.  Only the primary operations feed
the `digits` metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GRID_FAULT = (
    "iterate_pushforward tabulates its grid path on the [0, 1] arcsine grid, "
    "missing the r/4 support edge and the critical-orbit kinks for r < 4"
)
FAULT_SEED = 20110405

NAMES = ("tables-r4", "tables-sub4", "monte-carlo")


@dataclass(frozen=True)
class Op:
    """One closed-loop invocation of the program."""

    metric: str  # end-to-end time metric this invocation adds to
    argv: tuple[str, ...]
    primary: bool = True  # False: coverage op, left out of `digits`
    known_fault: str = ""  # non-empty: the fault this op fails through

    @property
    def entry(self) -> str:
        return "scan" if self.metric == "scan_s" else "cli"

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    @property
    def label(self) -> str:
        head = "convergence_scan" if self.entry == "scan" else "cdfpush"
        return " ".join((head,) + self.argv)


def iterate(r, init, steps, grid, fmt, primary=True) -> Op:
    argv = ("iterate", "--r", str(r), "--init", init, "--steps", str(steps),
            "--grid", str(grid), "--format", fmt)
    return Op("iterate_s", argv, primary)


def figure(grid, fmt, primary=True) -> Op:
    return Op("figure_s", ("figure", "--r", "4", "--init", "uniform", "--grid", str(grid),
                           "--format", fmt), primary)


def scan(n_max, grid, primary=True) -> Op:
    return Op("scan_s", ("--n-max", str(n_max), "--grid", str(grid), "--r", "4",
                         "--format", "csv"), primary)


def verify(n, seed, primary=True) -> Op:
    return Op("verify_s", ("verify", "--r", "4", "--n", str(n), "--seed", str(seed),
                           "--grid", "4096", "--format", "csv"), primary)


def ensemble(r, init, depth, n, seed, primary=True, known_fault="") -> Op:
    argv = ("simulate", "--mode", "ensemble", "--r", str(r), "--init", init,
            "--push-steps", str(depth), "--n", str(n), "--seed", str(seed),
            "--grid", "1024", "--format", "csv")
    return Op("ensemble_s", argv, primary, known_fault)


def orbit(steps, seed, primary=True) -> Op:
    argv = ("simulate", "--mode", "orbit", "--r", "4", "--steps", str(steps),
            "--burn-in", "1000", "--seed", str(seed), "--grid", "1024", "--format", "csv")
    return Op("orbit_s", argv, primary)


def build(name: str, seed: int) -> list[Op]:
    """The round of operations of workload `name` for workload seed `seed`."""
    rng = random.Random(f"{name}:{seed}")

    def s() -> int:
        return rng.randrange(2**31)

    beta = "beta:2.5,3.5"
    if name == "tables-r4":
        return [
            # the paper's computation, on both sides of the exact-path limit
            iterate(4, "uniform", 14, 4096, "csv"),
            iterate(4, "uniform", 14, 4096, "json"),
            figure(4096, "csv"),
            figure(4096, "json"),
            scan(14, 1024),
            verify(400_000, s(), primary=False),
            ensemble(4, "uniform", 4, 300_000, s(), primary=False),
            orbit(1_000_000, s(), primary=False),
        ]
    if name == "tables-sub4":
        return [
            iterate(3.5, beta, 12, 4096, "csv"),
            iterate(3.7, beta, 12, 4096, "json"),
            ensemble(3.5, beta, 12, 20_000, s()),
            ensemble(3.5, beta, 13, 20_000, FAULT_SEED, known_fault=GRID_FAULT),
            ensemble(3.5, beta, 16, 20_000, FAULT_SEED, known_fault=GRID_FAULT),
            ensemble(3.7, beta, 8, 20_000, s()),
            ensemble(3.7, beta, 12, 20_000, s()),
            figure(4096, "csv", primary=False),
            figure(4096, "json", primary=False),
            scan(10, 1024, primary=False),
            verify(400_000, s(), primary=False),
            orbit(1_000_000, s(), primary=False),
        ]
    if name == "monte-carlo":
        return [
            ensemble(4, beta, 3, 100_000, s()),
            ensemble(4, "kumaraswamy:2,3", 4, 200_000, s()),
            orbit(2_000_000, s()),
            verify(200_000, s()),
            iterate(4, "uniform", 13, 1024, "csv", primary=False),
            figure(4096, "csv", primary=False),
            figure(4096, "json", primary=False),
            scan(10, 1024, primary=False),
        ]
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
