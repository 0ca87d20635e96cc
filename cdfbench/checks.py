"""Checks of captured program output against the oracles and the
properties every output CDF must have.

An output passes when every value with an oracle lies within VALUE_TOL
of it, every CDF column is nondecreasing, 0 at 0, 1 at and above the
map's peak r/4 and inside [0, 1], every arcsine column is invariant
under the map at r = 4, and every sample-based column passes a KS test
at the oracles' false-alarm level.  The largest oracle error of each
output is kept for the `digits` metric.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles
from workloads import Op

# a value this far from its oracle is wrong; the grid path at r = 4 is
# within 1e-8 and the exact path within 1e-9
VALUE_TOL = 1e-7
GRID_TOL = 1e-15
# rounding slack for a decreasing step between adjacent knots
MONOTONE_SLACK = 1e-12
INVARIANCE_TOL = 1e-12
# preimage-tree intervals per level for the r < 4 oracle; sets how many
# rows are checked at each depth
ORACLE_BUDGET = 2**18
MIN_ORACLE_ROWS = 16


@dataclass
class Verdict:
    """Outcome of checking one captured output."""

    reasons: list[str] = field(default_factory=list)
    err: float = 0.0  # largest error of any value checked against an oracle

    @property
    def ok(self) -> bool:
        return not self.reasons

    def compare(self, name: str, got: np.ndarray, want: np.ndarray) -> None:
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not err <= VALUE_TOL:  # also catches NaN
            self.reasons.append(f"{name}: off its oracle by {err:.3e} (> {VALUE_TOL:g})")
        self.err = max(self.err, err)

    def ks(self, name: str, distance: float, limit: float) -> None:
        if not distance <= limit:
            self.reasons.append(f"{name}: KS distance {distance:.4g} above {limit:.4g}")


def parse_table(text: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Columns and scalar results of a CSV or JSON table."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        columns = {k: np.asarray(v, dtype=float) for k, v in payload["columns"].items()}
        return columns, {k: str(v) for k, v in payload["meta"].items()}
    lines = text.splitlines()
    footer = {}
    rows = []
    for line in lines[1:]:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            footer[key.strip()] = value.strip()
        else:
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows, dtype=float).T
    return dict(zip(lines[0].split(","), data)), footer


class Checker:
    """Checks outputs, caching oracle values between identical requests."""

    def __init__(self):
        self._oracle_cache: dict = {}

    def check(self, op: Op, code: int, out: str) -> Verdict:
        verdict = Verdict()
        kind = "scan" if op.entry == "scan" else op.argv[0]
        if kind == "simulate":
            kind = op.flag("--mode")
        expected_code = {"verify": (0, 1)}.get(kind, (0,))
        if code not in expected_code:
            verdict.reasons.append(f"exit code {code}")
            return verdict
        try:
            getattr(self, f"_check_{kind}")(op, code, out, verdict)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            verdict.reasons.append(f"unreadable output: {exc!r}")
        return verdict

    def oracle(self, r: float, init: str, depth: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the size-m grid that are checked, and D_0..D_depth there."""
        key = (r, init, depth, m)
        if key not in self._oracle_cache:
            grid = oracles.standard_grid(m)
            if r == 4.0:
                rows = np.arange(m + 1)
                if init == "uniform":
                    values = np.array([oracles.tent_uniform(grid, n) for n in range(depth + 1)])
                else:
                    cdf = oracles.base_cdf(init)[0]
                    values = np.array([oracles.tent_iterate(cdf, grid, n) for n in range(depth + 1)])
            else:
                count = min(m + 1, max(MIN_ORACLE_ROWS, ORACLE_BUDGET >> depth))
                rows = np.unique(np.linspace(0, m, count).round().astype(int))
                values = oracles.preimage_iterates(oracles.base_cdf(init), r, grid[rows], depth)
            self._oracle_cache[key] = rows, values
        return self._oracle_cache[key]

    @staticmethod
    def _grid(y: np.ndarray) -> int:
        m = y.size - 1
        if m < 2 or m % 2 or not np.all(np.abs(y - oracles.standard_grid(m)) <= GRID_TOL):
            raise ValueError("y column is not the standard grid of an even size")
        return m

    def _check_iterate(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        columns, _ = parse_table(out)
        r, steps = float(op.flag("--r")), int(op.flag("--steps"))
        y = columns["y"]
        m = self._grid(y)
        rows, want = self.oracle(r, op.flag("--init"), steps, m)
        for n in range(steps + 1):
            got = columns[f"D{n}"]
            verdict.compare(f"D{n}", got[rows], want[n])
            cdf_properties(verdict, f"D{n}", y, got, r if n else 4.0)

    def _check_figure(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        columns, _ = parse_table(out)
        y = columns["y"]
        m = self._grid(y)
        _, want = self.oracle(4.0, "uniform", 4, m)
        for n in range(5):
            verdict.compare(f"D{n}", columns[f"D{n}"], want[n])
        verdict.compare("U", columns["U"], y)
        verdict.compare("K", columns["K"], oracles.base_cdf("kumaraswamy:0.5,0.5")[0](y))
        verdict.compare("B", columns["B"], oracles.arcsine_cdf(y))
        for name in ("D0", "D1", "D2", "D3", "D4", "U", "K", "B"):
            cdf_properties(verdict, name, y, columns[name], 4.0)
        arcsine_invariance(verdict, "B", columns["B"])

    def _check_scan(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        columns, _ = parse_table(out)
        n_max, m = int(op.flag("--n-max")), int(op.flag("--grid"))
        grid = oracles.standard_grid(m)
        _, iterates = self.oracle(4.0, "uniform", n_max, m)
        refs = {
            "to_uniform": grid,
            "to_kumaraswamy": oracles.base_cdf("kumaraswamy:0.5,0.5")[0](grid),
            "to_arcsine": oracles.arcsine_cdf(grid),
        }
        if not np.array_equal(columns["n"], np.arange(n_max + 1)):
            verdict.reasons.append("depth column is not 0..n_max")
            return
        for name, ref in refs.items():
            want = np.max(np.abs(iterates - ref[None, :]), axis=1)
            verdict.compare(name, columns[name], want)

    def _check_verify(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        lines = [line for line in out.splitlines() if line and not line.startswith("#")]
        if lines[0] != "check,value,threshold,status" or len(lines) < 2:
            raise ValueError("no verification table")
        n = int(op.flag("--n"))
        statuses = []
        for line in lines[1:]:
            name, value, threshold, status = line.rsplit(",", 3)
            value, threshold = float(value), float(threshold)
            statuses.append(status == "PASS")
            if status != ("PASS" if value <= threshold else "FAIL"):
                verdict.reasons.append(f"{name}: status {status} contradicts {value:.4g} vs {threshold:.4g}")
            if "-ks" in name:
                # the battery's 99% band fails 1% of correct runs; the
                # benchmark accepts at the oracles' level instead
                verdict.ks(name, value, oracles.ks_threshold(n))
            elif status != "PASS":
                verdict.reasons.append(f"{name}: {value:.4g} above {threshold:.4g}")
        if (code == 0) != all(statuses):
            verdict.reasons.append(f"exit code {code} contradicts the check statuses")

    def _check_ensemble(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        columns, footer = parse_table(out)
        r, depth, n = float(op.flag("--r")), int(op.flag("--push-steps")), int(op.flag("--n"))
        y = columns["y"]
        m = self._grid(y)
        rows, want = self.oracle(r, op.flag("--init"), depth, m)
        verdict.compare("reference", columns["reference"][rows], want[depth])
        top = r if depth else 4.0
        cdf_properties(verdict, "reference", y, columns["reference"], top)
        cdf_properties(verdict, "empirical", y, columns["empirical"], top)
        limit = oracles.ks_threshold(n)
        verdict.ks("empirical vs oracle", float(np.max(np.abs(columns["empirical"][rows] - want[depth]))), limit)
        verdict.ks("reported ks_statistic", float(footer["ks_statistic"]), limit)

    def _check_orbit(self, op: Op, code: int, out: str, verdict: Verdict) -> None:
        columns, footer = parse_table(out)
        y = columns["y"]
        self._grid(y)
        arcsine = oracles.arcsine_cdf(y)
        verdict.compare("arcsine", columns["arcsine"], arcsine)
        cdf_properties(verdict, "arcsine", y, columns["arcsine"], 4.0)
        cdf_properties(verdict, "empirical", y, columns["empirical"], 4.0)
        arcsine_invariance(verdict, "arcsine", columns["arcsine"])
        limit = oracles.ks_threshold(int(op.flag("--steps")), oracles.ORBIT_KS_SCALE)
        verdict.ks("empirical vs arcsine", float(np.max(np.abs(columns["empirical"] - arcsine))), limit)
        verdict.ks("reported ks_statistic", float(footer["ks_statistic"]), limit)
        if footer["degenerate_attractor"] not in ("false", "False"):
            verdict.reasons.append("orbit reported as degenerate at r = 4")
        if not 0.01 <= float(footer["x0"]) <= 0.99:
            verdict.reasons.append(f"orbit start {footer['x0']} outside (0.01, 0.99)")


def cdf_properties(verdict: Verdict, name: str, y: np.ndarray, v: np.ndarray, r: float) -> None:
    """Nondecreasing, 0 at 0, 1 at and above r/4, inside [0, 1]."""
    dip = float(-np.min(np.diff(v)))
    if not dip <= MONOTONE_SLACK:
        verdict.reasons.append(f"{name}: decreases by {dip:.3e}")
    if v[0] != 0.0:
        verdict.reasons.append(f"{name}: {v[0]!r} at y = 0")
    if not np.all(v[y >= r / 4.0] == 1.0):
        verdict.reasons.append(f"{name}: not 1 at and above r/4 = {r / 4.0:g}")
    if not (np.min(v) >= 0.0 and np.max(v) <= 1.0):
        verdict.reasons.append(f"{name}: leaves [0, 1]")


def arcsine_invariance(verdict: Verdict, name: str, b: np.ndarray) -> None:
    """At r = 4 knot i of the standard grid maps to knot 2i, with preimages
    at knots i and m - i, so an invariant column has
    B[2i] = B[i] + 1 - B[m - i]."""
    m = b.size - 1
    i = np.arange(m // 2 + 1)
    gap = float(np.max(np.abs(b[2 * i] - (b[i] + 1.0 - b[m - i]))))
    if not gap <= INVARIANCE_TOL:
        verdict.reasons.append(f"{name}: not invariant at r = 4 (off by {gap:.3e})")


def digits(errors: list[float]) -> float:
    """-log10 of the largest error; an exact match counts as 17 digits."""
    return -math.log10(max(max(errors, default=0.0), 1e-17))


LAYER_ERROR_UNITS = {
    "pushforward.exact_err": "abs",
    "pushforward.grid_err": "abs",
    "distributions.beta_cdf_err": "abs",
}


def layer_errors(workload: str, seed: int) -> dict[str, float]:
    """Accuracy of single layers, called through the package's public API.

    exact_err: exact D_12 at r = 4 against the closed form.  grid_err:
    the grid path at depth 13 against the oracle: at r = 3.5 with the beta
    start on `tables-sub4`, which has the failing grid-path ensembles, and
    at r = 4 with the uniform start on the other workloads.  beta_cdf_err:
    the beta(2.5, 3.5) CDF against SciPy on the grid and on 1e5 seeded
    points.
    """
    from cdfpush import DistSpec, iterate_pushforward

    m = 4096
    grid = oracles.standard_grid(m)
    uniform = DistSpec.parse("uniform").cdf()
    exact = iterate_pushforward(uniform, 4.0, 12, strategy="exact")(grid)
    errors = {"pushforward.exact_err": float(np.max(np.abs(exact - oracles.tent_uniform(grid, 12))))}
    if workload == "tables-sub4":
        init = "beta:2.5,3.5"
        rows = np.linspace(0, m, 65).round().astype(int)
        want = oracles.preimage_iterates(oracles.base_cdf(init), 3.5, grid[rows], 13)[13]
        got = iterate_pushforward(DistSpec.parse(init).cdf(), 3.5, 13, strategy="grid")(grid[rows])
    else:
        want = oracles.tent_uniform(grid, 13)
        got = iterate_pushforward(uniform, 4.0, 13, strategy="grid")(grid)
    errors["pushforward.grid_err"] = float(np.max(np.abs(got - want)))
    x = np.concatenate([grid, np.random.default_rng(seed).random(100_000)])
    beta = DistSpec.parse("beta:2.5,3.5").cdf()(x)
    errors["distributions.beta_cdf_err"] = float(np.max(np.abs(beta - oracles.base_cdf("beta:2.5,3.5")[0](x))))
    return errors
