"""CLI contract: table schemas, determinism, and exit codes."""

import argparse
import json
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdfpush import cdf_beta, cdf_kumaraswamy, cli, ks_band, run_verification, simulate
from cdfpush.cli import _emit_table, _float_cells, main
from cdfpush.distributions import _CACHE_BLOCK


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def footer_keys(out):
    return [line.split(" = ")[0] for line in out.splitlines() if line.startswith("#")]


class TestIterate:
    def test_csv_schema(self, capsys):
        code, out, _ = run_cli(["iterate", "--steps", "2", "--grid", "16"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,D0,D1,D2"
        assert len(lines) == 1 + 17

    def test_zero_steps_returns_grid(self, capsys):
        code, out, _ = run_cli(["iterate", "--steps", "0", "--grid", "8"], capsys)
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            y, d0 = row.split(",")
            assert y == d0

    def test_two_steps_match_closed_form(self, capsys):
        code, out, _ = run_cli(
            ["iterate", "--steps", "2", "--grid", "1024", "--format", "json"], capsys
        )
        assert code == 0
        cols = json.loads(out)["columns"]
        y = np.array(cols["y"])
        d2 = np.array(cols["D2"])
        assert np.max(np.abs(d2 - cdf_kumaraswamy(0.5, 0.5, y))) <= 1e-10

    def test_any_depth_at_r4(self, capsys):
        # the closed form has no depth limit: pi/2**n is never formed
        # once D_n equals the arcsine law to rounding
        code, out, _ = run_cli(["iterate", "--steps", "2000", "--grid", "64", "--format", "json"], capsys)
        assert code == 0
        cols = json.loads(out)["columns"]
        assert len(cols) == 2002
        assert all(np.all(np.isfinite(values)) for values in cols.values())
        assert cols["D2000"][0] == 0.0 and cols["D2000"][-1] == 1.0

    def test_support_shrinkage_below_r4(self, capsys):
        code, out, _ = run_cli(["iterate", "--r", "2", "--steps", "1", "--grid", "16"], capsys)
        assert code == 0
        for row in out.strip().splitlines()[1:]:
            y, _, d1 = row.split(",")
            if float(y) >= 0.5:
                assert float(d1) == 1.0

    def test_deterministic_bytes(self, capsys):
        argv = ["iterate", "--steps", "3", "--grid", "64"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_csv_json_same_numbers(self, capsys):
        argv = ["iterate", "--steps", "2", "--grid", "32"]
        _, csv_out, _ = run_cli(argv, capsys)
        _, json_out, _ = run_cli(argv + ["--format", "json"], capsys)
        cols = json.loads(json_out)["columns"]
        rows = [line.split(",") for line in csv_out.strip().splitlines()[1:]]
        csv_cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(["y", "D0", "D1", "D2"])}
        assert csv_cols == cols

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(["iterate", "--steps", "1", "--grid", "8", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("y,D0,D1")


class TestFigure:
    def test_schema_and_reference_columns(self, capsys):
        code, out, _ = run_cli(["figure", "--grid", "256"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,D0,D1,D2,D3,D4,U,K,B"
        # D0 of the uniform start coincides with U, token for token
        for row in lines[1:]:
            cells = row.split(",")
            assert cells[1] == cells[6]

    def test_json_meta(self, capsys):
        code, out, _ = run_cli(["figure", "--grid", "64", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["meta"]["command"] == "figure"
        assert data["meta"]["r"] == 4.0
        assert set(data["columns"]) == {"y", "D0", "D1", "D2", "D3", "D4", "U", "K", "B"}


class TestVerify:
    def test_passes_at_default(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "20000"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check,value,threshold,status"
        assert all(line.endswith("PASS") for line in lines[1:-1])
        assert lines[-1] == "# all_pass = true"

    def test_fails_away_from_r4(self, capsys):
        code, out, _ = run_cli(["verify", "--r", "3.9", "--n", "2000"], capsys)
        assert code == 1
        assert "FAIL" in out
        assert "# all_pass = false" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "20000", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all({"name", "value", "threshold", "passed"} <= set(c) for c in data["checks"])

    def test_grid_flag_reaches_the_battery(self, capsys):
        _, coarse, _ = run_cli(["verify", "--n", "2000", "--grid", "64"], capsys)
        _, fine, _ = run_cli(["verify", "--n", "2000", "--grid", "4096"], capsys)
        assert coarse != fine

    def test_json_meta_reports_default_grid(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "2000", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["meta"]["grid"] == 4096

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(["verify", "--n", "5000"], capsys)
        _, out2, _ = run_cli(["verify", "--n", "5000"], capsys)
        assert out1 == out2


class TestSimulate:
    def test_orbit_mode_schema(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--steps", "20000", "--grid", "64", "--seed", "0"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "y,empirical,arcsine"
        footer = {line.split(" = ")[0]: line.split(" = ")[1] for line in lines if line.startswith("#")}
        assert float(footer["# ks_statistic"]) <= 0.02
        assert footer["# degenerate_attractor"] == "false"

    def test_orbit_degenerate_notice(self, capsys):
        code, out, err = run_cli(
            ["simulate", "--r", "2", "--steps", "10000", "--grid", "16"], capsys
        )
        assert code == 0
        assert "# degenerate_attractor = true" in out
        assert "degenerate" in err

    def test_orbit_cycle_notice_names_the_period(self, capsys):
        # r = 3.83 sits on its stable 3-cycle: flagged, with the period on
        # stderr and no new key on stdout
        code, out, err = run_cli(
            ["simulate", "--r", "3.83", "--steps", "20000", "--grid", "16"], capsys
        )
        assert code == 0
        assert "# degenerate_attractor = true" in out
        assert "period 3" in err
        _, out_r4, _ = run_cli(["simulate", "--steps", "20000", "--grid", "16"], capsys)
        assert footer_keys(out) == footer_keys(out_r4)

    def test_orbit_below_r4_notice(self, capsys):
        # the arcsine column is the invariant law of r = 4 only: at r = 3.7
        # the orbit scores KS 0.338 against it
        code, out, err = run_cli(["simulate", "--r", "3.7", "--steps", "20000", "--grid", "16"], capsys)
        assert code == 0
        assert "notice:" in err and "arcsine column" in err and "r=3.7" in err
        _, out_r4, err_r4 = run_cli(["simulate", "--steps", "20000", "--grid", "16"], capsys)
        assert err_r4 == ""
        assert footer_keys(out) == footer_keys(out_r4)

    @pytest.mark.parametrize(
        "argv, atom",
        [
            # r = 2 drives the ensemble onto its superstable fixed point 1/2
            (["--r", "2", "--init", "uniform", "--push-steps", "8"], "63.1% of its samples are exactly 0.5,"),
            # 17 % of beta(5, 0.05) draws round to 1, which the map sends to 0
            (["--init", "beta:5,0.05", "--push-steps", "2"], "17.4% of its samples are exactly 0,"),
        ],
    )
    def test_ensemble_collapse_notice(self, capsys, monkeypatch, argv, atom):
        argv = ["simulate", "--mode", "ensemble", "--n", "2000", "--grid", "16"] + argv
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert err.startswith("notice: ensemble") and atom in err
        assert float(out.splitlines()[-1].split(" = ")[1]) > ks_band(2000)
        # stdout is what the command writes without the check
        monkeypatch.setattr(cli, "_atom", lambda x, share: None)
        assert run_cli(argv, capsys) == (0, out, "")

    def test_no_collapse_notice_on_a_spread_ensemble(self, capsys):
        # the benchmark's r = 3.7 beta ensemble: its largest atom is far
        # below twice the KS band
        code, out, err = run_cli(
            [
                "simulate", "--mode", "ensemble", "--r", "3.7", "--init", "beta:2.5,3.5",
                "--push-steps", "8", "--n", "20000", "--grid", "64",
            ],
            capsys,
        )
        assert code == 0
        assert err == ""
        assert float(out.splitlines()[-1].split(" = ")[1]) <= ks_band(20000)

    def test_ensemble_mode(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--mode", "ensemble", "--init", "uniform",
                "--push-steps", "2", "--n", "100000", "--grid", "32",
                "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert set(data["columns"]) == {"y", "empirical", "reference"}
        assert data["meta"]["ks_statistic"] < 1.63 / np.sqrt(100_000)


# float cells at the edges of `%.17g` and of JSON, next to integer,
# string and boolean cells
TABLE = {
    "x": np.array([0.1, 1.0 / 3.0, -0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf]),
    "n": np.arange(8),
    "s": ["PASS", "FAIL", "a b", 'q"', "\u00fc", "", "x,y", "0.5"],
    "b": np.array([True, False] * 4),
}
META = {"command": "iterate", "r": 3.7, "seed": None}
FOOTER = {"all_pass": True, "ks": 0.25, "k": 3}


def per_cell_join(columns, footer):
    """The CSV reference: `%.17g` for a float, true or false for a bool and
    str() for anything else, joined cell by cell."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return "%.17g" % v if isinstance(v, float) else str(v)

    rows = zip(*([cell(v) for v in values] for values in columns.values()))
    lines = [",".join(columns), *map(",".join, rows), *(f"# {k} = {cell(v)}" for k, v in footer.items())]
    return "\n".join(lines) + "\n"


def json_dumps(columns):
    """The JSON reference: `json.dumps(payload, indent=2)`."""
    payload = {
        "meta": {**META, **FOOTER},
        "columns": {name: np.asarray(values).tolist() for name, values in columns.items()},
    }
    return json.dumps(payload, indent=2) + "\n"


def iterate_table(r, init, steps):
    return cli._iterate_columns(argparse.Namespace(r=r, init=init, grid=4096), steps)


@pytest.fixture(scope="module")
def real_tables():
    checks = run_verification(r=4.0, seed=0, n_samples=2000, grid=64)
    names, values, thresholds, passed = zip(*map(astuple, checks))
    statuses = ["PASS" if ok else "FAIL" for ok in passed]
    # a row count that is no multiple of the writer's block of rows
    rows = 2 * (_CACHE_BLOCK // 3) + 5
    rng = np.random.default_rng(30)
    # the figure's columns as `cdfpush figure` builds them: y, D0 and U are the grid
    figure = iterate_table(4.0, "uniform", 4)
    grid = figure["y"]
    figure.update(U=grid.copy(), K=cdf_kumaraswamy(0.5, 0.5, grid), B=cdf_beta(0.5, 0.5, grid))
    return {
        "uniform-r4": iterate_table(4.0, "uniform", 14),
        "figure": figure,
        "beta-r3.7": iterate_table(3.7, "beta:2.5,3.5", 8),
        "verify": {"check": names, "value": values, "threshold": thresholds, "status": statuses},
        "ragged-blocks": {
            "x": rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-300, 300, rows),
            "n": np.arange(rows),
            "u": rng.random(rows),
        },
    }


class TestTableWriter:
    """The writer's bytes are those of `json.dumps(payload, indent=2)` and
    of a per-cell `%.17g` join, written to stdout or to `--out`."""

    @staticmethod
    def _emitted(columns, fmt, capsys, tmp_path):
        _emit_table(columns, META, FOOTER, fmt, None)
        out = capsys.readouterr().out
        target = tmp_path / f"table.{fmt}"
        _emit_table(columns, META, FOOTER, fmt, str(target))
        assert target.read_text() == out
        return out

    @pytest.mark.parametrize(
        "columns",
        [TABLE, {"x": TABLE["x"], "e": np.array([])}, {"e": []}, {}],
        ids=["cells", "empty-column", "only-empty", "no-columns"],
    )
    def test_json_is_json_dumps(self, capsys, tmp_path, columns):
        assert self._emitted(columns, "json", capsys, tmp_path) == json_dumps(columns)

    def test_csv_is_the_per_cell_join(self, capsys, tmp_path):
        words = {True: "true", False: "false"}
        cells = [
            [f"{v:.17g}" for v in TABLE["x"]],
            [str(v) for v in TABLE["n"]],
            TABLE["s"],
            [words[bool(v)] for v in TABLE["b"]],
        ]
        lines = [",".join(TABLE), *(",".join(row) for row in zip(*cells))]
        lines += ["# all_pass = true", "# ks = 0.25", "# k = 3"]
        assert self._emitted(TABLE, "csv", capsys, tmp_path) == "\n".join(lines) + "\n"
        assert per_cell_join(TABLE, FOOTER) == "\n".join(lines) + "\n"

    def test_csv_without_rows(self, capsys, tmp_path):
        out = self._emitted({"x": np.array([]), "n": []}, "csv", capsys, tmp_path)
        assert out == "x,n\n# all_pass = true\n# ks = 0.25\n# k = 3\n"

    def test_csv_stops_at_the_shortest_column(self, capsys, tmp_path):
        columns = {"x": np.arange(5.0) / 3, "n": np.arange(3)}
        assert self._emitted(columns, "csv", capsys, tmp_path) == per_cell_join(columns, FOOTER)
        assert self._emitted(columns, "json", capsys, tmp_path) == json_dumps(columns)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", ["beta-r3.7", "verify", "ragged-blocks", "figure"])
    def test_real_tables(self, capsys, tmp_path, real_tables, table, fmt):
        columns = real_tables[table]
        expected = json_dumps(columns) if fmt == "json" else per_cell_join(columns, FOOTER)
        assert self._emitted(columns, fmt, capsys, tmp_path) == expected

    def test_the_figure_formats_its_grid_once(self, real_tables):
        columns = real_tables["figure"]
        assert list(columns) == ["y", "D0", "D1", "D2", "D3", "D4", "U", "K", "B"]
        bits = [np.asarray(values).view(np.uint64) for values in columns.values()]
        assert np.array_equal(bits[0], bits[1]) and np.array_equal(bits[0], bits[6])
        distinct, slots = cli._distinct(list(columns.values()))
        assert slots == [0, 0, 1, 2, 3, 4, 0, 5, 6]
        assert len(distinct) == 7

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_equal_in_value_but_not_in_bits(self, capsys, tmp_path, fmt):
        # 0.0 against -0.0 off the middle row, which the two columns share, so
        # only the full comparison by bits tells them apart; -DBL_MIN is the
        # widest float cell, 24 bytes
        a = np.array([0.25, 0.0, 0.5, -2.2250738585072014e-308, 1.0])
        columns = {"a": a, "b": np.where(a == 0.0, -0.0, a)}
        out = self._emitted(columns, fmt, capsys, tmp_path)
        if fmt == "csv":
            assert out.splitlines()[2] == "0,-0"
            assert out == per_cell_join(columns, FOOTER)
        else:
            assert '"a": [\n      0.25,\n      0.0,' in out
            assert '"b": [\n      0.25,\n      -0.0,' in out
            assert out == json_dumps(columns)


def assert_cells(values):
    values = np.asarray(values, dtype=np.float64)
    assert _float_cells(values, False).tolist() == [("%.17g" % v).encode() for v in values.tolist()]
    assert _float_cells(values, True).tolist() == [json.dumps(v).encode() for v in values.tolist()]


def neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)))


def group_edges():
    """Floats whose 17 digits hold a run of 0s or 9s across each edge of the
    4-digit groups (after digits 1, 5, 9 and 13), or 8 of them across the
    middle, as plain (0.ddd) and scientific cells, with their neighbours."""
    base = "31415926535897932"
    digits = {"99999999999999999", "10000000000000000"}
    for run in ("0000", "9999", "00000000", "99999999"):
        for start in range(18 - len(run)):
            if start or run[0] == "9":
                digits.add(base[:start] + run + base[start + len(run) :])
    values = [float(f"{d[0]}.{d[1:]}e{e}") for d in sorted(digits) for e in (-1, -7, -200, 20)]
    return neighbours(values)


class TestFloatCells:
    """`_float_cells` gives the bytes of `'%.17g' % v` and of `json.dumps(v)`,
    cell for cell."""

    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item()),
                st.floats(),  # leans on +-0, subnormals, NaN and +-inf
            ),
            min_size=1,
            max_size=64,
        )
    )
    def test_float64_bit_patterns(self, values):
        assert_cells(values)

    @pytest.mark.parametrize(
        "values",
        [
            group_edges(),
            [np.nextafter(1.0, 0.0)],  # the largest double below 1, 0.99999999999999989
            neighbours([1e-5, 1e-4, 0.1, 0.5]),
            np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
            neighbours(10.0 ** np.arange(-30, 31)),  # 10**k and 1 ulp either side
            2.0**53 + np.arange(-40, 41),  # integers around 2**53
            2.0**54 + 2 * np.arange(-40, 41),
            neighbours([1e15, 1e16, 1e17]),  # where %g and repr turn to exponents
            [1e23, 5e-324, -5e-324, 1e-280, 1e280, 0.0, -0.0, 1.0, -1.0, 100.0, 1e-4, 1e-5],
            np.arange(4097) / 4096,
        ],
        ids=[
            "group-edges",
            "below-one",
            "plain-ends",
            "powers-of-two",
            "powers-of-ten",
            "near-2**53",
            "near-2**54",
            "exponent-switch",
            "named",
            "grid",
        ],
    )
    def test_hard_cases(self, values):
        assert_cells(values)

    @pytest.mark.parametrize(
        "value, cell",
        [(2.0**-25, b"2.9802322387695312e-08"), (3 * 2.0**-25, b"8.9406967163085938e-08")],
    )
    def test_exact_ties_round_half_even(self, value, cell):
        # 2**-25 = 2.98023223876953125e-08 exactly: 18 digits, the last a 5
        assert _float_cells([value], False).tolist() == [cell]
        assert_cells([value])

    def test_the_fast_path_decides_real_cells(self, monkeypatch, real_tables):
        # a helper that left every cell to Python would pass the tests above
        left = []
        python_cells = cli._python_cells
        monkeypatch.setattr(
            cli, "_python_cells", lambda values, shortest: left.extend(values) or python_cells(values, shortest)
        )
        values = np.concatenate(list(real_tables["uniform-r4"].values()))
        assert_cells(values)
        assert len(left) <= 0.01 * 2 * values.size


class TestExitCodes:
    def test_bad_init_spec(self, capsys):
        code, _, err = run_cli(["iterate", "--init", "gamma:1"], capsys)
        assert code == 2
        assert "error:" in err

    def test_negative_steps(self, capsys):
        code, out, err = run_cli(["iterate", "--steps", "-1"], capsys)
        assert code == 2
        assert out == "" and err == "error: iteration count must be >= 0; got -1\n"

    def test_bad_r(self, capsys):
        code, _, _ = run_cli(["iterate", "--r", "9"], capsys)
        assert code == 2

    def test_subnormal_r_is_a_usage_error(self, capsys):
        # r/4 rounds to 0: the map would have its peak at 0
        code, out, err = run_cli(["verify", "--r", "1e-320", "--n", "1000", "--grid", "64"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: ")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["bogus"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--mode", "ensemble"], ["simulate", "--mode", "orbit"], ["verify"]],
        ids=["ensemble", "orbit", "verify"],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv + ["--seed", "-1"], capsys)
        assert code == 2
        assert out == "" and err == "error: seed must be >= 0; got -1\n"

    def test_a_stdout_closed_early_is_a_usage_error(self, head_1):
        # `cdfpush iterate ... | head -1`: one `error:` line and exit 2, and no
        # "Exception ignored" line from the interpreter's flush at exit
        argv = ["iterate", "--r", "4", "--steps", "14", "--grid", "4096"]
        code, line, err = head_1("-m", "cdfpush.cli", *argv)
        assert line == "y," + ",".join(f"D{n}" for n in range(15)) + "\n"
        assert code == 2 and err == "error: cannot write stdout: Broken pipe\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_full_stdout_is_a_usage_error(self, src_env):
        with open("/dev/full", "w") as full:
            child = subprocess.run(
                [sys.executable, "-m", "cdfpush.cli", "iterate", "--steps", "2", "--grid", "8"],
                stdout=full, stderr=subprocess.PIPE, env=src_env, text=True,
            )
        assert child.returncode == 2 and child.stderr == "error: cannot write stdout: No space left on device\n"

    @pytest.mark.parametrize(
        "argv, target, error",
        [
            (["--mode", "orbit"], (simulate, "trajectory"), MemoryError("Unable to allocate 745. GiB")),
            (["--mode", "ensemble"], (cli, "ensemble_push"), MemoryError()),
        ],
        ids=["orbit", "ensemble"],
    )
    def test_out_of_memory_is_a_numerical_failure(self, capsys, monkeypatch, argv, target, error):
        # as `--steps 100000000000` fails, raised here: a real allocation of
        # that size can succeed lazily under memory overcommit and then run
        # for hours; a bare MemoryError has no message of its own
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(*target, failing)
        code, out, err = run_cli(["simulate", *argv, "--grid", "16"], capsys)
        assert code == 3 and out == ""
        assert err == f"numerical integrity failure: {str(error) or 'out of memory'}\n"

    def test_orbit_too_short(self, capsys):
        code, _, _ = run_cli(["simulate", "--steps", "100"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["iterate", "--steps", "1", "--grid", "8"], ["verify", "--n", "2000", "--grid", "64"]],
        ids=["iterate", "verify"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path, argv, fmt):
        target = tmp_path / "missing" / "table.out"
        code, out, err = run_cli(argv + ["--format", fmt, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1
        assert not target.exists()
