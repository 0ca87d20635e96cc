"""CLI contract: table schemas, determinism, and exit codes."""

import json

import numpy as np
import pytest

from cdfpush import cdf_kumaraswamy, cli, ks_band
from cdfpush.cli import _emit_table, main


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
        payload = {
            "meta": {**META, **FOOTER},
            "columns": {name: np.asarray(values).tolist() for name, values in columns.items()},
        }
        assert self._emitted(columns, "json", capsys, tmp_path) == json.dumps(payload, indent=2) + "\n"

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

    def test_csv_without_rows(self, capsys, tmp_path):
        out = self._emitted({"x": np.array([]), "n": []}, "csv", capsys, tmp_path)
        assert out == "x,n\n# all_pass = true\n# ks = 0.25\n# k = 3\n"


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
