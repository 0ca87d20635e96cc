"""The experiment scripts under scripts/, run through their `main`."""

import importlib.util
import json
from pathlib import Path

import pytest

from cdfpush import ConvergenceError, convergence_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def convergence_scan():
    return load_script("convergence_scan")


def test_convergence_scan_prints_the_table(convergence_scan, capsys):
    assert convergence_scan.main(["--n-max", "4", "--grid", "64"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,to_uniform,to_kumaraswamy,to_arcsine"
    assert lines[-2:] == ["# r = 4", "# grid = 64"]
    rows = [line.split(",") for line in lines[1:-2]]
    cols = convergence_table(4, 64)
    assert [int(row[0]) for row in rows] == cols["n"].tolist()
    for i, printed in enumerate(rows):
        assert [float(v) for v in printed[1:]] == [
            cols["to_uniform"][i], cols["to_kumaraswamy"][i], cols["to_arcsine"][i]
        ]


def test_convergence_scan_json(convergence_scan, capsys):
    assert convergence_scan.main(["--n-max", "4", "--grid", "64", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"] == {"r": 4.0, "grid": 64}
    assert all(type(n) is int for n in data["columns"]["n"])
    cols = convergence_table(4, 64)
    assert data["columns"] == {name: values.tolist() for name, values in cols.items()}


def test_convergence_scan_footer_prints_r_at_full_precision(convergence_scan, capsys):
    assert convergence_scan.main(["--n-max", "2", "--grid", "8", "--r", "3.7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["# r = 3.7000000000000002", "# grid = 8"]


@pytest.mark.parametrize(
    "bad",
    [["--n-max", "1"], ["--r", "5"], ["--grid", "1"], ["--n-max", "2", "--grid", "8", "--out", "."]],
    ids=["n-max", "r", "grid", "out"],
)
def test_convergence_scan_rejects_bad_parameters(convergence_scan, capsys, bad):
    # a usage error, as `cdfpush` reports one: exit 2 and one line on stderr
    assert convergence_scan.main(bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_convergence_scan_exits_3_on_a_numerical_failure(convergence_scan, capsys, monkeypatch):
    # a numerical-integrity failure, as `cdfpush` reports one: exit 3 and one line
    def failing(*args, **kwargs):
        raise ConvergenceError("no convergence")

    monkeypatch.setattr(convergence_scan, "convergence_table", failing)
    assert convergence_scan.main(["--n-max", "4", "--grid", "64"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical integrity failure: no convergence\n"


def test_convergence_scan_exits_2_when_stdout_closes_early(head_1):
    # `convergence_scan.py ... | head -1` on a table past the pipe's 64 KiB
    code, line, err = head_1(str(SCRIPTS / "convergence_scan.py"), "--n-max", "4000", "--grid", "64")
    assert line == "n,to_uniform,to_kumaraswamy,to_arcsine\n"
    assert code == 2 and err == "error: cannot write stdout: Broken pipe\n"
