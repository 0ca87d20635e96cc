#!/usr/bin/env python3
"""Benchmark of the cdfpush CLI: end-to-end times and accuracy, or a
traced run with per-layer numbers.

    python3 cdfbench/run.py --workload tables-r4 --seed 0 --seconds 35 --trace 0
    python3 cdfbench/run.py --workload all

Run from the repository root.  One process runs one workload in a
closed loop: one invocation at a time through `cdfpush.cli.main(argv)`
or the scan script's `main(argv)`, with stdout captured, round after
round until `--seconds` have passed (at least three rounds).  The
first round warms caches and lazy imports and is left out of the times,
though its outputs are checked like the rest.  A fixed
calibration kernel runs between operations, and each end-to-end time is
scaled to the machine speed at which that kernel takes `CAL_REF_S`, so
that the host's drifting CPU speed does not show as a change of the
program (see `speed_scaled`).  Every captured output is then checked
against independent oracles.  The last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Results and traces are also written to
cdfbench/out/.  See cdfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCAN_SCRIPT = ROOT / "scripts" / "convergence_scan.py"
OUT_DIR = HERE / "out"

MIN_ROUNDS = 3
MIN_SETUP_SAMPLES = 5
SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cdfpush.cli\n"
    "print(time.perf_counter() - start, flush=True)\n"
)
# About the median time of `calibrate()` on the machine the benchmark was
# built on; times are reported at the speed at which it takes this long.
CAL_REF_S = 0.010
CAL_LOOP = 30_000
CAL_ARRAY = np.random.default_rng(20110405).random(100_000)
TIME_METRICS = ("iterate_s", "figure_s", "scan_s", "verify_s", "ensemble_s", "orbit_s")
UNITS = {"setup_s": "s", **{name: "s" for name in TIME_METRICS}, "digits": "digits", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


def measure_setup() -> tuple[float, float]:
    """Wall time from starting a fresh interpreter until cdfpush.cli is
    imported, and the import alone as the child measures it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        wall = perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"import probe exited with code {child.returncode}")
    return wall, float(line)


def calibrate() -> float:
    """Wall time of a fixed kernel of about 10 ms that mixes, like the
    program, a Python loop with NumPy ufuncs, a sort and binary searches
    on a 1e5 array.  It shares no code with cdfpush, so a change of the
    program leaves it alone, while a slower or busier host slows it with
    the program."""
    start = perf_counter()
    total = 0.0
    for i in range(CAL_LOOP):
        total += (i % 7) * 0.5
    b = np.sort(np.sin(np.arcsin(np.sqrt(CAL_ARRAY)) * 1.5))
    np.searchsorted(b, CAL_ARRAY[:20_000])
    return perf_counter() - start


def speed_scaled(elapsed: float, cal_before: float, cal_after: float) -> float:
    """`elapsed` at the reference speed: scaled by `CAL_REF_S` over the mean
    of the calibrations taken just before and just after it.  The host's
    speed drifts by up to 2x over seconds to minutes; over ten 30 s runs
    scaling cut the quartile spread of the run medians by a factor of
    1.5 to 4 (see README.md)."""
    return elapsed * CAL_REF_S / ((cal_before + cal_after) / 2)


def load_scan_script():
    spec = importlib.util.spec_from_file_location("convergence_scan", SCAN_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call(op: workloads.Op, mains: dict, tracer) -> tuple[int, str, str, float]:
    """Run one operation; returns exit code, stdout, stderr and wall time."""
    out, err = io.StringIO(), io.StringIO()
    main = mains[op.entry]
    span = tracer.span("cli.main") if tracer and op.entry == "cli" else contextlib.nullcontext()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = main(list(op.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the op failed; keep measuring the others
        code = -1
        err.write(traceback.format_exc())
    elapsed = perf_counter() - start
    text = out.getvalue()
    if tracer and op.entry == "cli":
        tracer.add("cli.bytes_out", len(text.encode()))
    return code, text, err.getvalue(), elapsed


def run_rounds(ops, seconds: float, tracer) -> dict:
    """Closed loop over whole rounds; with a tracer, odd rounds are traced.

    Each round ends with one set-up probe, so that set-up samples are
    spread over the run like the operations they are compared with.  A
    calibration follows every operation and every probe (see
    `speed_scaled`).
    """
    import cdfpush.cli

    scan = load_scan_script()
    mains = {"cli": cdfpush.cli.main, "scan": scan.main}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cdfpush"] + [scan]
    outputs = {}  # (op index, exit code, digest) -> [stdout, stderr, occurrences]
    rounds = []  # per round: traced flag, wall time, {metric: scaled s}, {metric: wall s}
    setup = []  # (scaled wall, import, wall) of fresh interpreters
    for _ in range(3):  # warm-up
        cal = calibrate()
    start = perf_counter()
    while len(rounds) < MIN_ROUNDS + (tracer is not None) or perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install(modules)
        times = dict.fromkeys(TIME_METRICS, 0.0)
        walls = dict.fromkeys(TIME_METRICS, 0.0)
        round_start = perf_counter()
        try:
            for index, op in enumerate(ops):
                if traced:
                    tracer.op = index
                code, text, err, elapsed = call(op, mains, tracer if traced else None)
                cal_before, cal = cal, calibrate()
                times[op.metric] += speed_scaled(elapsed, cal_before, cal)
                walls[op.metric] += elapsed
                key = (index, code, hashlib.sha256(text.encode()).hexdigest())
                outputs.setdefault(key, [text, err, 0])[2] += 1
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, perf_counter() - round_start, times, walls))
        cal = probe_setup(setup, cal)
    while len(setup) < MIN_SETUP_SAMPLES:
        cal = probe_setup(setup, cal)
    return {"outputs": outputs, "rounds": rounds, "setup": setup}


def probe_setup(setup: list, cal_before: float) -> float:
    """Append one set-up sample to `setup`; returns the calibration after it."""
    wall, imported = measure_setup()
    cal = calibrate()
    setup.append((speed_scaled(wall, cal_before, cal), imported, wall))
    return cal


def check_outputs(ops, outputs: dict) -> tuple[int, bool, list[float], list[str]]:
    """Failed count, correctness, oracle errors of passing primary ops,
    and one report line per distinct failing output."""
    import checks

    checker = checks.Checker()
    failed, correct, errors, report = 0, True, [], []
    for (index, code, _), (text, err, occurrences) in outputs.items():
        op = ops[index]
        verdict = checker.check(op, code, text)
        if verdict.ok:
            if op.primary:
                errors.append(verdict.err)
            continue
        failed += occurrences
        correct = correct and bool(op.known_fault)
        why = "; ".join(verdict.reasons[:3]) + (f"; stderr: {err.strip()[-300:]}" if err.strip() else "")
        tag = "known fault" if op.known_fault else "FAILED"
        report.append(f"{tag} x{occurrences}: {op.label}: {why}")
    return failed, correct, errors, report


def run_workload(args) -> int:
    if not (SRC / "cdfpush" / "cli.py").is_file() or not SCAN_SCRIPT.is_file():
        print(f"error: cdfpush sources not found under {ROOT} (expected src/cdfpush and scripts/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    ops = workloads.build(args.workload, args.seed)
    import cdfpush.cli  # noqa: F401  (compiled bytecode is written before set-up is timed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    measured = run_rounds(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks
    import oracles

    oracles.self_check(np.random.default_rng(args.seed))
    failed, correct, errors, report = check_outputs(ops, measured["outputs"])
    rounds = measured["rounds"]
    attempted = len(rounds) * len(ops)
    timed = [r for r in rounds[1:] if not r[0]]  # round 0 is the warm-up
    if tracer is None:
        metrics = {"setup_s": statistics.median(scaled for scaled, _, _ in measured["setup"])}
        for name in TIME_METRICS:
            metrics[name] = statistics.median(r[2][name] for r in timed)
        metrics["digits"] = checks.digits(errors)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = UNITS
    else:
        from tracing import LAYER_METRICS

        traced = [i for i, r in enumerate(rounds) if r[0]]
        per_round = [tracer.round_metrics(i) for i in traced]
        metrics = {name: statistics.median(m[name] for m in per_round) for name in LAYER_METRICS}
        metrics.update(checks.layer_errors(args.workload, args.seed))
        metrics["setup.import_s"] = statistics.median(imp for _, imp, _ in measured["setup"])
        # each traced round against the plain round just before it, so that
        # slow drift of the machine cancels; round 0 is the warm-up
        metrics["trace.overhead_s"] = statistics.median(
            rounds[i][1] - rounds[i - 1][1] for i in traced if i >= 3)
        units = {**LAYER_METRICS, **checks.LAYER_ERROR_UNITS,
                 "setup.import_s": "s", "trace.overhead_s": "s"}
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.trace.jsonl")
    samples = {"rounds": [{"traced": traced, "wall_s": wall, "scaled_s": times, "unscaled_s": walls}
                          for traced, wall, times, walls in rounds],
               "setup_s": [scaled for scaled, _, _ in measured["setup"]],
               "setup_unscaled_s": [wall for _, _, wall in measured["setup"]]}
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({**result, "samples": samples, "failures": report}, indent=2) + "\n")
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    for line in report:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each one's result."""
    results = {}
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
