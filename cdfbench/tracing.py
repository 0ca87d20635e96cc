"""Spans and counts around the public functions of each cdfpush layer.

The tracer wraps functions from the outside: while it is installed,
every module of the package (and the loaded scan script) that holds one
of the wrapped functions sees the wrapper in its place.  Nothing inside
cdfpush changes, and `uninstall` puts every original back, so the
untraced rounds of a run execute the program as shipped.

A span records its name, start, end, parent span, round and operation.
Calls that happen thousands of times per operation (the base CDF inside
the exact recursion, beta CDF evaluations) are only counted and timed,
so the trace stays small.  Spans stay in memory and are written out as
JSON lines when the run ends.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# metrics of one traced round, in the order they are reported
LAYER_METRICS = {
    "pushforward.exact_eval_s": "s",
    "pushforward.grid_build_s": "s",
    "pushforward.grid_eval_s": "s",
    "pushforward.base_calls": "count",
    "pushforward.base_points": "count",
    "distributions.beta_cdf_s": "s",
    "distributions.beta_cdf_points": "count",
    "distributions.quantile_s": "s",
    "simulate.trajectory_s": "s",
    "simulate.orbit_steps": "count",
    "simulate.ensemble_push_s": "s",
    "analysis.ks_s": "s",
    "analysis.ks_ref_eval_s": "s",
    "analysis.sup_distance_s": "s",
    "analysis.convergence_table_s": "s",
    "verify.run_verification_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, round, op, attrs]
        self.counts: dict[int, Counter] = defaultdict(Counter)  # round -> totals
        self.round = -1
        self.op = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = [len(self.spans), self._stack[-1] if self._stack else None, name,
                  perf_counter(), None, self.round, self.op, attrs]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            record[4] = perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.round][name] += value

    # -- installing the wrappers ------------------------------------------

    def install(self, modules: list) -> None:
        import cdfpush
        from cdfpush import distributions

        hooks = [
            ("iterate_pushforward", self._iterate),
            ("cdf_beta", self._cdf_beta),
            ("trajectory", self._simple("simulate.trajectory", self._orbit_steps)),
            ("ensemble_push", self._simple("simulate.ensemble_push")),
            ("ergodic_empirical", self._simple("simulate.ergodic_empirical")),
            ("ks_statistic", self._ks),
            ("sup_distance", self._sup_distance),
            ("convergence_table", self._simple("analysis.convergence_table")),
            ("run_verification", self._simple("verify.run_verification")),
        ]
        for name, make in hooks:
            original = getattr(cdfpush, name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        spec = getattr(distributions, "DistSpec", None)
        if spec is None:
            self.missing.append("DistSpec")
            return
        self._patch(spec, "cdf", self._spec_cdf(spec.cdf))
        self._patch(spec, "quantile", self._simple("distributions.quantile")(spec.quantile))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _simple(self, span_name: str, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(span_name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(original, args, kwargs)
                return result

            return wrapper

        return make

    def _orbit_steps(self, original, args, kwargs) -> None:
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        self.add("simulate.orbit_steps", int(bound.arguments["steps"]) + int(bound.arguments["burn_in"]))

    def _iterate(self, original):
        def wrapper(F0, r, n, *args, **kwargs):
            base = self._counted_base(F0)
            with self.span("pushforward.iterate_pushforward") as record:
                result = original(base, r, n, *args, **kwargs)
            strategy = getattr(result, "strategy", "unknown")
            record[7]["strategy"] = strategy
            return _Timed(result, self, "pushforward.eval", strategy)

        return wrapper

    def _counted_base(self, F0):
        if not (dataclasses.is_dataclass(F0) and hasattr(F0, "fn")):
            self.missing.append("base counting")
            return F0
        fn = F0.fn

        def counted(arr):
            self.add("pushforward.base_calls", 1)
            self.add("pushforward.base_points", arr.size)
            return fn(arr)

        return dataclasses.replace(F0, fn=counted)

    def _spec_cdf(self, original):
        def wrapper(spec):
            result = original(spec)
            if spec.family != "beta":
                return result
            fn = result.fn

            def timed(arr):
                start = perf_counter()
                out = fn(arr)
                self.add("distributions.beta_cdf_s", perf_counter() - start)
                self.add("distributions.beta_cdf_points", arr.size)
                return out

            return dataclasses.replace(result, fn=timed)

        return wrapper

    def _cdf_beta(self, original):
        def wrapper(alpha, beta, y):
            start = perf_counter()
            with self.span("distributions.cdf_beta"):
                out = original(alpha, beta, y)
            self.add("distributions.beta_cdf_s", perf_counter() - start)
            self.add("distributions.beta_cdf_points", getattr(out, "size", 1))
            return out

        return wrapper

    def _ks(self, original):
        def wrapper(empirical, F, *args, **kwargs):
            reference = _Stopwatch(F)
            with self.span("analysis.ks_statistic") as record:
                result = original(empirical, reference, *args, **kwargs)
            record[7]["ref_eval_s"] = reference.elapsed
            return result

        return wrapper

    def _sup_distance(self, original):
        def wrapper(F, G, *args, **kwargs):
            f, g = _Stopwatch(F), _Stopwatch(G)
            with self.span("analysis.sup_distance") as record:
                result = original(f, g, *args, **kwargs)
            record[7]["eval_s"] = f.elapsed + g.elapsed
            return result

        return wrapper

    # -- per-round metrics ------------------------------------------------

    def round_metrics(self, round_index: int) -> dict[str, float]:
        totals = Counter({name: 0.0 for name in LAYER_METRICS})
        totals.update(self.counts.get(round_index, Counter()))
        child_time: Counter = Counter()
        spans = [s for s in self.spans if s[5] == round_index]
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        for sid, _, name, start, end, _, _, attrs in spans:
            duration = end - start
            if name == "pushforward.eval":
                key = "exact_eval_s" if attrs["strategy"] == "exact" else "grid_eval_s"
                totals[f"pushforward.{key}"] += duration
            elif name == "pushforward.iterate_pushforward" and attrs["strategy"] != "exact":
                totals["pushforward.grid_build_s"] += duration
            elif name == "distributions.quantile":
                totals["distributions.quantile_s"] += duration
            elif name == "simulate.trajectory":
                totals["simulate.trajectory_s"] += duration
            elif name == "simulate.ensemble_push":
                totals["simulate.ensemble_push_s"] += duration
            elif name == "analysis.ks_statistic":
                totals["analysis.ks_s"] += duration - attrs["ref_eval_s"]
                totals["analysis.ks_ref_eval_s"] += attrs["ref_eval_s"]
            elif name == "analysis.sup_distance":
                totals["analysis.sup_distance_s"] += duration - attrs["eval_s"]
            elif name == "analysis.convergence_table":
                totals["analysis.convergence_table_s"] += duration
            elif name == "verify.run_verification":
                totals["verify.run_verification_s"] += duration
            elif name == "cli.main":
                totals["cli.self_s"] += duration - child_time[sid]
        return dict(totals)

    def write(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, round_index, op, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start - t0, "end": end - t0,
                                     "round": round_index, "op": op, **attrs}) + "\n")
            for round_index, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"counts": dict(counts), "round": round_index}) + "\n")
        if self.missing:
            print(f"trace: not traced: {', '.join(sorted(set(self.missing)))}", file=sys.stderr)


class _Stopwatch:
    """A callable that times every call to the one it wraps."""

    def __init__(self, inner):
        self._inner = inner
        self.elapsed = 0.0

    def __call__(self, *args, **kwargs):
        start = perf_counter()
        try:
            return self._inner(*args, **kwargs)
        finally:
            self.elapsed += perf_counter() - start

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Timed:
    """An iterate whose evaluations are recorded as spans."""

    def __init__(self, inner, tracer: Tracer, name: str, strategy: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._strategy = strategy

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name, strategy=self._strategy):
            return self._inner(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._inner, name)
