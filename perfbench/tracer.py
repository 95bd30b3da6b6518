"""Span tracer for corrmatch, installed from outside the package.

`Tracer.install()` replaces the public functions of the traced layers with
timing wrappers under every name a corrmatch module binds them to, so a
caller that imported a function by name (``from .density import
densest_subgraph_exact``) is traced as well.  `uninstall()` puts every
original object back.  Spans stay in memory until `write()`.

A call that raises leaves no span; the benchmark counts it as a failure.
A span's parent is the innermost traced call open on the same thread.  The
`parallel_map` wrapper hands its own span to the worker threads, so the
replicate work done on a pool thread nests under the map that scheduled it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name).  Every binding of the same object in any
# corrmatch module is patched, not only the one named here.
FUNCTION_TARGETS = (
    ("corrmatch.graphs", "sample_er", "graphs.sample"),
    ("corrmatch.graphs", "sample_correlated", "graphs.sample"),
    ("corrmatch.graphs", "intersection_graph", "graphs.intersection_graph"),
    ("corrmatch.density", "densest_subgraph_exact", "density.densest_subgraph_exact"),
    ("corrmatch.density", "maximum_flow", "density.max_flow"),
    ("corrmatch.admissibility", "check_admissible", "admissibility.check_admissible"),
    ("corrmatch.admissibility", "simple_cycle_counts", "admissibility.simple_cycle_counts"),
    ("corrmatch.inference", "reasonable_candidate_check", "inference.reasonable_candidate_check"),
    ("corrmatch.harness", "parallel_map", "harness.parallel_map"),
    ("corrmatch.harness", "run_rho_curve", "harness.run_rho_curve"),
    ("corrmatch.harness", "run_threshold_sweep", "harness.run_threshold_sweep"),
)


def _info(name, args, result) -> dict:
    """Exact counts read off a traced call's arguments and result."""
    if name == "graphs.build":
        graph = result if result is not None else args[0]   # from_arrays / __init__
        return {"edges": graph.edge_count}
    if name == "density.max_flow":
        return {"arcs": int(args[0].nnz)}
    if name == "admissibility.simple_cycle_counts":
        return {"cycles": sum(result[0].values())}
    if name == "admissibility.check_admissible":
        return {"admissible": result.admissible, "undecided": result.undecided}
    if name == "inference.reasonable_candidate_check":
        return {"accepted": bool(result.accepted)}
    if name == "harness.parallel_map":
        return {"items": len(result)}
    return {}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    info: dict = field(default_factory=dict)


class Tracer:
    """Records one span per traced call while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _in_span(self, sid: int, fn):
        """fn run with `sid` as the open span, on whatever thread calls it."""

        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return run

    def wrap(self, fn, name: str):
        """A traced stand-in for fn that records spans called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            if name == "harness.parallel_map":
                args = (self._in_span(sid, args[0]),) + args[1:]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, _info(name, args, result)))
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from corrmatch.graphs import Graph

        modules = [m for key, m in list(sys.modules.items()) if key == "corrmatch" or key.startswith("corrmatch.")]
        for home, attr, name in FUNCTION_TARGETS:
            original = getattr(sys.modules[home], attr)
            traced = self.wrap(original, name)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, bound, original))
                        setattr(mod, bound, traced)
        init = Graph.__dict__["__init__"]
        from_arrays = Graph.__dict__["from_arrays"]
        self._patches.append((Graph, "__init__", init))
        Graph.__init__ = self.wrap(init, "graphs.build")
        self._patches.append((Graph, "from_arrays", from_arrays))
        Graph.from_arrays = classmethod(self.wrap(from_arrays.__func__, "graphs.build"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- analysis ----------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover
    (children on pool threads may overlap one another)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - covered(children.get(s.sid, ()), s.t0, s.t1) for s in spans}


def tail_ms(durations_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten calls
    beyond it; the maximum, at percentile 100, when fewer than 20 calls
    leave no such percentile at or above the median."""
    ordered = sorted(durations_ms)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# (metric, unit) for every per-layer metric the traced run reports.
LAYER_METRICS = (
    ("graphs.build.calls", "count"),
    ("graphs.build.edges", "count"),
    ("graphs.build.s", "s"),
    ("graphs.build.ms_p50", "ms"),
    ("graphs.build.ms_tail", "ms"),
    ("graphs.build.tail_pct", "%"),
    ("graphs.sample.self_s", "s"),
    ("graphs.intersection_graph.calls", "count"),
    ("graphs.intersection_graph.self_s", "s"),
    ("density.densest_subgraph_exact.calls", "count"),
    ("density.densest_subgraph_exact.s", "s"),
    ("density.densest_subgraph_exact.self_s", "s"),
    ("density.densest_subgraph_exact.ms_p50", "ms"),
    ("density.densest_subgraph_exact.ms_tail", "ms"),
    ("density.densest_subgraph_exact.tail_pct", "%"),
    ("density.max_flow.calls", "count"),
    ("density.max_flow.s", "s"),
    ("density.max_flow.arcs", "count"),
    ("density.flows_per_solve", "ratio"),
    ("admissibility.check_admissible.calls", "count"),
    ("admissibility.check_admissible.s", "s"),
    ("admissibility.check_admissible.self_s", "s"),
    ("admissibility.check_admissible.ms_p50", "ms"),
    ("admissibility.check_admissible.ms_tail", "ms"),
    ("admissibility.check_admissible.tail_pct", "%"),
    ("admissibility.simple_cycle_counts.calls", "count"),
    ("admissibility.simple_cycle_counts.s", "s"),
    ("admissibility.cycles_found", "count"),
    ("admissibility.undecided", "count"),
    ("admissibility.pass_frac", "ratio"),
    ("inference.reasonable_candidate_check.calls", "count"),
    ("inference.reasonable_candidate_check.s", "s"),
    ("inference.reasonable_candidate_check.self_s", "s"),
    ("inference.reasonable_candidate_check.ms_p50", "ms"),
    ("inference.reasonable_candidate_check.ms_tail", "ms"),
    ("inference.reasonable_candidate_check.tail_pct", "%"),
    ("inference.accepted_frac", "ratio"),
    ("harness.parallel_map.items", "count"),
    ("harness.parallel_map.s", "s"),
    ("harness.self_s", "s"),
    ("harness.cpu_per_wall", "ratio"),
    ("harness.speedup_vs_1worker", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)

_TIMED = (
    "graphs.build",
    "density.densest_subgraph_exact",
    "admissibility.check_admissible",
    "inference.reasonable_candidate_check",
)


def layer_metrics(spans: list[Span], t0: float, t1: float) -> dict[str, float]:
    """Per-layer figures of the recorded spans; coverage is taken over the
    traced pass, which ran from t0 to t1.

    A layer no span comes from reads 0.  The harness ratios (cpu_per_wall,
    speedup, overhead) need untraced passes and are filled in by the
    caller.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.t1 - s.t0 for s in group(name))

    def self_s(*names):
        return sum(selfs[s.sid] for name in names for s in group(name))

    def total(name, key):
        return sum(s.info.get(key, 0) for s in group(name))

    def frac(name, key):
        calls = group(name)
        return sum(1 for s in calls if s.info.get(key)) / len(calls) if calls else 0.0

    out: dict[str, float] = {}
    for name in _TIMED:
        ms = [(s.t1 - s.t0) * 1e3 for s in group(name)]
        tail, pct = tail_ms(ms)
        out[f"{name}.calls"] = len(ms)
        out[f"{name}.s"] = busy(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.ms_p50"] = statistics.median(ms) if ms else 0.0
        out[f"{name}.ms_tail"] = tail
        out[f"{name}.tail_pct"] = pct
    solves = len(group("density.densest_subgraph_exact"))
    out.update({
        "graphs.build.edges": total("graphs.build", "edges"),
        "graphs.sample.self_s": self_s("graphs.sample"),
        "graphs.intersection_graph.calls": len(group("graphs.intersection_graph")),
        "graphs.intersection_graph.self_s": self_s("graphs.intersection_graph"),
        "density.max_flow.calls": len(group("density.max_flow")),
        "density.max_flow.s": busy("density.max_flow"),
        "density.max_flow.arcs": total("density.max_flow", "arcs"),
        "density.flows_per_solve": len(group("density.max_flow")) / solves if solves else 0.0,
        "admissibility.simple_cycle_counts.calls": len(group("admissibility.simple_cycle_counts")),
        "admissibility.simple_cycle_counts.s": busy("admissibility.simple_cycle_counts"),
        "admissibility.cycles_found": total("admissibility.simple_cycle_counts", "cycles"),
        "admissibility.undecided": sum(1 for s in group("admissibility.check_admissible") if s.info.get("undecided")),
        "admissibility.pass_frac": frac("admissibility.check_admissible", "admissible"),
        "inference.accepted_frac": frac("inference.reasonable_candidate_check", "accepted"),
        "harness.parallel_map.items": total("harness.parallel_map", "items"),
        "harness.parallel_map.s": busy("harness.parallel_map"),
        "harness.self_s": self_s("harness.run_rho_curve", "harness.run_threshold_sweep"),
        "trace.coverage_frac": covered([(s.t0, s.t1) for s in spans if s.parent is None], t0, t1) / (t1 - t0),
    })
    return {key: out[key] for key, _ in LAYER_METRICS if key in out}
