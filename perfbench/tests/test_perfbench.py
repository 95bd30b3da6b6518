"""Tests of the benchmark's own machinery: span arithmetic, the output
check, and the tracer's install/uninstall.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from types import SimpleNamespace

import pytest

import run
import tracer
from tracer import Span, Tracer, covered, layer_metrics, self_times, tail_ms

import corrmatch
from corrmatch import density, graphs, harness
from corrmatch.rng import stream


def fake_clock(monkeypatch, ticks):
    it = iter(ticks)
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: next(it))


def test_self_time_of_nested_call(monkeypatch):
    t = Tracer()
    flow = t.wrap(lambda net: None, "density.max_flow")

    def solve():
        flow(SimpleNamespace(nnz=5))
        flow(SimpleNamespace(nnz=7))
        return "done"

    solve = t.wrap(solve, "density.densest_subgraph_exact")
    # solve opens at 0, flows run 1..3 and 4..7, solve closes at 10
    fake_clock(monkeypatch, [0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    assert solve() == "done"
    outer = next(s for s in t.spans if s.name == "density.densest_subgraph_exact")
    assert [s.parent for s in t.spans if s.name == "density.max_flow"] == [outer.sid, outer.sid]
    assert self_times(t.spans)[outer.sid] == pytest.approx(5.0)
    m = layer_metrics(t.spans, 0.0, 10.0)
    assert m["density.densest_subgraph_exact.s"] == pytest.approx(10.0)
    assert m["density.densest_subgraph_exact.self_s"] == pytest.approx(5.0)
    assert m["density.max_flow.s"] == pytest.approx(5.0)
    assert m["density.max_flow.arcs"] == 12
    assert m["density.flows_per_solve"] == 2.0
    assert m["trace.coverage_frac"] == pytest.approx(1.0)


def test_self_time_subtracts_overlapping_children_once():
    spans = [
        Span(0, None, "harness.parallel_map", 0.0, 10.0),
        Span(1, 0, "graphs.sample", 1.0, 4.0),     # two pool threads overlap
        Span(2, 0, "graphs.sample", 2.0, 6.0),
        Span(3, 0, "graphs.sample", 9.0, 12.0),    # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)
    assert covered([(1.0, 4.0), (2.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)


def test_tail_has_ten_calls_beyond_it():
    assert tail_ms([5.0] * 3 + [9.0]) == (9.0, 100.0)
    value, pct = tail_ms([float(v) for v in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.LAYER_METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok_frac"}
    assert [w["name"] for w in bench["workloads"]] == list(run.import_workloads().WORKLOADS)


def test_digest_check_rejects_a_perturbed_output():
    ref = json.loads((run.REFERENCE / "rho_curve.json").read_text())
    items = ref["items"]
    ok = [True] * len(items)
    assert run.digest(items) == ref["digest"]
    assert run.mismatches(items, items, ok) == 0
    perturbed = list(items)
    perturbed[3] = perturbed[3][:-1] + ("0" if perturbed[3][-1] != "0" else "1")
    assert run.digest(perturbed) != ref["digest"]
    assert run.mismatches(perturbed, items, ok) == 1
    assert run.mismatches(items[:-1], items, ok) == 1
    assert run.mismatches(items + ["extra"], items, ok) == 1
    assert run.mismatches(items, items, [True] * (len(items) - 1) + [False]) == 1


def test_every_reference_matches_its_workload():
    workloads = run.import_workloads()
    for name, w in workloads.WORKLOADS.items():
        assert len(run.load_reference(w, w.default_seed)) >= 1, name
        assert run.load_reference(w, w.default_seed + 1) is None


def corrmatch_bindings():
    mods = [m for k, m in sys.modules.items() if k == "corrmatch" or k.startswith("corrmatch.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("Graph", k): v for k, v in vars(graphs.Graph).items()})
    return out


def unchanged(before):
    after = corrmatch_bindings()
    return after.keys() == before.keys() and all(after[k] is v for k, v in before.items())


def tiny_rho_curve(threads):
    cfg = harness.ExperimentConfig(kind="rho-curve", n=200, seed=3, replicates=3, lambda_grid=(2.0, 4.0))
    return harness.run_rho_curve(cfg, threads=threads)[0]


def test_wrappers_leave_no_residue():
    before = corrmatch_bindings()
    want = tiny_rho_curve(threads=2)
    t = Tracer()
    with t.installed():
        assert corrmatch.inference.densest_subgraph_exact is not before[("corrmatch.density", "densest_subgraph_exact")]
        assert corrmatch.admissibility.densest_subgraph_exact is corrmatch.density.densest_subgraph_exact
        assert tiny_rho_curve(threads=2) == want
    assert unchanged(before)
    spans = len(t.spans)
    assert spans > 0
    tiny_rho_curve(threads=2)
    density.densest_subgraph_exact(graphs.sample_er(50, 0.1, stream(1, 0)))
    assert len(t.spans) == spans

    with pytest.raises(ZeroDivisionError):
        with t.installed():
            1 / 0
    assert unchanged(before)


def test_pool_thread_spans_nest_under_the_map():
    t = Tracer()
    with t.installed():
        tiny_rho_curve(threads=2)
    (pmap,) = [s for s in t.spans if s.name == "harness.parallel_map"]
    samples = [s for s in t.spans if s.name == "graphs.sample"]
    assert len(samples) == 6 and all(s.parent == pmap.sid for s in samples)
    assert pmap.info == {"items": 6}
    m = layer_metrics(t.spans, min(s.t0 for s in t.spans), max(s.t1 for s in t.spans))
    assert m["graphs.build.calls"] == 6
    assert m["harness.parallel_map.items"] == 6
