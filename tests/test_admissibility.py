import functools
import json
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import corrmatch.admissibility as adm
from corrmatch.admissibility import (
    AdmissibilityReport,
    ConditionResult,
    ConstantsInfeasibleError,
    _bfs,
    _connected_sets,
    _shrink_violator,
    check_admissible,
    default_constants,
    find_good_set,
    is_good_set,
    simple_cycle_counts,
)
from corrmatch.density import densest_subgraph_bruteforce, densest_subgraph_exact
from corrmatch.graphs import Graph, sample_er
from corrmatch.rng import stream


def k4(n=4):
    return Graph(n, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def lenient_constants(n=50, **overrides):
    # alpha = 0.1 leaves generous room (1/alpha = 10) for xi overrides
    base = default_constants(0.1, 1.2, max(n, 16))
    caps = dict(
        n=n,
        degree_cap=10**6,
        small_set_cap=2,
        tiny_component_cap=3,
        cycle_len_cap=6,
    )
    caps.update(overrides)
    return replace(base, **caps)


# -- constants --


def test_default_constants_worked_example():
    c = default_constants(0.5, 1.5, 2000)
    assert c.xi == pytest.approx(1.75)
    # smallest integer C with 0.5 * (1.75 + 1/C) < 1 strictly
    assert c.c_big == 5
    assert 0.5 * (1.75 + 1 / 4) == pytest.approx(1.0)  # C = 4 sits exactly at the wall
    c.validate()


def test_default_constants_all_inequalities_hold():
    for alpha, rho in [(0.3, 1.3), (0.5, 1.4), (0.7, 1.2), (0.9, 1.05)]:
        c = default_constants(alpha, rho, 5000)
        c.validate()  # raises on violation
        assert 1.0 - alpha < c.beta < 1.0


def test_zeta_tightens_as_alpha_approaches_one():
    loose = default_constants(0.5, 1.3, 1000)
    tight = default_constants(0.95, 1.02, 1000)
    assert tight.zeta < loose.zeta
    assert tight.zeta < 1.0 / 0.95


def test_infeasible_constants_signal_above_threshold():
    with pytest.raises(ConstantsInfeasibleError):
        default_constants(0.5, 2.2, 1000)   # rho_hat >= 1/alpha
    with pytest.raises(ConstantsInfeasibleError):
        default_constants(0.999, 1.0, 1000)  # no grid zeta below 1/alpha
    with pytest.raises(ValueError, match="rho_hat must be at least 1"):
        default_constants(0.5, float("nan"), 1000)


def test_good_set_size_is_floor_n_beta():
    c = default_constants(0.5, 1.4, 2000)
    assert c.good_set_size == int(2000**c.beta)


# -- check_admissible --


def test_empty_graph_is_admissible():
    report = check_admissible(Graph(10), lenient_constants(10))
    assert report.admissible
    assert not report.undecided


def test_k4_fails_density_cap_at_xi_one():
    consts = replace(lenient_constants(4), xi=1.0)
    report = check_admissible(k4(), consts)
    res = report.conditions["density_cap"]
    assert res.status == "fail"
    assert sorted(res.witness["subset"]) == [0, 1, 2, 3]
    assert res.witness["edges"] == 6
    assert report.revalidate(k4(), consts)


def test_small_set_density_condition():
    # K4 plus a long pendant path: zeta = 1.25 violated by the K4 itself
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(3, 4), (4, 5), (5, 6)]
    g = Graph(7, edges)
    consts = replace(lenient_constants(7), xi=1.9, zeta=1.25, small_set_cap=4)
    report = check_admissible(g, consts)
    res = report.conditions["small_set_density"]
    assert res.status == "fail"
    assert sorted(res.witness["subset"]) == [0, 1, 2, 3]
    assert report.revalidate(g, consts)


def test_density_condition_agrees_with_bruteforce_small_n():
    rng = stream(23, 0)
    consts_base = lenient_constants(12)
    for _ in range(25):
        g = sample_er(12, 0.25, rng)
        report = check_admissible(g, consts_base)
        dens = densest_subgraph_bruteforce(g)
        assert (report.conditions["density_cap"].status == "pass") == (
            float(dens.density) <= consts_base.xi
        )


def _has_small_violator(g, cap, zeta):
    """Brute force over all vertex subsets: does some U with |U| <= cap
    have more than zeta * |U| edges?"""
    masks = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    edges = [0] * (1 << g.n)
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        edges[mask] = edges[rest] + bin(masks[low] & rest).count("1")
        size = bin(mask).count("1")
        if size <= cap and edges[mask] > zeta * size:
            return True
    return False


def test_small_set_density_matches_bruteforce(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(adm, name)

        def run(*args):
            calls[name] += 1
            return real(*args)

        return run

    for name in ("_shrink_violator", "_first_dense_set"):
        monkeypatch.setattr(adm, name, counted(name))
    stages = Counter()
    rng = stream(63, 0)
    for _ in range(300):
        n = int(rng.integers(4, 13))
        g = sample_er(n, float(rng.uniform(0.2, 0.8)), rng)
        zeta = float(rng.choice([1.25, 1.5]))
        consts = lenient_constants(n, zeta=zeta, small_set_cap=int(rng.integers(2, 6)))
        calls.clear()
        res = adm._check_small_sets(g, consts, densest_subgraph_exact(g), 10**6)
        assert res.status == ("fail" if _has_small_violator(g, consts.small_set_cap, zeta) else "pass")
        if res.status == "fail":
            report = AdmissibilityReport({"small_set_density": res})
            assert report.revalidate(g, consts)
        if calls["_first_dense_set"]:
            stages["scan " + res.status] += 1
        elif calls["_shrink_violator"]:
            stages["shrunk fail"] += 1
        else:
            stages["maximizer fail" if res.status == "fail" else "density pass"] += 1
    assert set(stages) == {"density pass", "maximizer fail", "shrunk fail", "scan pass", "scan fail"}, stages


def _shrink_reference(h, subset, ratio):
    """Reference greedy: the same trials, each an edges_within call."""
    current = set(subset)
    changed = True
    while changed:
        changed = False
        for v in sorted(current, key=lambda u: (h.degree(u), u)):
            trial = current - {v}
            if trial and h.edges_within(trial) > ratio * len(trial):
                current = trial
                changed = True
                break
    return sorted(current)


def test_shrink_violator_matches_reference_greedy():
    rng = stream(64, 0)
    for _ in range(60):
        n = int(rng.integers(2, 40))
        g = sample_er(n, float(rng.uniform(0.1, 0.7)), rng)
        subsets = [list(range(n)), list(densest_subgraph_exact(g).best_subset)]
        subsets.append(sorted(int(v) for v in rng.choice(n, size=max(1, n // 2), replace=False)))
        for subset in subsets:
            for ratio in (1.0, 1.25, 1.5, 2.0):
                assert _shrink_violator(g, subset, ratio) == _shrink_reference(g, subset, ratio)


def test_max_degree_condition():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    consts = lenient_constants(6, degree_cap=5)
    report = check_admissible(star, consts)
    res = report.conditions["max_degree"]
    assert res.status == "fail" and res.witness == {"vertex": 0, "degree": 5}
    assert report.revalidate(star, consts)
    ok = check_admissible(star, lenient_constants(6, degree_cap=6))
    assert ok.conditions["max_degree"].status == "pass"


def test_local_unicyclicity_condition():
    # two triangles sharing an edge: 4 vertices, 5 edges, two cycles
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
    consts = lenient_constants(6, tiny_component_cap=4)
    report = check_admissible(g, consts)
    res = report.conditions["local_unicyclicity"]
    assert res.status == "fail"
    assert res.witness["edges"] > len(res.witness["subset"])
    assert report.revalidate(g, consts)
    # single triangle passes (one cycle only)
    tri = Graph(4, [(0, 1), (1, 2), (0, 2)])
    assert check_admissible(tri, consts).conditions["local_unicyclicity"].status == "pass"
    # a dense but disconnected witness (K4 plus an isolated vertex) is rejected
    consts5 = lenient_constants(6, tiny_component_cap=5)
    for subset in ([0, 1, 2, 3, 5], [0, 1, 2, 3]):
        forged = AdmissibilityReport(
            {"local_unicyclicity": ConditionResult("fail", {"subset": subset, "edges": 6})}
        )
        assert forged.revalidate(k4(6), consts5) == (subset == [0, 1, 2, 3])


def test_empty_vertex_set_is_refused():
    with pytest.raises(ValueError):
        check_admissible(Graph(0), lenient_constants(4))


def _least_dense_connected_set(g):
    """Brute force over all vertex subsets: the size of the smallest
    connected U with more edges than vertices (None when there is none)."""
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]
    edges = [0] * (1 << g.n)
    best = None
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        edges[mask] = edges[rest] + bin(adj[low] & rest).count("1")
        size = bin(mask).count("1")
        if edges[mask] <= size or (best is not None and size >= best):
            continue
        seen, frontier = 1 << low, 1 << low
        while frontier:
            grown = 0
            for v in range(g.n):
                if frontier >> v & 1:
                    grown |= adj[v]
            frontier = grown & mask & ~seen
            seen |= frontier
        if seen == mask:
            best = size
    return best


def _two_cycles_and_a_path(a, b, path):
    """An a-cycle and a b-cycle joined by a path of `path` edges."""
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    walk = [0] + list(range(a + b, a + b + path - 1)) + [a]
    edges += zip(walk, walk[1:])
    return Graph(a + b + max(path - 1, 0), edges)


def test_local_unicyclicity_matches_bruteforce(monkeypatch):
    real = adm._check_tiny_components
    scans = []

    def recorded(adj, core, t, shortest, set_budget):
        res = real(adj, core, t, shortest, set_budget)
        scans.append(("near cycles" if shortest is not None else "whole core", res.status))
        return res

    monkeypatch.setattr(adm, "_check_tiny_components", recorded)
    rng = stream(67, 0)
    graphs = [_two_cycles_and_a_path(3, 4, k) for k in range(4)]
    graphs.append(Graph(*_chain_graph(2, [(0, 1, 1), (0, 1, 3), (0, 1, 4)])))   # theta on 7 vertices
    while len(graphs) < 45:
        n = int(rng.integers(5, 13))
        graphs.append(sample_er(n, min(1.0, float(rng.uniform(1.5, 3.5)) / n), rng))
    for g in graphs:
        least = _least_dense_connected_set(g)
        for t in range(3, 9):
            for cycle_len_cap, cycle_budget in ((t, 10**6), (t + 3, 10**6), (t - 1, 10**6), (t + 3, 0)):
                consts = lenient_constants(g.n, tiny_component_cap=t, cycle_len_cap=cycle_len_cap)
                report = check_admissible(g, consts, cycle_budget=cycle_budget)
                res = report.conditions["local_unicyclicity"]
                assert res.status == ("fail" if least is not None and least <= t else "pass"), (g.edges, t)
                if res.status == "fail":
                    assert report.revalidate(g, consts)
    # both the short-cycle region and the whole-core fallback (t above
    # cycle_len_cap, or a scan cut by its budget) see passes and fails
    assert set(scans) == {(where, status) for where in ("near cycles", "whole core") for status in ("pass", "fail")}


def test_local_unicyclicity_reaches_along_a_path():
    # two triangles joined by a 2-edge path: 7 vertices and 8 edges, and
    # the middle vertex of the path lies on no cycle
    g = _two_cycles_and_a_path(3, 3, 2)
    for t, status in ((6, "pass"), (7, "fail"), (8, "fail")):
        consts = lenient_constants(7, tiny_component_cap=t, cycle_len_cap=8)
        report = check_admissible(g, consts)
        res = report.conditions["local_unicyclicity"]
        assert res.status == status, t
        if status == "fail":
            assert sorted(res.witness["subset"]) == list(range(7))
            assert report.revalidate(g, consts)


def test_density_decision_matches_the_full_path(monkeypatch):
    real = adm.density_exceeds
    decisions = []

    def recorded(h, gamma):
        decisions.append(real(h, gamma))
        return decisions[-1]

    stages = Counter()
    rng = stream(68, 0)
    for _ in range(160):
        n = int(rng.integers(2, 25))
        g = sample_er(n, min(1.0, float(rng.uniform(1.0, 5.0)) / n), rng)
        xi = float(rng.choice([0.2, 1.0, 1.2, 1.25, 1.5, 2.5]))
        zeta = float(rng.choice([1.125, 1.2, 1.25, 1.5, 1.75]))
        consts = lenient_constants(n, xi=xi, zeta=zeta, small_set_cap=int(rng.integers(2, 8)))
        decisions.clear()
        monkeypatch.setattr(adm, "density_exceeds", recorded)
        fast = check_admissible(g, consts).conditions
        monkeypatch.setattr(adm, "density_exceeds", lambda h, gamma: True)
        full = check_admissible(g, consts).conditions
        for name in ("density_cap", "small_set_density"):
            assert fast[name] == full[name], (name, g.edges, xi, zeta)
        x = min(xi, zeta)
        rho = densest_subgraph_exact(g).density
        if not decisions:
            stages["gamma <= 0"] += 1
        elif not decisions[0]:
            stages["one flow passes"] += 1
        else:
            stages["rho* in (gamma, x]" if rho <= x else "rho* > x"] += 1
        stages["xi < zeta" if xi < zeta else "xi > zeta"] += 1
    want = {"gamma <= 0", "one flow passes", "rho* in (gamma, x]", "rho* > x", "xi < zeta", "xi > zeta"}
    assert set(stages) == want, stages


def test_cycle_count_condition_and_witness():
    # three disjoint triangles against a cap of 2
    edges = []
    for b in (0, 3, 6):
        edges += [(b, b + 1), (b + 1, b + 2), (b, b + 2)]
    g = Graph(9, edges)
    consts = lenient_constants(9)
    consts = replace(consts, delta1=1e-9, n=2)  # caps collapse to ceil(2^eps) = 2
    assert consts.cycle_count_cap(3) == 2
    report = check_admissible(g, consts)
    res = report.conditions["cycle_counts"]
    assert res.status == "fail"
    assert res.witness == {"length": 3, "count": 3, "cap": 2}
    assert report.revalidate(g, consts)


def test_budget_exhaustion_reports_undecided():
    g = sample_er(60, 0.15, stream(77, 0))
    consts = lenient_constants(60, small_set_cap=30, tiny_component_cap=10)
    consts = replace(consts, xi=8.0, zeta=1.01, c_big=2, delta1=0.1)
    report = check_admissible(g, consts, set_budget=5, cycle_budget=5)
    statuses = {name: r.status for name, r in report.conditions.items()}
    assert "undecided" in statuses.values()
    assert not report.admissible
    assert report.conditions["cycle_counts"].witness == {"stage": "cycle_paths", "budget": 5}
    # a 10-cycle is unicyclic, so only the budget stops the set enumeration
    # near it (t = 10 reaches the cycle)
    ring = Graph(10, [(i, (i + 1) % 10) for i in range(10)])
    res = check_admissible(ring, lenient_constants(10, tiny_component_cap=10), set_budget=5)
    res = res.conditions["local_unicyclicity"]
    assert res.status == "undecided"
    assert res.witness == {"stage": "connected_sets", "budget": 5}


def test_budget_cut_cycle_witness_revalidates():
    # the cut-short count is a lower bound: 10 of the 71406 8-cycles
    g = sample_er(16, 0.5, stream(31, 0))
    consts = default_constants(0.5, 1.4, 16)
    report = check_admissible(g, consts, cycle_budget=2000)
    res = report.conditions["cycle_counts"]
    assert res.status == "fail"
    k, count, cap = res.witness["length"], res.witness["count"], res.witness["cap"]
    assert count > cap == consts.cycle_count_cap(k)
    full, done, _ = simple_cycle_counts(g, k)
    assert done and full[k] >= count
    assert report.revalidate(g, consts)


def test_report_json_schema():
    report = check_admissible(Graph(5), lenient_constants(5))
    payload = json.loads(report.to_json())
    assert set(payload) == {
        "density_cap",
        "small_set_density",
        "max_degree",
        "local_unicyclicity",
        "cycle_counts",
    }
    for entry in payload.values():
        assert entry["status"] in ("pass", "fail", "undecided")
        assert "witness" in entry


def test_simple_cycle_counts_triangle_with_chord():
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
    counts, done, _ = simple_cycle_counts(g, 4)
    assert done
    assert counts[3] == 2 and counts[4] == 1


def test_simple_cycle_counts_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = stream(61, 0)
    for _ in range(120):
        n = int(rng.integers(3, 41))
        p = min(float(rng.uniform(0.05, 0.35)), 3.0 / n)   # keeps cycle counts small
        max_len = int(rng.integers(3, 13))
        g = sample_er(n, p, rng)
        counts, done, verts = simple_cycle_counts(g, max_len, collect_len=max_len)
        assert done
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges)
        want = {k: 0 for k in range(3, max_len + 1)}
        want_verts = set()
        for cyc in nx.simple_cycles(ref, length_bound=max_len):
            if len(cyc) >= 3:
                want[len(cyc)] += 1
                want_verts.update(cyc)
        assert counts == want
        assert verts == want_verts


def _reference_cycle_counts(h, max_len, collect_vertices=False):
    """Vertex-level oracle: each simple cycle of the 2-core, rooted at its
    least vertex r, is found by a DFS over simple paths through vertices
    > r, pruned by the BFS distance back to r, and counted once by
    closing only at a neighbour of r above the path's first vertex."""
    adj = [tuple(h.neighbors(v)) for v in range(h.n)]
    alive = (h.core_numbers() >= 2).tolist()
    counts = {k: 0 for k in range(3, max_len + 1)}
    on_cycles = set()
    above = {v for v in range(h.n) if alive[v]}
    for root in range(h.n):
        if not alive[root]:
            continue
        above.discard(root)
        room = {
            v: max_len - max(dist, 2)
            for v, dist in _bfs(h.csr(), [root], max_len // 2, above).items()
            if v != root
        }
        closers = {w for w in adj[root] if w in room}
        stack = [iter(sorted(closers))]
        path = [root]
        in_path = {root}
        while stack:
            d = len(path)
            for w in stack[-1]:
                if w in in_path:
                    continue
                if d >= 2 and path[1] < w and w in closers:
                    counts[d + 1] += 1
                    if collect_vertices:
                        on_cycles.update(path)
                        on_cycles.add(w)
                if d <= room[w]:
                    path.append(w)
                    in_path.add(w)
                    stack.append(iter([x for x in adj[w] if x in room]))
                    break
            else:
                stack.pop()
                in_path.remove(path.pop())
    if collect_vertices:
        return counts, True, on_cycles
    return counts, True


def _disjoint_union(*parts):
    """Graph on the parts side by side; a part is (vertex count, edges)."""
    edges, offset = [], 0
    for n, part_edges in parts:
        edges += [(u + offset, v + offset) for u, v in part_edges]
        offset += n
    return Graph(offset, edges)


def _chain_graph(kernel, chains, tail=0):
    """Vertices 0..kernel-1 joined by chains (a, b, length), each through
    length - 1 fresh interior vertices, plus a pendant path of tail edges
    off vertex 0, which the 2-core drops.  A vertex with two chain ends
    only is not kernel: one chain from 0 back to 0 makes a ring."""
    edges, n = [], kernel
    for a, b, length in chains:
        walk = [a] + list(range(n, n + length - 1)) + [b]
        edges += zip(walk, walk[1:])
        n += length - 1
    walk = [0] + list(range(n, n + tail))
    edges += zip(walk, walk[1:])
    return n + tail, edges


def _complete(n):
    return _chain_graph(n, [(i, j, 1) for i in range(n) for j in range(i + 1, n)])


# each case with its cycle counts at max_len 5
KERNEL_CASES = {
    "rings of length max_len and max_len + 1": (
        [_chain_graph(1, [(0, 0, 5)]), _chain_graph(1, [(0, 0, 6)], tail=2)],
        {5: 1},
    ),
    "theta": ([_chain_graph(2, [(0, 1, 1), (0, 1, 2), (0, 1, 3)])], {3: 1, 4: 1, 5: 1}),
    "theta with a chain longer than max_len": ([_chain_graph(2, [(0, 1, 2), (0, 1, 2), (0, 1, 9)])], {4: 1}),
    "chains back to their own kernel vertex": ([_chain_graph(1, [(0, 0, 3), (0, 0, 5), (0, 0, 7)], tail=2)], {3: 1, 5: 1}),
    "theta with a chain back to its end": ([_chain_graph(2, [(0, 1, 1), (0, 1, 3), (0, 1, 4), (0, 0, 4)])], {4: 2, 5: 1}),
    "K4 and K5": ([_complete(4), _complete(5)], {3: 4 + 10, 4: 3 + 15, 5: 12}),
    "K4 with every edge a 2-chain": ([_chain_graph(4, [(i, j, 2) for i in range(4) for j in range(i + 1, 4)])], {}),
    "four parallel chains of one length": ([_chain_graph(2, [(0, 1, 2)] * 4)], {4: 6}),
    "an edge beside parallel chains": ([_chain_graph(2, [(0, 1, 1), (0, 1, 2), (0, 1, 2)])], {3: 2, 4: 1}),
    "parallel chains and loops at both ends": (
        [_chain_graph(2, [(0, 1, 2), (0, 1, 3), (0, 0, 3), (1, 1, 4), (1, 1, 6)])],
        {3: 1, 4: 1, 5: 1},
    ),
}


def _assert_matches_reference(g, max_len):
    got = simple_cycle_counts(g, max_len, collect_len=max_len)
    assert got == _reference_cycle_counts(g, max_len, collect_vertices=True), max_len
    assert got[1]
    return got


def test_simple_cycle_counts_match_reference():
    rng = stream(65, 0)
    for _ in range(300):
        n = int(rng.integers(3, 80))
        g = sample_er(n, min(1.0, float(rng.uniform(0.5, 4.0)) / n), rng)
        _assert_matches_reference(g, int(rng.integers(3, 10)))


def test_simple_cycle_counts_kernel_cases():
    total = Counter()
    for name, (parts, at_5) in KERNEL_CASES.items():
        g = _disjoint_union(*parts)
        counts, _, _ = _assert_matches_reference(g, 5)
        assert counts == {k: at_5.get(k, 0) for k in range(3, 6)}, name
        total.update(at_5)
        for max_len in range(0, 12):
            _assert_matches_reference(g, max_len)
    union = _disjoint_union(*(part for parts, _ in KERNEL_CASES.values() for part in parts))
    assert _assert_matches_reference(union, 5)[0] == {k: total[k] for k in range(3, 6)}
    for max_len in range(0, 12):
        _assert_matches_reference(union, max_len)
    # the 6-ring and the tail lie on no counted cycle at max_len 5
    rings = _disjoint_union(*KERNEL_CASES["rings of length max_len and max_len + 1"][0])
    assert simple_cycle_counts(rings, 5, collect_len=5)[2] == set(range(5))
    assert simple_cycle_counts(rings, 6, collect_len=6)[2] == set(range(11))


def test_cycle_budget_cut_gives_lower_bounds():
    rng = stream(66, 0)
    cut = 0
    for _ in range(20):
        n = int(rng.integers(6, 25))
        g = sample_er(n, min(1.0, float(rng.uniform(1.5, 5.0)) / n), rng)
        max_len = int(rng.integers(3, 10))
        full = simple_cycle_counts(g, max_len, collect_len=max_len)
        assert full[1]
        # the least budget that completes; completion is monotone in the budget
        lo, hi = 0, 1
        while not simple_cycle_counts(g, max_len, budget=hi)[1]:
            lo, hi = hi, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if simple_cycle_counts(g, max_len, budget=mid)[1] else (mid + 1, hi)
        budgets = {0, hi - 1, hi, hi + 1} | {int(b) for b in rng.integers(0, hi + 1, size=4)}
        previous = None
        for budget in sorted(b for b in budgets if b >= 0):
            counts, done, verts = simple_cycle_counts(g, max_len, budget=budget, collect_len=max_len)
            assert done == (budget >= hi)
            if done:
                assert (counts, verts) == (full[0], full[2])
                continue
            cut += 1
            assert all(counts[k] <= full[0][k] for k in full[0])
            assert verts <= full[2]
            if previous is not None:   # a larger budget extends the same search
                assert all(previous[k] <= counts[k] for k in counts)
            previous = counts
    assert cut > 20
    # cycles that are one chain are counted before the search, whatever the budget
    ring = Graph(*_chain_graph(1, [(0, 0, 5)]))
    assert simple_cycle_counts(ring, 5, budget=0) == ({3: 0, 4: 0, 5: 1}, True, set())


def _kernel_dfs_counts(h, max_len):
    """Kernel-level reference: the chain contraction walked vertex by
    vertex, then a depth-first search per root over kernel vertices above
    it, pruned by Dial's bucketed distances back to the root through such
    vertices.  Returns (counts, True, vertices on counted cycles)."""
    adj = [tuple(h.neighbors(v)) for v in range(h.n)]
    alive = (h.core_numbers() >= 2).tolist()
    nbrs = [[w for w in adj[v] if alive[w]] if alive[v] else [] for v in range(h.n)]
    kernel = [len(nb) >= 3 for nb in nbrs]
    walked = [False] * h.n
    kadj = [[] for _ in range(h.n)]    # (far end, length, chain id)
    inner, lone = [], []

    def walk(prev, cur):
        interior = []
        while not kernel[cur] and not walked[cur]:
            walked[cur] = True
            interior.append(cur)
            a, b = nbrs[cur]
            prev, cur = cur, (b if a == prev else a)
        return interior, cur

    for u in range(h.n):
        if not kernel[u]:
            continue
        for w in nbrs[u]:
            if kernel[w]:
                if u > w:
                    continue
                interior, end = [], w
            elif walked[w]:
                continue
            else:
                interior, end = walk(u, w)
            if len(interior) >= max_len:
                continue
            if end == u:
                lone.append([u] + interior)
            else:
                kadj[u].append((end, len(interior) + 1, len(inner)))
                kadj[end].append((u, len(interior) + 1, len(inner)))
                inner.append(interior)
    for v in range(h.n):
        if nbrs[v] and not walked[v] and not kernel[v]:
            ring, _ = walk(nbrs[v][0], v)
            if len(ring) <= max_len:
                lone.append(ring)
    counts = {k: 0 for k in range(3, max_len + 1)}
    on_cycles, chains_on = set(), set()
    for cycle in lone:
        if len(cycle) <= max_len:
            counts[len(cycle)] += 1
            on_cycles.update(cycle)
    for root in range(h.n):
        if sum(w > root for w, _, _ in kadj[root]) < 2:
            continue
        radius = max_len // 2
        dist = {root: 0}
        buckets = [[root]] + [[] for _ in range(radius)]
        for d, bucket in enumerate(buckets):
            for u in bucket:
                if dist[u] < d:
                    continue
                for w, length, _ in kadj[u]:
                    e = d + length
                    if w > root and e <= radius and e < dist.get(w, e + 1):
                        dist[w] = e
                        buckets[e].append(w)
        reach = {v: max_len - d for v, d in dist.items() if v != root}
        closers = {}
        for w, length, cid in kadj[root]:
            if w in reach:
                closers.setdefault(w, []).append((length, cid))
        stack = [(0, iter([c for c in kadj[root] if c[0] in reach]))]
        path, used, in_path = [root], [], {root}
        while stack:
            d, chains = stack[-1]
            for w, length, cid in chains:
                d_w = d + length
                if d_w > reach[w] or w in in_path:
                    continue
                first = used[0] if used else cid
                for back, last in closers.get(w, ()):
                    if last > first and d_w + back <= max_len:
                        counts[d_w + back] += 1
                        on_cycles.update(path)
                        on_cycles.add(w)
                        chains_on.update((*used, cid, last))
                if d_w <= max_len - 2:
                    path.append(w)
                    used.append(cid)
                    in_path.add(w)
                    stack.append((d_w, iter([c for c in kadj[w] if c[0] in reach])))
                    break
            else:
                stack.pop()
                if used:
                    used.pop()
                    in_path.remove(path.pop())
    for cid in chains_on:
        on_cycles.update(inner[cid])
    return counts, True, on_cycles


def test_simple_cycle_counts_match_kernel_dfs_on_workload_graphs():
    # the 24 draws of G(2000, 2/2000) that the admissibility benchmark checks
    for g in (sample_er(2000, 2.0 / 2000, stream(906, rep)) for rep in range(24)):
        got = simple_cycle_counts(g, 12, collect_len=12)
        assert got == _kernel_dfs_counts(g, 12)
        # past 64 kernel vertices the path filter needs its exact check
        assert adm._contract_core(g.edge_array(), g.core_numbers() >= 2, 12).vertices.size > 64


def test_simple_cycle_counts_do_not_depend_on_block_sizes(monkeypatch):
    # tiny blocks: many blocks of roots, and paths split across steps
    rng = stream(69, 0)
    graphs = [sample_er(int(n), min(1.0, 3.0 / n), rng) for n in rng.integers(30, 80, size=5)]
    graphs.append(_disjoint_union(*(part for parts, _ in KERNEL_CASES.values() for part in parts)))
    want = [[_kernel_dfs_counts(g, max_len) for max_len in (5, 8)] for g in graphs]
    for row_block, dist_cells in ((3, 5), (16, 40)):
        monkeypatch.setattr(adm, "_ROW_BLOCK", row_block)
        monkeypatch.setattr(adm, "_DIST_CELLS", dist_cells)
        for g, expected in zip(graphs, want):
            for max_len, counts in zip((5, 8), expected):
                assert simple_cycle_counts(g, max_len, collect_len=max_len) == counts


def test_longer_scan_collects_what_a_scan_at_collect_len_does():
    rng = stream(72, 0)
    graphs = [sample_er(int(n), min(1.0, float(rng.uniform(1.0, 3.0)) / n), rng) for n in rng.integers(10, 80, size=30)]
    graphs += [_disjoint_union(*parts) for parts, _ in KERNEL_CASES.values()]
    graphs += [sample_er(2000, 2.0 / 2000, stream(906, rep)) for rep in range(24)]
    for g in graphs:
        for t in range(3, 7):
            counts_t, done_t, verts_t = simple_cycle_counts(g, t, collect_len=t)
            assert done_t
            for max_len in (t, 8, 12):
                counts, done, verts = simple_cycle_counts(g, max_len, collect_len=t)
                assert done and verts == verts_t, (t, max_len)
                assert {k: counts[k] for k in counts_t} == counts_t, (t, max_len)


def test_check_admissible_runs_one_cycle_scan(monkeypatch):
    lengths = []
    scan = adm.simple_cycle_counts

    def spy(h, max_len, *args, **kwargs):
        lengths.append(max_len)
        return scan(h, max_len, *args, **kwargs)

    monkeypatch.setattr(adm, "simple_cycle_counts", spy)
    g = sample_er(2000, 2.0 / 2000, stream(906, 0))
    for consts in (default_constants(0.5, 1.4, 2000), lenient_constants(2000, tiny_component_cap=7, cycle_len_cap=5)):
        lengths.clear()
        check_admissible(g, consts)
        assert lengths == [max(consts.tiny_component_cap, consts.cycle_len_cap)]


def _subset_cycle_counts(h, max_len):
    """Vertex-level oracle by dynamic programming over vertex subsets, for
    graphs of up to about 20 vertices: walks[mask, v] counts the simple
    paths that start at the least vertex of mask, visit exactly mask and
    end at v.  Each k-cycle is two such paths of k vertices whose ends are
    adjacent.  Returns (counts, True, vertices on counted cycles)."""
    n = h.n
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in h.edges:
        adj[u, v] = adj[v, u] = 1
    masks = np.arange(1 << n)
    low = np.full(1 << n, n)
    for v in reversed(range(n)):
        low[masks >> v & 1 == 1] = v
    size = np.bitwise_count(masks)
    walks = np.zeros((1 << n, n), dtype=np.int64)
    walks[1 << np.arange(n), np.arange(n)] = 1
    counts = {k: 0 for k in range(3, max_len + 1)}
    on_cycles = 0
    for k in range(1, max_len + 1):
        layer = masks[size == k]
        if k >= 3:
            closed = (walks[layer] * adj[low[layer]]).sum(axis=1)
            counts[k] = int(closed.sum()) // 2
            on_cycles |= int(np.bitwise_or.reduce(layer[closed > 0], initial=0))
        for u in range(n):
            grow = layer[(layer >> u & 1 == 0) & (low[layer] < u)]
            walks[grow | 1 << u, u] += walks[grow] @ adj[:, u]
    return counts, True, {v for v in range(n) if on_cycles >> v & 1}


@functools.cache
def _dense_scan():
    """The scan of G(16, 0.5) at max_len 12 with the default budget, and
    its tracemalloc peak in bytes."""
    g = sample_er(16, 0.5, stream(31, 0))
    g.core_numbers()
    tracemalloc.start()
    try:
        got = simple_cycle_counts(g, 12, collect_len=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return g, got, peak


def test_subset_oracle_matches_the_vertex_dfs():
    rng = stream(70, 0)
    for _ in range(30):
        n = int(rng.integers(3, 11))
        g = sample_er(n, float(rng.uniform(0.2, 0.9)), rng)
        max_len = int(rng.integers(3, n + 2))
        assert _subset_cycle_counts(g, max_len) == _reference_cycle_counts(g, max_len, collect_vertices=True)


def test_simple_cycle_counts_dense_graph_at_length_12():
    g, got, _ = _dense_scan()
    assert got == _subset_cycle_counts(g, 12)
    assert got[0][8] == 71406 and got[0][12] == 2711841


# tracemalloc peaks measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
# scipy 1.17), in MiB like the bounds: 9.0 on G(16, 0.5) at max_len 12 and
# 3.2 on G(2e4, 2/2e4).  The bounds leave room for allocator and library
# differences.  A level of paths held whole (millions of paths on the dense
# graph) or a root-by-kernel distance table (19.9 MB even at one byte a
# cell for the sparse graph's 4 461 kernel vertices) breaks them.
DENSE_PEAK_BOUND = 24 * 2**20
SPARSE_PEAK_BOUND = 8 * 2**20


def test_cycle_scan_memory_dense():
    _, (_, completed, _), peak = _dense_scan()
    assert completed
    assert peak < DENSE_PEAK_BOUND, peak


def test_cycle_scan_memory_sparse():
    g = sample_er(20_000, 2.0 / 20_000, stream(71, 0))
    g.core_numbers()
    tracemalloc.start()
    try:
        counts, completed, _ = simple_cycle_counts(g, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert completed and sum(counts.values()) > 0
    assert peak < SPARSE_PEAK_BOUND, peak


def _induced_connected(adj, subset):
    seen, frontier = {subset[0]}, [subset[0]]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w in subset and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(subset)


def test_connected_sets_match_bruteforce():
    rng = stream(62, 0)
    for _ in range(30):
        n = int(rng.integers(2, 13))
        g = sample_er(n, float(rng.uniform(0.1, 0.6)), rng)
        adj = [tuple(g.neighbors(v)) for v in range(n)]
        max_size = int(rng.integers(1, n + 1))
        for alive in ((g.core_numbers() >= 2).tolist(), [True] * n):
            got = Counter()
            for sub, edges in _connected_sets(g.csr(), alive, max_size, [10**6]):
                got[frozenset(sub)] += 1
                assert edges == g.edges_within(sub)
            assert set(got.values()) <= {1}
            want = set()
            for mask in range(1, 1 << n):
                sub = [v for v in range(n) if mask >> v & 1]
                if len(sub) <= max_size and all(alive[v] for v in sub) and _induced_connected(adj, sub):
                    want.add(frozenset(sub))
            assert set(got) == want


# -- good sets --


def test_good_set_trivial_cases():
    forest = Graph(6, [(0, 1), (2, 3)])
    assert is_good_set(forest, {5}, c_big=2).ok
    assert not is_good_set(forest, {0, 1}, c_big=2).ok  # adjacent pair


def test_good_set_cycle_distance_boundary():
    c = 3
    # triangle 0-1-2, pendant path of length c from vertex 2: endpoint at
    # distance exactly c from the cycle, which is not allowed (> c needed)
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
    g = Graph(7, edges)
    res = is_good_set(g, {5}, c_big=c)
    assert not res.ok and res.witness["vertex"] == 5
    # one step farther is fine
    edges2 = edges + [(5, 6)]
    g2 = Graph(8, edges2)
    assert is_good_set(g2, {6}, c_big=c).ok


def test_good_set_pairwise_distance_boundary():
    c = 2
    # path with 2c+2 edges: endpoints exactly 2c+2 apart -> not good
    m = 2 * c + 2
    g = Graph(m + 1, [(i, i + 1) for i in range(m)])
    assert not is_good_set(g, {0, m}, c_big=c).ok
    # path with 2c+3 edges: endpoints 2c+3 apart -> good
    g2 = Graph(m + 2, [(i, i + 1) for i in range(m + 1)])
    assert is_good_set(g2, {0, m + 1}, c_big=c).ok


def test_find_good_set_on_empty_graph_returns_k():
    g = Graph(9)
    got = find_good_set(g, set(range(9)), k_target=4, c_big=3)
    assert got == (0, 1, 2, 3)
    assert is_good_set(g, set(got), 3).ok


def test_find_good_set_long_path_endpoints():
    c = 2
    m = 2 * c + 3
    g = Graph(m + 1, [(i, i + 1) for i in range(m)])
    got = find_good_set(g, {0, m}, k_target=2, c_big=c)
    assert got == (0, m)


def test_find_good_set_output_always_good_and_monotone():
    rng = stream(44, 0)
    for _ in range(15):
        n = int(rng.integers(8, 40))
        g = sample_er(n, 2.0 / n, rng)
        b = {int(v) for v in rng.choice(n, size=n // 2, replace=False)}
        got = find_good_set(g, b, k_target=3, c_big=2)
        assert set(got) <= b
        assert is_good_set(g, set(got), 2).ok
        # shrinking preserves goodness
        if len(got) >= 2:
            assert is_good_set(g, set(got[:-1]), 2).ok


def test_find_good_set_reports_shortfall_not_error():
    g = Graph(3, [(0, 1), (1, 2)])
    got = find_good_set(g, {0, 1, 2}, k_target=3, c_big=1)
    assert len(got) < 3  # everything is within 2C+2 of vertex 0
