import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

import corrmatch.density as density_module
from corrmatch.density import (
    RhoCurve,
    densest_subgraph_exact,
    density_exceeds,
    isotonic_fit,
    level_below,
    rho_inverse,
)
from corrmatch.graphs import Bijection, Graph, relabel, sample_er
from corrmatch.harness import ExperimentConfig, run_rho_curve
from corrmatch.rng import stream

from oracles import densest_subgraph_bruteforce, lower_bound_ok


def rho_curve(grid, n, replicates, seed):
    """(csv, curve) of the rho curve over grid, from the harness driver."""
    config = ExperimentConfig(kind="rho-curve", n=n, replicates=replicates, seed=seed, lambda_grid=tuple(grid))
    return run_rho_curve(config)


def test_trivial_examples_both_solvers():
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    edge = Graph(2, [(0, 1)])
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for solver in (densest_subgraph_exact, densest_subgraph_bruteforce):
        assert solver(triangle).density == Fraction(1)
        assert solver(edge).density == Fraction(1, 2)
        assert solver(k4).density == Fraction(3, 2)
        assert solver(path4).density == Fraction(3, 4)


def test_no_edges_gives_zero_on_singleton():
    for solver in (densest_subgraph_exact, densest_subgraph_bruteforce):
        res = solver(Graph(5))
        assert res.density == 0 and len(res.best_subset) == 1


def test_density_is_attained_by_reported_subset():
    rng = stream(8, 0)
    for _ in range(30):
        n = int(rng.integers(2, 15))
        g = sample_er(n, float(rng.random()) * 0.7, rng)
        res = densest_subgraph_exact(g)
        k = len(res.best_subset)
        assert res.witness_edges == g.edges_within(res.best_subset)
        assert res.density == Fraction(res.witness_edges, k)


def test_exact_solver_at_n_1e5():
    n = 100_000
    rng = stream(5, 0)
    t0 = time.perf_counter()
    g = sample_er(n, 4 / n, rng)
    assert time.perf_counter() - t0 <= 2.0
    res = densest_subgraph_exact(g)   # an OverflowError here would mean the int32 guard tripped
    assert res.density == Fraction(res.witness_edges, len(res.best_subset))
    assert res.witness_edges == g.edges_within(res.best_subset)
    assert res.density >= Fraction(g.edge_count, n)


def test_exact_equals_bruteforce_random_corpus():
    rng = stream(9, 0)
    for trial in range(120):
        n = int(rng.integers(2, 14))
        q = float(rng.random()) * 0.8
        g = sample_er(n, q, rng)
        assert densest_subgraph_exact(g).density == densest_subgraph_bruteforce(g).density


def _maximal_densest_bruteforce(g):
    """The union of all subsets of maximum density, over all 2^n - 1
    nonempty subsets."""
    n = g.n
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    counts = [0] * (1 << n)
    best_edges, best_size, union = 0, 1, 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        prev = mask ^ low
        counts[mask] = counts[prev] + (adj[low.bit_length() - 1] & prev).bit_count()
        size = mask.bit_count()
        if counts[mask] * best_size > best_edges * size:
            best_edges, best_size, union = counts[mask], size, mask
        elif counts[mask] * best_size == best_edges * size:
            union |= mask
    return tuple(v for v in range(n) if union >> v & 1), Fraction(best_edges, best_size)


def _disjoint(*parts):
    """Disjoint union of (vertex count, edge list) parts."""
    edges, n = [], 0
    for k, part in parts:
        edges.extend((u + n, v + n) for u, v in part)
        n += k
    return Graph(n, edges)


def _cycle(k):
    return k, [(i, (i + 1) % k) for i in range(k)]


def _clique(k):
    return k, [(i, j) for i in range(k) for j in range(i + 1, k)]


def _tie_corpus():
    triangles = _disjoint(_cycle(3), _cycle(3), _cycle(3), (1, []))
    two_k4 = _disjoint(_clique(4), (2, [(0, 1)]), _clique(4))
    # cycles with pendant trees hanging off them
    c5_tree = _disjoint((8, [*_cycle(5)[1], (0, 5), (5, 6), (2, 7)]))
    two_cycles_trees = _disjoint(
        (7, [*_cycle(4)[1], (0, 4), (4, 5), (4, 6)]), (6, [*_cycle(3)[1], (1, 3), (3, 4), (2, 5)])
    )
    theta_and_k4 = _disjoint(_clique(4), (6, [*_cycle(6)[1], (0, 3)]))
    return [triangles, two_k4, c5_tree, two_cycles_trees, theta_and_k4]


def test_exact_returns_the_maximal_densest_subgraph():
    rng = stream(14, 0)
    corpus = _tie_corpus()
    for _ in range(80):
        n = int(rng.integers(1, 15))
        corpus.append(sample_er(n, float(rng.uniform(0.05, 0.6)), rng))
    for g in corpus:
        res = densest_subgraph_exact(g)
        if g.edge_count == 0:
            assert res.best_subset == (0,) and res.density == 0
            continue
        union, rho = _maximal_densest_bruteforce(g)
        assert (res.best_subset, res.density) == (union, rho)
        assert res.witness_edges == g.edges_within(union)


def _few_cycles(rng, kind):
    """A random graph on at most 14 vertices whose components each have at
    most one cycle, under a random labelling, and its number of unicyclic
    components.  Kind 0 is a forest whose two largest trees tie, kind 1 has
    two or three unicyclic components, kind 2 mixes trees, unicyclic
    components and isolated vertices."""
    if kind == 0:
        big = int(rng.integers(2, 6))
        sizes = [big, big] + [int(v) for v in rng.integers(1, big, size=int(rng.integers(0, 3)))]
    elif kind == 1:
        sizes = [int(v) for v in rng.integers(3, 5, size=int(rng.integers(2, 4)))]
        sizes += [int(v) for v in rng.integers(1, 4, size=int(rng.integers(0, 2)))]
    else:
        sizes = [int(v) for v in rng.integers(1, 7, size=int(rng.integers(1, 5)))]
    while sum(sizes) > 14:
        sizes.pop()
    n = sum(sizes)
    label = rng.permutation(n)
    edges, start, unicyclic = [], 0, 0
    for i, k in enumerate(sizes):
        part = [(int(rng.integers(0, v)), v) for v in range(1, k)]   # a random tree
        if k >= 3 and ((kind == 1 and i < 2) or (kind == 2 and rng.random() < 0.4)):
            extra = sorted({(u, v) for u in range(k) for v in range(u + 1, k)} - set(part))
            part.append(extra[int(rng.integers(0, len(extra)))])
            unicyclic += 1
        edges.extend((int(label[u + start]), int(label[v + start])) for u, v in part)
        start += k
    return Graph(n, edges), unicyclic


def test_at_most_one_cycle_per_component_needs_no_flow(monkeypatch):
    rng = stream(19, 0)
    seen = {"tie": 0, "several unicyclic": 0, "isolated": 0, "forest": 0}
    for trial in range(90):
        kind = trial % 3
        g, unicyclic = _few_cycles(rng, kind)
        if g.edge_count == 0:
            continue
        calls = _count_flows(monkeypatch)
        res = densest_subgraph_exact(g)
        assert not calls, trial
        assert res == density_module._newton(g)
        union, rho = _maximal_densest_bruteforce(g)
        assert (res.best_subset, res.density) == (union, rho)
        assert res.density == densest_subgraph_bruteforce(g).density
        assert res.witness_edges == g.edges_within(res.best_subset)
        seen["tie"] += kind == 0 and unicyclic == 0
        seen["several unicyclic"] += unicyclic >= 2
        seen["isolated"] += bool((g.degrees == 0).any())
        seen["forest"] += unicyclic == 0
    assert min(seen.values()) >= 15, seen


def test_a_complex_component_takes_the_flow_route(monkeypatch):
    # a theta graph (8 edges on 7 vertices) beside a long path: m <= n, but
    # one component has two cycles
    g = _disjoint((7, [*_cycle(6)[1], (0, 6), (6, 3)]), (12, [(i, i + 1) for i in range(11)]))
    assert g.edge_count <= g.n
    calls = _count_flows(monkeypatch)
    res = densest_subgraph_exact(g)
    assert calls and (res.best_subset, res.density) == (tuple(range(7)), Fraction(8, 7))


def test_paths_need_no_flow(monkeypatch):
    def refuse(*args):
        raise AssertionError("a flow on a path")

    monkeypatch.setattr(density_module, "_cut_side", refuse)
    for n in (2_000, 100_000):
        path = Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n))
        res = densest_subgraph_exact(path)
        assert res.density == Fraction(n - 1, n) and res.witness_edges == n - 1
        assert res.best_subset == tuple(range(n))


def _complex_components(g):
    """The number of components of g with more edges than vertices, by
    union-find over the edge list."""
    parent = list(range(g.n))

    def root(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[root(u)] = root(v)
    verts, edges = {}, {}
    for v in range(g.n):
        verts[root(v)] = verts.get(root(v), 0) + 1
    for u, _ in g.edges:
        edges[root(u)] = edges.get(root(u), 0) + 1
    return sum(edges[r] > verts[r] for r in edges)


def test_lambda_one_draws_skip_the_flows_they_can(monkeypatch):
    # the lambda = 1 draws of a rho curve at n = 3000: most have no
    # component with two cycles
    skipped = 0
    for k in range(10):
        g = sample_er(3000, 1 / 3000, stream(505, k))
        flows = _count_flows(monkeypatch)
        want = density_module._newton(g)
        assert flows
        flows.clear()
        assert densest_subgraph_exact(g) == want
        assert (not flows) == (_complex_components(g) == 0), k
        skipped += not flows
    assert skipped >= 7, skipped


def _count_flows(monkeypatch, alter=lambda call, result: result):
    """Route density.maximum_flow through a counter; alter(call, result)
    may replace the result of each call."""
    calls = []

    def counted(graph, source, sink):
        calls.append(graph)
        return alter(len(calls) - 1, maximum_flow(graph, source, sink))

    monkeypatch.setattr(density_module, "maximum_flow", counted)
    return calls


def test_core_warm_start_needs_one_flow(monkeypatch):
    # K5 plus a disjoint 3-vertex path: the 2-core is the K5, so
    # gamma_0 = rho* = 2 and the single flow already terminates
    g = _disjoint(_clique(5), (3, [(0, 1), (1, 2)]))
    calls = _count_flows(monkeypatch)
    res = densest_subgraph_exact(g)
    assert (res.best_subset, res.density, res.witness_edges) == ((0, 1, 2, 3, 4), Fraction(2), 10)
    assert len(calls) == 1
    assert calls[0].shape == (7, 7)   # the K5 and the two terminals


def test_every_flow_is_checked_against_the_cut_identity(monkeypatch):
    g = sample_er(300, 3 / 300, stream(11, 0))
    calls = _count_flows(monkeypatch)
    densest_subgraph_exact(g)
    assert len(calls) == 3   # Newton steps, then the terminating flow
    for bad in range(len(calls)):
        _count_flows(
            monkeypatch,
            lambda call, r: SimpleNamespace(flow_value=r.flow_value - 1, flow=r.flow) if call == bad else r,
        )
        with pytest.raises(AssertionError, match="minimum cut"):
            densest_subgraph_exact(g)


def test_every_flow_is_checked_against_the_network_structure(monkeypatch):
    g = sample_er(300, 3 / 300, stream(11, 0))
    calls = _count_flows(monkeypatch)
    densest_subgraph_exact(g)
    for bad in range(len(calls)):

        def pruned(call, r):
            if call != bad:
                return r
            flow = r.flow.copy()
            flow.eliminate_zeros()   # drops the arcs that carry no flow
            return SimpleNamespace(flow_value=r.flow_value, flow=flow)

        _count_flows(monkeypatch, pruned)
        with pytest.raises(AssertionError, match="structure"):
            densest_subgraph_exact(g)


def _textbook_cut(n, edges, gamma):
    """The two-arcs-per-vertex reduction network (source->v capacity
    b*deg(v), v->sink capacity 2a, doubled internal arcs of capacity b):
    (improved, side, side_edges, flow_value), side the maximal source
    side for both outcomes, as density._cut_side reports it: the vertices
    that cannot reach the sink in the residual graph."""
    m = len(edges)
    a, b = gamma.numerator, gamma.denominator
    src, dst = n, n + 1
    rows = np.concatenate([np.full(n, src), np.arange(n), edges[:, 0], edges[:, 1]])
    cols = np.concatenate([np.arange(n), np.full(n, dst), edges[:, 1], edges[:, 0]])
    caps = np.concatenate([
        b * np.bincount(edges.ravel(), minlength=n), np.full(n, 2 * a), np.full(2 * m, b)
    ])
    graph = csr_matrix((caps.astype(np.int32), (rows, cols)), shape=(n + 2, n + 2))
    result = maximum_flow(graph, src, dst)
    residual = graph - result.flow
    residual.data = np.maximum(residual.data, 0)
    residual.eliminate_zeros()
    improved = result.flow_value < 2 * b * m
    reach = breadth_first_order(residual.T.tocsr(), dst, return_predecessors=False)
    side = np.ones(n, dtype=bool)
    side[reach[reach < n]] = False
    side_edges = int(np.count_nonzero(side[edges[:, 0]] & side[edges[:, 1]]))
    return improved, np.flatnonzero(side), side_edges, result.flow_value


def test_one_terminal_arc_network_matches_the_textbook_one(monkeypatch):
    flows = []

    def recorded(call, result):
        flows.append(result)
        return result

    _count_flows(monkeypatch, recorded)
    rng = stream(15, 0)
    pairs = zero_arcs = 0
    outcomes = set()
    while pairs < 240:
        n = int(rng.integers(2, 41))
        g = sample_er(n, min(1.0, float(rng.uniform(0.5, 8.0)) / n), rng)
        if g.edge_count == 0:
            continue
        edges = g.edge_array()
        rho = densest_subgraph_exact(g).density
        deg = int(rng.choice(g.degrees))
        gammas = {
            rho,
            rho + Fraction(1, n * n),
            rho - Fraction(1, n * n),
            Fraction(int(rng.integers(1, 4 * n)), n),
            Fraction(max(deg, 1), 2),   # some vertex gets no terminal arc
        }
        for gamma in gammas:
            if gamma <= 0:
                continue
            want = _textbook_cut(n, edges, gamma)
            flows.clear()
            improved, side, side_edges = density_module._cut_side(n, edges, gamma)
            a, b = gamma.numerator, gamma.denominator
            base = int(np.minimum(b * np.bincount(edges.ravel(), minlength=n), 2 * a).sum())
            assert (improved, side.tolist(), side_edges) == (want[0], want[1].tolist(), want[2])
            assert want[3] - flows[0].flow_value == base
            assert improved == (rho > gamma)
            outcomes.add(improved)
            zero_arcs += bool((b * np.bincount(edges.ravel(), minlength=n) == 2 * a).any())
            pairs += 1
    assert outcomes == {True, False} and zero_arcs >= 20


def _source_sides_bruteforce(g, gamma):
    """(least, union) of the maximizers of |E(U)| - gamma|U| over all 2^n
    vertex sets U, the empty set included, as bitmasks."""
    n = g.n
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    counts = [0] * (1 << n)
    best, least, union = Fraction(0), (1 << n) - 1, 0
    for mask in range(1 << n):
        if mask:
            low = mask & -mask
            prev = mask ^ low
            counts[mask] = counts[prev] + (adj[low.bit_length() - 1] & prev).bit_count()
        val = counts[mask] - gamma * mask.bit_count()
        if val > best:
            best, least, union = val, mask, mask
        elif val == best:
            least &= mask
            union |= mask
    return least, union


def test_parametric_source_sides_nest():
    rng = stream(16, 0)
    seen, nonempty = set(), 0
    for _ in range(60):
        n = int(rng.integers(2, 13))
        g = sample_er(n, float(rng.uniform(0.15, 0.9)), rng)
        edges = g.edge_array()
        rho = densest_subgraph_exact(g).density
        lo, hi = sorted(rho * Fraction(int(x), 10) + Fraction(1, n * n) for x in rng.integers(0, 14, size=2))
        if lo == hi:
            continue
        least_lo, _ = _source_sides_bruteforce(g, lo)
        _, union_hi = _source_sides_bruteforce(g, hi)
        assert union_hi & ~least_lo == 0, (n, lo, hi)
        nonempty += union_hi != 0
        for gamma in (lo, hi):
            _, union = _source_sides_bruteforce(g, gamma)
            improved, side, _ = density_module._cut_side(n, edges, gamma)
            assert sum(1 << int(v) for v in side) == union
            seen.add(improved)
    assert seen == {True, False}, seen
    assert nonempty >= 10, nonempty


def test_newton_steps_from_a_maximal_maximizer_stay_exact(monkeypatch):
    # K5 with a vertex joined to three of its members (13 edges on 6
    # vertices), a second K5 and a K4: the 4-core (the two K5) has density
    # 2 and every other core less, so the first flow runs at gamma = 2,
    # where the first part gains 1 and the second K5 ties at 0
    k5_plus = (6, [*_clique(5)[1], (0, 5), (1, 5), (2, 5)])
    g = _disjoint(k5_plus, _clique(5), _clique(4))
    flows = []
    cut_side = density_module._cut_side

    def recorded(n, edges, gamma):
        result = cut_side(n, edges, gamma)
        flows.append((gamma, result[0]))
        return result

    monkeypatch.setattr(density_module, "_cut_side", recorded)
    res = densest_subgraph_exact(g)
    # the next step runs at the union's density 23/11, not at the least
    # maximizer's 13/6, and lands on rho* = 13/6 one flow later
    assert flows == [(Fraction(2), True), (Fraction(23, 11), True), (Fraction(13, 6), False)]
    least, union = _source_sides_bruteforce(g, Fraction(2))
    assert (least, union) == (0b111111, 0b11111111111)
    assert (res.best_subset, res.density) == _maximal_densest_bruteforce(g)
    assert (res.best_subset, res.density, res.witness_edges) == (tuple(range(6)), Fraction(13, 6), 13)


def test_newton_steps_run_inside_the_last_witness(monkeypatch):
    g = sample_er(300, 3 / 300, stream(11, 0))
    calls = _count_flows(monkeypatch)
    res = densest_subgraph_exact(g)
    assert len(calls) >= 2
    assert all(later.nnz <= earlier.nnz for earlier, later in zip(calls, calls[1:]))
    restricted = [graph.nnz for graph in calls]
    core_cut = density_module._core_cut
    monkeypatch.setattr(
        density_module, "_core_cut", lambda core, edges, edge_core, gamma, within=None: core_cut(core, edges, edge_core, gamma)
    )
    calls = _count_flows(monkeypatch)
    assert densest_subgraph_exact(g) == res
    assert len(calls) == len(restricted)
    assert restricted[0] == calls[0].nnz and restricted[-1] < calls[-1].nnz


def test_density_exceeds_matches_the_exact_maximum(monkeypatch):
    calls = _count_flows(monkeypatch)
    branches = set()
    rng = stream(12, 0)
    for _ in range(120):
        n = int(rng.integers(2, 31))
        g = sample_er(n, min(1.0, float(rng.uniform(0.5, 6.0)) / n), rng)
        rho = densest_subgraph_exact(g).density
        gammas = {rho, rho + Fraction(1, n * n), Fraction(int(rng.integers(1, 4 * n)), n)}
        if rho > 0:
            gammas.add(rho - Fraction(1, n * n))
        for gamma in gammas:
            calls.clear()
            assert density_exceeds(g, gamma) == (rho > gamma), (n, gamma)
            assert len(calls) <= 1
            if gamma > 0:
                branches.add((len(calls), rho > gamma))
        # at the level of a float x, the one call decides rho* <= x
        fl = float(rho)
        for x in (fl, math.nextafter(fl, 0), math.nextafter(fl, math.inf), float(rng.uniform(-1.0, 4.0))):
            calls.clear()
            assert density_exceeds(g, level_below(x, n)) == (rho > x), (n, x)
            assert len(calls) <= 1
    # a k-core denser than gamma (no flow), an empty ceil(gamma)-core (no
    # flow), and both answers of the flow
    assert branches == {(0, True), (0, False), (1, True), (1, False)}
    # no flow at or below 0: any vertex beats a negative level, any edge 0
    calls.clear()
    for g, gamma, want in [
        (Graph(1), Fraction(-1, 3), True),
        (Graph(3), Fraction(0), False),
        (Graph(3, [(0, 2)]), Fraction(0), True),
    ]:
        assert density_exceeds(g, gamma) == want
    assert calls == []


def test_density_exceeds_at_most_one_takes_no_flow(monkeypatch):
    # at gamma <= 1 a component with more edges than vertices answers yes,
    # and otherwise the closed form for at most one cycle per component
    calls = _count_flows(monkeypatch)
    rng = stream(9, 1)
    corpus = _tie_corpus() + [_few_cycles(rng, k % 3)[0] for k in range(30)]
    corpus += [sample_er(int(rng.integers(2, 14)), float(rng.random()) * 0.8, rng) for _ in range(60)]
    levels = (Fraction(-1), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))
    answers = set()
    for g in corpus:
        rho = densest_subgraph_bruteforce(g).density
        for gamma in levels:
            assert density_exceeds(g, gamma) == (rho > gamma), (g, gamma)
            answers.add((gamma, rho > gamma))
    assert answers == {(gamma, want) for gamma in levels for want in (False, True)} - {(Fraction(-1), False)}
    n = 100_000
    path = Graph.from_arrays(n, np.arange(n - 1), np.arange(1, n))
    assert density_exceeds(path, Fraction(1, 2)) and not density_exceeds(path, Fraction(1))
    assert not density_exceeds(Graph(0), Fraction(-1))
    assert calls == []



def test_density_exceeds_checks_its_level_once(monkeypatch):
    # rho* = 53/28, and the best k-core has density 301/163: 3/2 answers
    # through the core shortcut, 37/20 and 11/5 through the flow, 1/2 with
    # no flow; each answers a Python bool, and a float, a bool or a string
    # is refused on every path alike
    g = sample_er(200, 4 / 200, stream(3, 0))
    assert densest_subgraph_exact(g).density == Fraction(53, 28)
    calls = _count_flows(monkeypatch)
    for level, flows in ((Fraction(1, 2), 0), (Fraction(3, 2), 0), (Fraction(37, 20), 1), (Fraction(11, 5), 1)):
        calls.clear()
        assert density_exceeds(g, level) is (level < Fraction(53, 28)), level
        assert len(calls) == flows, level
        with pytest.raises(ValueError, match="level_below"):
            density_exceeds(g, float(level))
    assert density_exceeds(g, 1) and not density_exceeds(g, np.int64(2))
    for level in (True, False, np.bool_(True), "1", 1.0, complex(1)):
        with pytest.raises(ValueError, match="level_below"):
            density_exceeds(g, level)

def _level_bruteforce(x, n):
    """max over q <= n of floor(x q)/q, x taken exactly and clamped to [-1, n]."""
    x = min(max(Fraction(x), Fraction(-1)), Fraction(n))
    return max(Fraction(math.floor(x * q), q) for q in range(1, n + 1))


def test_level_below_is_the_exact_grid_floor():
    # 0.7 * 10 rounds up to 7.0 in floats, but the float 0.7 lies below 7/10
    assert 0.7 * 10 == 7.0 and Fraction(0.7) < Fraction(7, 10)
    # and the largest density of a 10-vertex graph below it is 2/3, not 3/5
    assert level_below(0.7, 10) == Fraction(2, 3)
    assert level_below(1.5, 4) == Fraction(3, 2)
    assert level_below(1e300, 5) == 5 and level_below(-1e300, 5) == -1
    assert level_below(-0.3, 10) == Fraction(-3, 10) and level_below(0.05, 10) == 0
    rng = stream(13, 0)
    for i in range(3000):
        n = int(rng.integers(1, 91))
        q = int(rng.integers(1, 120))
        x = [
            int(rng.integers(-4 * 64, 64 * 96)) / 64,                         # dyadic
            round(float(rng.uniform(-1.0, 8.0)), int(rng.integers(0, 4))),   # decimal
            math.nextafter(int(rng.integers(-q, 4 * q)) / q, (-math.inf, math.inf)[i % 2]),
            float(rng.uniform(-3.0, 0.0)),                                   # negative
            float(rng.uniform(n, 3 * n)),                                    # above n
        ][i % 5]
        assert level_below(x, n) == _level_bruteforce(x, n), (x, n)


def test_solver_invariant_under_relabeling():
    rng = stream(10, 0)
    for _ in range(15):
        n = int(rng.integers(3, 12))
        g = sample_er(n, 0.4, rng)
        pi = Bijection.uniform(n, rng)
        h = relabel(g, pi)
        a = densest_subgraph_exact(g)
        b = densest_subgraph_exact(h)
        assert a.density == b.density
        # the image of a's maximizer attains the optimum in the relabeled graph
        image = [int(pi.forward[v]) for v in a.best_subset]
        assert Fraction(h.edges_within(image), len(image)) == b.density


def test_bruteforce_rejects_large_n():
    with pytest.raises(ValueError):
        densest_subgraph_bruteforce(Graph(21))


def test_one_point_rho_curve_whole_graph_bound():
    _, curve = rho_curve([3.0], n=400, replicates=5, seed=5)
    floor_val = 3.0 / 2 * (400 - 1) / 400
    assert curve.rho_hat[0] >= floor_val - 3 * curve.stderr[0]
    assert 0 < curve.size_q05[0] <= curve.size_q50[0] <= 1


def test_rho_curve_monotone_after_isotonic_and_bounds():
    _, curve = rho_curve([1.5, 2.0, 4.0], n=300, replicates=4, seed=6)
    iso = curve.isotonic()
    assert all(iso[i] <= iso[i + 1] + 1e-12 for i in range(len(iso) - 1))
    assert lower_bound_ok(curve, slack=0.1)


def test_isotonic_fit_pools_violators():
    fit = isotonic_fit(np.array([1.0, 3.0, 2.0, 5.0]))
    assert list(fit) == [1.0, 2.5, 2.5, 5.0]
    increasing = isotonic_fit(np.array([1.0, 2.0, 3.0]))
    assert list(increasing) == [1.0, 2.0, 3.0]


def _invert_by_bisection(grid, values, target):
    """Leftmost lambda where the interpolant of values reaches target, by 200
    bisection steps: the oracle for the closed-form inversion."""
    lo, hi = float(grid[0]), float(grid[-1])
    if target <= values[0]:
        return lo
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if np.interp(mid, grid, values) >= target:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


def test_curve_inversion_matches_bisection():
    rng = stream(14, 0)
    for i in range(2000):
        k = int(rng.integers(1, 10))
        grid = np.cumsum(rng.uniform(0.1, 2.0, k))
        raw = rng.normal(size=k).cumsum() if i % 2 else np.round(rng.uniform(0.0, 3.0, k), 1)
        iso = isotonic_fit(raw)
        target = float(rng.choice(iso)) if i % 3 == 0 else float(rng.uniform(iso[0] - 0.5, iso[-1]))
        # bisection resolves lambda only as finely as np.interp rounds the values
        want = _invert_by_bisection(grid, iso, target)
        assert density_module._invert_monotone(grid, iso, target) == pytest.approx(want, abs=1e-9), (grid, iso, target)


def test_rho_inverse_at_knot_and_refusal():
    curve = RhoCurve(
        lambda_grid=(1.0, 2.0, 4.0, 8.0),
        rho_hat=(1.0, 1.4, 2.2, 4.05),
        stderr=(0.01, 0.01, 0.01, 0.02),
        size_q05=(0.05, 0.2, 0.5, 0.8),
        size_q50=(0.08, 0.3, 0.6, 0.86),
        n_used=1000,
    )
    est = rho_inverse(1.4, curve)
    assert est.lambda_star == pytest.approx(2.0, abs=0.05)
    assert est.lo <= est.lambda_star <= est.hi
    est1 = rho_inverse(1.0, curve)
    assert est1.lambda_star == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        rho_inverse(5.0, curve)
    with pytest.raises(ValueError):
        rho_inverse(0.5, curve)


def test_rho_inverse_target_two_bounded_by_four():
    # rho(4) >= 2 by the whole-graph bound, so the alpha = 1/2 threshold
    # estimate cannot exceed 4 by more than the band.
    _, curve = rho_curve([1.0, 2.0, 3.0, 4.0, 5.0], n=500, replicates=5, seed=12)
    est = rho_inverse(2.0, curve)
    assert est.lambda_star <= 4.0 + (est.hi - est.lo) + 0.5


def test_rho_curve_csv_schema():
    csv, _ = rho_curve([1.0, 2.0], n=100, replicates=3, seed=3)
    lines = csv.strip().splitlines()
    assert lines[0] == "lambda,n,replicates,rho_hat,stderr,size_q05,size_q50"
    assert len(lines) == 3
    assert all(len(row.split(",")) == 7 for row in lines[1:])
