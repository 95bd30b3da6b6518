import itertools
import json
import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch import graphs
from corrmatch.admissibility import simple_cycle_counts
from corrmatch.graphs import (
    Bijection,
    Graph,
    ModelParams,
    intersection_graph,
    overlap,
    relabel,
    sample_correlated,
    sample_er,
    sample_independent,
)
from corrmatch.rng import stream

from oracles import alpha_hat, assert_means_match, compose, expected_cycles


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# -- construction and serialization --


def test_canonical_storage_and_membership():
    g = Graph(4, [(2, 1), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 1)
    assert g.degree(3) == 1


def test_rejects_self_loops_and_bad_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 5)])
    with pytest.raises(ValueError, match="edge endpoint out of range"):
        Graph(3, [(0, 2**70)])
    with pytest.raises(ValueError, match="vertex pairs"):
        Graph(3, [(0, 1, 2)])
    for repeated in ([(0, 1), (1, 0)], [(1, 2), (1, 2)]):
        with pytest.raises(ValueError, match="duplicate edge"):
            Graph(3, repeated)


_BUILD_CASES = {
    "sorted canonical": ([0, 0, 1], [1, 3, 2]),
    "reversed orientation": ([1, 3, 2], [0, 0, 1]),
    "unsorted": ([1, 0, 3], [2, 1, 0]),
}


@pytest.mark.parametrize("case", list(_BUILD_CASES))
def test_build_keeps_sorted_read_only_keys_of_its_own(case):
    us, vs = (np.array(a, dtype=np.int64) for a in _BUILD_CASES[case])
    for g in (Graph.from_arrays(4, us, vs), Graph(4, zip(us.tolist(), vs.tolist()))):
        assert g.edges == ((0, 1), (0, 3), (1, 2))
        assert g._packed.tolist() == [1, 3, 6] and not g._packed.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g._packed[0] = 2
    g = Graph.from_arrays(4, us, vs)
    us[:], vs[:] = 2, 3   # the caller's arrays change after the build
    assert g.edges == ((0, 1), (0, 3), (1, 2)) and g.has_edges([0, 0, 1, 2], [1, 3, 2, 3]).tolist() == [True] * 3 + [False]


@pytest.mark.parametrize(
    "us, vs, message",
    [
        ([0, 0, 0, 1], [1, 1, 3, 2], "duplicate edge"),   # adjacent in otherwise sorted keys
        ([1, 0, 2, 3], [2, 1, 1, 0], "duplicate edge"),   # (1, 2) and (2, 1), apart in unsorted keys
        ([0, 2, 1], [1, 2, 3], "self-loops"),
    ],
)
def test_build_refuses_a_repeat_or_a_self_loop_on_either_path(us, vs, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_arrays(4, np.array(us), np.array(vs))


def test_text_round_trip():
    g = Graph(5, [(0, 1), (2, 4), (1, 3)])
    assert Graph.from_text(g.to_text()) == g
    header = g.to_text().splitlines()[0]
    assert header == "5 3"


def test_from_text_rejects_bad_count():
    with pytest.raises(ValueError):
        Graph.from_text("3 2\n0 1\n")


def test_vertex_counts_past_the_int64_keys_are_refused():
    top = math.isqrt(2**63)   # keys u*n + v reach n^2 - 1
    assert top**2 <= 2**63 < (top + 1) ** 2
    # the rows are never built here, so no n-sized array is allocated
    g = Graph.from_arrays(top, np.array([top - 2]), np.array([top - 1]))
    assert g.edges == ((top - 2, top - 1),)
    assert g.has_edges(np.array([top - 1, top - 1]), np.array([top - 2, top - 1])).tolist() == [True, False]
    for n in (top + 1, 10**10):
        with pytest.raises(ValueError, match=f"vertex count {n} exceeds {top}"):
            Graph(n)
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_text("10000000000 0\n")


def test_rows_are_built_on_first_use():
    smpl = sample_correlated(ModelParams(n=300, p=0.02, s=0.8), 3)
    h = intersection_graph(smpl.g, smpl.g_bar, smpl.pi_star)
    # intersection_graph compares the sorted pair keys only
    assert smpl.g._columns is None and smpl.g_bar._columns is None and h._columns is None
    assert h.degrees.sum() == 2 * h.edge_count and h._columns is not None
    assert smpl.g._columns is None


def _csr_corpus():
    """(n, edge list) cases; each edge appears in a random orientation."""
    rng = stream(31, 0)
    corpus = [(6, []), (2, [(1, 0)]), (8, [(i, j) for i in range(8) for j in range(i + 1, 8)])]
    for n in (0, 1, 2, 50, 300):
        for q in (0.0, 0.02, 0.1, 0.5):
            keep = [e for e in itertools.combinations(range(n), 2) if rng.random() < q]
            corpus.append((n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in keep]))
    return corpus


@pytest.mark.parametrize("n, edges", _csr_corpus(), ids=lambda c: f"m{len(c)}" if isinstance(c, list) else f"n{c}")
def test_csr_queries_match_set_reference(n, edges):
    g = Graph(n, edges)
    ref = {v: set() for v in range(n)}
    for u, v in edges:
        ref[u].add(v)
        ref[v].add(u)
    for v in range(n):
        assert g.neighbors(v) == sorted(ref[v])
    # neighbors hands out a fresh list of Python ints; changing it leaves the graph alone
    offsets, columns = g.csr()
    for v in range(n):
        mine = g.neighbors(v)
        assert all(type(w) is int for w in mine)
        mine.append(n)
        assert g.neighbors(v) == columns[offsets[v]:offsets[v + 1]].tolist() == sorted(ref[v])
    want = [[v in ref[u] for v in range(n)] for u in range(n)]
    assert [[g.has_edge(u, v) for v in range(n)] for u in range(n)] == want
    # the vector query on the 2-D grid of ordered pairs, u == v included, in both orders
    rows, cols = np.indices((n, n))
    assert g.has_edges(rows, cols).tolist() == g.has_edges(cols, rows).T.tolist() == want
    assert g.degrees.tolist() == [len(ref[v]) for v in range(n)]
    assert g.degrees.tolist() == np.bincount(np.asarray(edges, dtype=np.int64).ravel(), minlength=n).tolist()
    assert [g.degree(v) for v in range(n)] == g.degrees.tolist()
    # the compressed rows behind those views, built once and read-only
    offsets, columns = g.csr()
    assert g.csr()[1] is columns and not offsets.flags.writeable and not columns.flags.writeable
    assert [columns[offsets[v]:offsets[v + 1]].tolist() for v in range(n)] == [sorted(ref[v]) for v in range(n)]
    rng = stream(33, n)
    for _ in range(20):
        sub = set(rng.choice(n, int(rng.integers(0, n + 1)), replace=False).tolist()) if n else set()
        assert g.edges_within(sub) == sum(1 for u, v in edges if u in sub and v in sub)
    canonical = sorted((min(u, v), max(u, v)) for u, v in edges)
    assert list(g.edges) == canonical
    assert [tuple(e) for e in g.edge_array().tolist()] == canonical
    us, vs = (np.asarray(c, dtype=np.int64) for c in zip(*edges)) if edges else (np.empty(0, np.int64),) * 2
    assert Graph.from_arrays(n, us, vs) == g
    assert Graph.from_text(g.to_text()) == g
    # core numbers by the sequential min-degree peel
    deg, left, level, core = {v: len(ref[v]) for v in range(n)}, set(range(n)), 0, [0] * n
    while left:
        v = min(left, key=lambda u: (deg[u], u))
        level = max(level, deg[v])
        core[v] = level
        left.remove(v)
        for w in ref[v] & left:
            deg[w] -= 1
    assert g.core_numbers().tolist() == core
    # the peel runs once; its result is shared read-only
    assert g.core_numbers() is g.core_numbers() and not g.core_numbers().flags.writeable


def _core_closed_forms(c, k):
    """(fraction, density) of the k-core of G(n, c/n) as n grows (Pittel,
    Spencer & Wormald, JCTA 1996): with Q(x, j) = P(Poisson(x) >= j) and xi
    the largest root of xi = c Q(xi, k - 1), the core holds a Q(xi, k)
    share of the vertices and xi Q(xi, k - 1) / (2 Q(xi, k)) edges per
    vertex."""
    from scipy.optimize import brentq
    from scipy.special import gammainc

    def excess(x):
        return x - c * gammainc(k - 1, x)

    xs = np.linspace(c / 1000, c, 1000)   # excess(c) > 0, so the last sign change brackets xi
    i = np.flatnonzero(excess(xs) < 0)[-1]
    xi = brentq(excess, xs[i], xs[i + 1])
    return gammainc(k, xi), xi * gammainc(k - 1, xi) / (2 * gammainc(k, xi))


@pytest.mark.parametrize("c, k", [(3, 2), (4, 3), (5, 3), (6, 4)])
def test_core_numbers_match_the_k_core_closed_forms(c, k):
    n, seeds = 20_000, 8
    fraction, density = [], []
    for seed in range(seeds):
        g = sample_er(n, c / n, stream(90 + seed, k))
        inside = g.core_numbers() >= k
        us, vs = g.edge_array().T
        fraction.append(inside.mean())
        density.append(np.count_nonzero(inside[us] & inside[vs]) / inside.sum())
    # the tolerance is 5 standard errors, taken from the spread over seeds:
    # the mean's error over its standard error is about t with 7 degrees of
    # freedom, which exceeds 5 about 0.2 % of the time
    for measured, theory in zip((fraction, density), _core_closed_forms(c, k)):
        se = np.std(measured, ddof=1) / math.sqrt(seeds)
        assert abs(np.mean(measured) - theory) < 5 * se, (np.mean(measured), theory, se)


VERTEX, IMAGE = "vertex out of range", "image out of range"


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda g: g.has_edge(-1, 3), VERTEX),
        (lambda g: g.has_edge(3, 5), VERTEX),
        (lambda g: g.neighbors(-1), VERTEX),
        (lambda g: g.neighbors(5), VERTEX),
        (lambda g: g.degree(5), VERTEX),
        (lambda g: g.degree(-1), VERTEX),
        (lambda g: g.degree(2**70), VERTEX),
        (lambda g: g.edges_within([-1]), VERTEX),
        (lambda g: g.edges_within([0, 5]), VERTEX),
        (lambda g: g.has_edges(np.array([0, 1]), np.array([3, -1])), VERTEX),
        (lambda g: g.has_edges(np.array([[0], [5]]), np.array([[1], [2]])), VERTEX),
        (lambda g: Graph(5).has_edges(np.array([0]), np.array([5])), VERTEX),
        (lambda g: g.has_edges([2**70], [1]), VERTEX),
        (lambda g: Bijection([0, 5, 1, 2, 3]), IMAGE),
        (lambda g: Bijection([1, -1]), IMAGE),
        (lambda g: Bijection([2, 0, 1]).map_edge(-1, 0), VERTEX),
        (lambda g: Bijection([2, 0, 1]).map_edge(0, 3), VERTEX),
    ],
    ids=[
        "has_edge_neg", "has_edge_n", "neighbors", "neighbors_n", "degree", "degree_neg",
        "degree_past_int64", "edges_within_neg", "edges_within_n", "has_edges_neg", "has_edges_n",
        "has_edges_edgeless", "has_edges_past_int64", "bijection_n", "bijection_neg",
        "map_edge_neg", "map_edge_n",
    ],
)
def test_vertex_out_of_range_raises(query, message):
    g = Graph(5, [(3, 4), (0, 1)])
    with pytest.raises(ValueError, match=message):
        query(g)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(4, [(0.5, 1.2)]),
        lambda: Graph.from_arrays(3, [0.5], [1.9]),
        lambda: Graph(4, [(0, 1)]).has_edges([1.7], [0.2]),
        lambda: Graph(4, [(0, 1)]).degree(1.5),
        lambda: Graph(4, [(0, 1)]).neighbors(0.5),
        lambda: Graph(4, [(0, 1)]).neighbors(True),
        lambda: Graph(4, [(0, 1)]).edges_within([0.5, 1.2]),
        lambda: Graph(4, [(0, 1)]).edges_within([True, False]),
        lambda: Bijection([1.9, 0.2]),
        lambda: Bijection([1, 0]).map_edge(0.5, 1),
    ],
    ids=[
        "init", "from_arrays", "has_edges", "degree", "neighbors", "neighbors_bool",
        "edges_within", "edges_within_bools", "bijection", "map_edge",
    ],
)
def test_float_endpoints_are_refused_not_truncated(build):
    # each would read the vertices 0 and 1 of the edge (0, 1) if the floats
    # (or bools) were truncated to integers
    with pytest.raises(ValueError, match="must be integers"):
        build()


def test_integer_endpoint_arrays_of_any_width_are_accepted():
    us, vs = np.array([0, 2], dtype=np.int32), np.array([1, 3], dtype=np.uint8)
    g = Graph.from_arrays(4, us, vs)
    assert g.edges == ((0, 1), (2, 3))
    assert g.has_edges(vs.astype(np.uint64), us).tolist() == [True, True]
    assert Graph(4, [(np.int16(3), 2)]).edges == ((2, 3),)
    assert Graph(4, []).edge_count == Graph.from_arrays(4, [], []).edge_count == 0
    assert g.has_edges([], []).shape == (0,)
    assert Graph.from_arrays(np.int32(4), us, vs) == Graph(np.uint8(4), [(1, 0), (3, 2)]) == g
    assert g.has_edge(np.int64(1), np.uint8(0)) and not g.has_edge(np.asarray(1), np.asarray(2))
    block = g.has_edges(np.array([[0, 2, 0], [1, 3, 3]]), np.array([[1, 3, 2], [0, 2, 1]]))
    assert block.tolist() == [[True, True, False], [True, True, False]]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph.from_arrays(3, [0], [1, 2]),
        lambda: Graph.from_arrays(3, [0, 1], [2]),
        lambda: Graph.from_arrays(4, [[0], [1]], [[2], [3]]),
        lambda: Graph.from_arrays(4, 0, 1),
        lambda: Graph(4, [(0, 1)]).has_edges([0, 1], [1]),
        lambda: Graph(4, [(0, 1)]).has_edges([0, 1], [1, 2, 3]),
        lambda: Graph(4, [(0, 1)]).degree([0, 1]),
        lambda: Graph(4, [(0, 1)]).edges_within([[0, 1]]),
        lambda: ModelParams(n=2.5, p=0.5, s=0.5),
        lambda: Bijection([[0, 1], [1, 0]]),
        lambda: Bijection([1, 0]).map_edge([0, 1], 1),
    ]
    + [
        build
        for n in (-1, 2.5, True)
        for build in (partial(Graph, n), partial(Graph.from_arrays, n, [], []), partial(sample_er, n, 0.5, stream(0, 0)))
    ],
    ids=[
        "from_arrays_broadcast", "from_arrays_broadcast_vs", "from_arrays_2d", "from_arrays_scalar",
        "has_edges_broadcast", "has_edges_mismatch", "degree_array", "edges_within_2d",
        "params_float_n", "bijection_2d", "map_edge_array",
    ]
    + [f"{b}_n{n}" for n in ("neg", "float", "bool") for b in ("init", "from_arrays", "sample_er")],
)
def test_malformed_shapes_and_counts_raise(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("seed", range(4))
def test_pair_and_array_builders_agree(seed):
    rng = stream(seed, 0)
    n = int(rng.integers(2, 40))
    g = sample_er(n, 0.3, rng)
    us, vs = g.edge_array().T
    flip, order = rng.random(us.size) < 0.5, rng.permutation(us.size)
    us, vs = np.where(flip, vs, us)[order], np.where(flip, us, vs)[order]
    assert Graph(n, zip(us.tolist(), vs.tolist())) == Graph.from_arrays(n, us, vs) == g


# -- bijections --


def test_bijection_inverse_composition():
    pi = Bijection([2, 0, 1])
    assert compose(Bijection(pi.inverse), pi) == Bijection.identity(3)
    assert repr(pi) == "Bijection([2, 0, 1])" and pi.map_edge(np.int64(2), 0) == (1, 2)
    with pytest.raises(ValueError):
        Bijection([0, 0, 1])


def test_bijection_refuses_float_images_and_keeps_integer_inputs():
    for images in ([0.5, 1.2], [1.9, 0.2], np.array([1.0, 0.0])):
        with pytest.raises(ValueError, match="integers"):
            Bijection(images)
    for dtype in (np.int8, np.int32, np.uint8, np.uint64):
        assert Bijection(np.array([2, 0, 1], dtype=dtype)) == Bijection([2, 0, 1])
    mine = np.array([1, 0], dtype=np.int64)
    pi = Bijection(mine)
    assert mine.flags.writeable and not pi.forward.flags.writeable
    mine[0] = 0
    assert pi.forward.tolist() == [1, 0]
    with pytest.raises(ValueError, match="image out of range"):
        Bijection([2**70, 0])


def test_overlap_examples():
    pi = Bijection([3, 1, 4, 0, 2])
    assert overlap(pi, pi) == 5
    ident = Bijection.identity(5)
    shift = Bijection([1, 2, 3, 4, 0])
    assert overlap(ident, shift) == 0
    swap01 = Bijection([1, 0, 2, 3, 4])
    assert overlap(ident, swap01) == 3


def test_overlap_symmetric_through_inverses():
    rng = stream(11, 0)
    for _ in range(20):
        p1 = Bijection.uniform(8, rng)
        p2 = Bijection.uniform(8, rng)
        direct = overlap(p1, p2)
        assert direct == overlap(p2, p1)
        assert direct == overlap(Bijection(p1.inverse), Bijection(p2.inverse))


# -- relabel / intersection --


def test_relabel_examples():
    tri = Graph(5, [(0, 1), (1, 2), (0, 2)])
    ident = Bijection.identity(5)
    assert relabel(tri, ident) == tri
    pi = Bijection([3, 4, 0, 1, 2])
    assert relabel(tri, pi) == Graph(5, [(3, 4), (0, 4), (0, 3)])
    assert relabel(relabel(tri, pi), Bijection(pi.inverse)) == tri


def test_intersection_identity_and_empty():
    g = path_graph(6)
    assert intersection_graph(g, g, Bijection.identity(6)) == g
    empty = Graph(6)
    pi = Bijection([5, 4, 3, 2, 1, 0])
    assert intersection_graph(empty, g, pi) == empty


def test_intersection_hand_checked_path():
    # paths 0-1-2-3 on both sides, pi swaps 0 and 3: only (1,2) survives
    g = path_graph(4)
    pi = Bijection([3, 1, 2, 0])
    assert intersection_graph(g, g, pi) == Graph(4, [(1, 2)])


@settings(max_examples=50)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_intersection_with_relabel_recovers_graph(n, seed):
    rng = stream(seed, 0)
    g = sample_er(n, 0.5, rng)
    pi = Bijection.uniform(n, rng)
    assert intersection_graph(g, relabel(g, pi), pi) == g


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_intersection_edge_count_bounded(n, seed):
    rng = stream(seed, 1)
    g = sample_er(n, 0.4, rng)
    h = sample_er(n, 0.4, rng)
    pi = Bijection.uniform(n, rng)
    inter = intersection_graph(g, h, pi)
    assert inter.edge_count <= min(g.edge_count, h.edge_count)


def _intersection_by_has_edges(g, g_bar, pi):
    """The earlier intersection_graph, kept as the oracle: g_bar.has_edges
    on the pi-images of g's edges."""
    us, vs = g.edge_array().T
    keep = g_bar.has_edges(pi.forward[us], pi.forward[vs])
    return Graph.from_arrays(g.n, us[keep], vs[keep])


@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 2000])
def test_intersection_graph_matches_the_has_edges_oracle(n):
    rng = stream(n, 41)
    q = min(0.9, 8 / max(n, 1))
    pis = [Bijection.identity(n), Bijection(np.arange(n)[::-1]), Bijection.uniform(n, rng)]
    g, h = sample_er(n, q, rng), sample_er(n, q, rng)
    pairs = [(g, h), (g, Graph(n)), (Graph(n), h), (Graph(n), Graph(n)), (g, relabel(g, pis[2]))]
    if n >= 2:
        for s in (0.6, 1.0):
            smpl = sample_correlated(ModelParams(n=n, p=q, s=s), seed=n, replicate=int(10 * s))
            pairs.append((smpl.g, smpl.g_bar))
            pis.append(smpl.pi_star)
    for g, h in pairs:
        for pi in pis:
            got, want = intersection_graph(g, h, pi), _intersection_by_has_edges(g, h, pi)
            assert got.n == want.n == n
            assert got._packed.tobytes() == want._packed.tobytes()
    if n >= 2:   # at s = 1, g_bar is g relabelled through pi*, so the intersection is g
        assert intersection_graph(smpl.g, smpl.g_bar, smpl.pi_star) == smpl.g


# -- the generative laws --


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=1, p=0.5, s=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=5, p=0.0, s=0.5)
    with pytest.raises(ValueError):
        ModelParams(n=5, p=0.5, s=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=5, p=0.5, s=1.5)
    params = ModelParams(n=100, p=0.1, s=0.5)
    assert params.lam == pytest.approx(100 * 0.1 * 0.25)
    assert alpha_hat(params) == pytest.approx(-np.log(0.1) / np.log(100))


def test_s_equal_one_copies_parent_through_pi_star():
    params = ModelParams(n=12, p=0.5, s=1.0)
    for rep in range(5):
        sample = sample_correlated(params, seed=3, replicate=rep)
        assert sample.g_bar == relabel(sample.g, sample.pi_star)


def test_sampling_is_deterministic_per_stream():
    params = ModelParams(n=30, p=0.3, s=0.7)
    a = sample_correlated(params, seed=9, replicate=4)
    b = sample_correlated(params, seed=9, replicate=4)
    assert a.g == b.g and a.g_bar == b.g_bar and a.pi_star == b.pi_star
    c = sample_correlated(params, seed=9, replicate=5)
    assert c.g != a.g or c.pi_star != a.pi_star


def test_correlated_pair_moments_match_bernoulli_expectation():
    # E[G_e * Gbar_{Pi*(e)}] = p s^2 and Cov = p s^2 - p^2 s^2.
    params = ModelParams(n=50, p=0.4, s=0.5)
    reps = 400
    pairs = params.n * (params.n - 1) // 2
    prod_sum = 0
    g_sum = 0
    gbar_sum = 0
    for rep in range(reps):
        smpl = sample_correlated(params, seed=77, replicate=rep)
        prod_sum += intersection_graph(smpl.g, smpl.g_bar, smpl.pi_star).edge_count
        g_sum += smpl.g.edge_count
        gbar_sum += smpl.g_bar.edge_count
    total = reps * pairs
    prod_mean = prod_sum / total
    cov = prod_mean - (g_sum / total) * (gbar_sum / total)
    ps2 = params.p * params.s**2
    se_prod = np.sqrt(ps2 * (1 - ps2) / total)
    assert abs(prod_mean - ps2) < 4 * se_prod
    assert abs(cov - (ps2 - (params.p * params.s) ** 2)) < 5 * se_prod


def test_independent_pair_edge_density_and_cross_covariance():
    params = ModelParams(n=100, p=0.2, s=0.5)
    reps = 200
    pairs = params.n * (params.n - 1) // 2
    m1 = m2 = cross = 0
    for rep in range(reps):
        g, h = sample_independent(params, seed=5, replicate=rep)
        m1 += g.edge_count
        m2 += h.edge_count
        cross += intersection_graph(g, h, Bijection.identity(params.n)).edge_count
    total = reps * pairs
    q = params.p * params.s
    se = np.sqrt(q * (1 - q) / total)
    assert abs(m1 / total - q) < 4 * se
    assert abs(m2 / total - q) < 4 * se
    cov = cross / total - (m1 / total) * (m2 / total)
    se_cross = np.sqrt(q * q * (1 - q * q) / total)
    assert abs(cov) < 4 * se_cross


def test_marginals_pass_chi_square_at_1e_minus_3():
    # Pooled edge counts over replicates are Binomial(R * C(n,2), ps).
    from scipy.stats import chi2

    params = ModelParams(n=10, p=0.35, s=0.6)
    reps = 10_000
    pairs = params.n * (params.n - 1) // 2
    q = params.p * params.s
    counts = {"g": 0, "g_bar": 0}
    for r in range(reps):
        smpl = sample_correlated(params, seed=13, replicate=r)
        counts["g"] += smpl.g.edge_count
        counts["g_bar"] += smpl.g_bar.edge_count
    total = reps * pairs
    expected = total * q
    for observed in counts.values():
        stat = (observed - expected) ** 2 / expected + (observed - expected) ** 2 / (total - expected)
        assert stat < chi2.ppf(1 - 1e-3, df=1)


def test_er_sampler_mean():
    rng = stream(21, 0)
    counts = [sample_er(25, 0.3, rng).edge_count for _ in range(300)]
    pairs = 25 * 24 // 2
    mean = np.mean(counts) / pairs
    se = np.sqrt(0.3 * 0.7 / (300 * pairs))
    assert abs(mean - 0.3) < 4 * se


def test_intersection_at_the_truth_has_the_cycle_counts_of_gnp():
    """Under pi*, H = intersection_graph(G, Gbar, pi*) is exactly G(n, ps^2).
    Over 20 draws at n = 10^4, p = 8/10^4 and s = 1/2 (ps^2 = 2/10^4), the
    mean simple-cycle count of H at every length 3..12 lies within 4
    replicate standard errors of (n)_k (ps^2)^k / (2k).  It checks
    sample_correlated and intersection_graph against the model.  It cannot
    see a fault that moves a few edges per draw (the standard error of the
    mean is about 0.4 three-cycles and 7 twelve-cycles), nor one that
    keeps the law of H but breaks the marginals of G and Gbar; the
    chi-square and parent-body tests above cover those."""
    params = ModelParams(n=10**4, p=8 / 10**4, s=0.5)
    counts = {k: [] for k in range(3, 13)}
    for r in range(20):
        pair = sample_correlated(params, 4545, r)
        found, completed, _ = simple_cycle_counts(intersection_graph(pair.g, pair.g_bar, pair.pi_star), 12)
        assert completed
        for k in counts:
            counts[k].append(found.get(k, 0))
    ps2 = Fraction(8, 10**4) * Fraction(1, 4)
    assert_means_match(counts, {k: expected_cycles(params.n, ps2, k) for k in counts}, bound=4)


def _sample_distinct_by_unique(rng, universe, m):
    """The earlier sampler, kept as the oracle: np.unique for the first
    appearances, then an argsort of them; unsorted output."""
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if 2 * m > universe:
        return rng.permutation(universe)[:m].astype(np.int64)
    draws = np.empty(0, dtype=np.int64)
    while True:
        batch = rng.integers(0, universe, size=max(16, int(1.2 * (m + 8))), dtype=np.int64)
        draws = np.concatenate([draws, batch])
        uniq, first = np.unique(draws, return_index=True)
        if uniq.size >= m:
            return uniq[np.argsort(first)][:m]


@pytest.mark.parametrize(
    "universe, m",
    [
        (1, 1), (10, 6), (100, 51),                     # 2m > universe: a permutation prefix
        (10, 0), (10, 3), (100, 50), (1000, 499),       # one batch; (1000, 499) takes two
        (1_999_000, 44_700), (2**40, 1000),             # n = 2000 at p = n^-1/2; a sparse huge universe
        (2**62, 100), (2**63 - 1, 17),                  # value * size + position overflows int64
    ],
)
def test_sample_distinct_matches_the_unique_oracle(universe, m):
    for seed in range(3):
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = graphs._sample_distinct(new, universe, m)
        want = np.sort(_sample_distinct_by_unique(old, universe, m))
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        assert new.bit_generator.state == old.bit_generator.state   # same draws consumed


def test_first_appearances_at_the_packed_key_limit():
    top = (np.iinfo(np.int64).max - 5) // 5   # the largest value the packed key holds at 5 draws
    for big in (top, top + 1, np.iinfo(np.int64).max):
        draws = np.array([big, 3, big, 0, 3], dtype=np.int64)
        values, first = graphs._first_appearances(draws)
        assert values.tolist() == [0, 3, big] and first.tolist() == [3, 1, 0]


@pytest.mark.parametrize("n", [2, 3, 50])
def test_decode_pairs_matches_the_per_index_formula(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]   # lexicographic: index i is pairs[i]
    total = len(pairs)
    rng = np.random.default_rng(n)
    index_sets = [[], [0], [total - 1], [0, total - 1], list(range(total))]
    index_sets += [sorted(rng.choice(total, size=k, replace=False).tolist()) for k in (1, total // 3, total - 1)]
    # the last pair of each even row, so the odd rows hold no index
    index_sets.append([i for i, (u, v) in enumerate(pairs) if v == n - 1 and u % 2 == 0])
    for idx in index_sets:
        us, vs = graphs._decode_pairs(n, np.array(idx, dtype=np.int64))
        assert us.dtype == vs.dtype == np.int64
        assert list(zip(us.tolist(), vs.tolist())) == [pairs[i] for i in idx]


def _state(rng):
    """A generator's full state (counter, key and buffer), comparable with ==."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def _first_appearances_by_divmod(draws):
    """The earlier _first_appearances, kept as the oracle: one sort of
    value * size + position when that fits in an int64, else a stable
    argsort."""
    size = draws.size
    if int(draws.max()) <= (np.iinfo(np.int64).max - size) // size:
        values, pos = np.divmod(np.sort(draws * size + np.arange(size)), size)
    else:
        pos = np.argsort(draws, kind="stable")
        values = draws[pos]
    head = np.ones(size, dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return values[head], pos[head]


@pytest.mark.parametrize("size", [2, 5, 64, 65, 129, 53_640])
def test_first_appearances_match_the_divmod_oracle_on_both_sides_of_the_packed_limit(size):
    limit = 2 ** (63 - (size - 1).bit_length())   # the packed keys hold values below this
    rng = np.random.default_rng(size)
    for low, high in ((0, 3 * size), (0, limit), (limit - size, limit), (limit - 1, limit + 1), (limit, 2**63)):
        draws = rng.integers(low, high, size=size, dtype=np.int64)
        draws[rng.integers(0, size, size=size // 3)] = draws[0]   # repeats, the first one at position 0
        got, want = graphs._first_appearances(draws), _first_appearances_by_divmod(draws)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int64 and a.tobytes() == b.tobytes()
    # _sample_distinct at m = 100 draws a batch of 129, whose packed keys
    # hold values below 2**55: one universe inside that limit, one mostly past it
    for universe in (2**55, 2**58):
        new, old = np.random.default_rng(size), np.random.default_rng(size)
        got = graphs._sample_distinct(new, universe, 100)
        assert got.tobytes() == np.sort(_sample_distinct_by_unique(old, universe, 100)).tobytes()
        assert new.bit_generator.state == old.bit_generator.state


def _sample_correlated_by_masks(params, rng):
    """The earlier sample_correlated, kept as the oracle, with the earlier
    sampler of distinct indices: boolean-mask gathers of the kept parent
    pairs.  Returns pi*'s images and the two sides' sorted pair keys."""
    n = params.n
    pi_star = Bijection.uniform(n, rng)
    total = n * (n - 1) // 2
    parent_m = int(rng.binomial(total, params.p))
    parent_idx = np.sort(_sample_distinct_by_unique(rng, total, parent_m))
    keep_g = rng.random(parent_m) < params.s
    keep_gbar = rng.random(parent_m) < params.s
    us, vs = graphs._decode_pairs(n, parent_idx)
    bus, bvs = pi_star.forward[us[keep_gbar]], pi_star.forward[vs[keep_gbar]]

    def keys(a, b):
        return np.sort(np.minimum(a, b) * n + np.maximum(a, b))

    return pi_star.forward, keys(us[keep_g], vs[keep_g]), keys(bus, bvs)


_SAMPLER_GRID = [
    (n, p, s, seed)
    for n in (2, 3, 30, 300)
    for p in (0.1, 0.5, 0.7)   # 0.7: more than half the pairs, the permutation prefix
    for s in (0.3, 1.0)
    for seed in (0, 1)
] + [(2000, 2000**-0.5, s, 1002) for s in (0.72, 0.85, 1.0)]   # the threshold sweep's shape


@pytest.mark.parametrize("n, p, s, seed", _SAMPLER_GRID)
def test_sample_correlated_matches_the_mask_oracle(monkeypatch, n, p, s, seed):
    made = []

    def recorded(*args):
        made.append(stream(*args))
        return made[-1]

    monkeypatch.setattr(graphs, "stream", recorded)
    params = ModelParams(n=n, p=p, s=s)
    smpl = sample_correlated(params, seed, replicate=3)
    oracle_rng = stream(seed, 3)
    pi_forward, g_keys, g_bar_keys = _sample_correlated_by_masks(params, oracle_rng)
    assert smpl.pi_star.forward.tobytes() == pi_forward.tobytes()
    assert smpl.g._packed.tobytes() == g_keys.tobytes()
    assert smpl.g_bar._packed.tobytes() == g_bar_keys.tobytes()
    assert _state(made[0]) == _state(oracle_rng)


def test_sample_er_refuses_a_q_that_is_not_a_real_number():
    for q in (True, False, np.bool_(True), "0.5", None, [0.5]):
        with pytest.raises(ValueError, match="edge probability must be a number"):
            sample_er(5, q, stream(1, 0))
    for q in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="edge probability must lie in"):
            sample_er(5, q, stream(1, 0))
    for as_int, as_float in ((0, 0.0), (1, 1.0)):
        a, b = stream(2, 0), stream(2, 0)
        assert sample_er(6, as_int, a) == sample_er(6, as_float, b)
        assert _state(a) == _state(b)
    assert sample_er(6, 1, stream(2, 0)).edge_count == 15 and sample_er(6, 0, stream(2, 0)).edge_count == 0
