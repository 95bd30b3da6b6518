import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrmatch import graphs
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


@pytest.mark.parametrize(
    "query",
    [
        lambda g: g.has_edge(-1, 3),
        lambda g: g.has_edge(3, 5),
        lambda g: g.neighbors(-1),
        lambda g: g.degree(5),
        lambda g: g.edges_within([-1]),
        lambda g: g.edges_within([0, 5]),
        lambda g: g.has_edges(np.array([0, 1]), np.array([3, -1])),
        lambda g: g.has_edges(np.array([[0], [5]]), np.array([[1], [2]])),
        lambda g: Graph(5).has_edges(np.array([0]), np.array([5])),
        lambda g: g.has_edges([2**70], [1]),
    ],
    ids=[
        "has_edge_neg", "has_edge_n", "neighbors", "degree", "edges_within_neg", "edges_within_n",
        "has_edges_neg", "has_edges_n", "has_edges_edgeless", "has_edges_past_int64",
    ],
)
def test_vertex_out_of_range_raises(query):
    g = Graph(5, [(3, 4), (0, 1)])
    with pytest.raises(ValueError, match="vertex out of range"):
        query(g)


# -- bijections --


def test_bijection_inverse_composition():
    pi = Bijection([2, 0, 1])
    assert pi.invert().compose(pi) == Bijection.identity(3)
    with pytest.raises(ValueError):
        Bijection([0, 0, 1])


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
        assert direct == overlap(p1.invert(), p2.invert())


# -- relabel / intersection --


def test_relabel_examples():
    tri = Graph(5, [(0, 1), (1, 2), (0, 2)])
    ident = Bijection.identity(5)
    assert relabel(tri, ident) == tri
    pi = Bijection([3, 4, 0, 1, 2])
    assert relabel(tri, pi) == Graph(5, [(3, 4), (0, 4), (0, 3)])
    assert relabel(relabel(tri, pi), pi.invert()) == tri


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
    assert params.alpha_hat == pytest.approx(-np.log(0.1) / np.log(100))


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
