import heapq
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from corrmatch.admissibility import check_admissible, default_constants, find_good_set, is_good_set
from corrmatch.density import densest_subgraph_exact, level_below
from corrmatch.graphs import (
    Bijection,
    CorrelatedSample,
    Graph,
    ModelParams,
    intersection_graph,
    overlap,
    pair_pmf,
    relabel,
    sample_correlated,
    sample_er,
    vertex_set,
)
from corrmatch.inference import (
    COSTLY_ENUMERATION_N_MAX,
    ENUMERATION_N_MAX,
    EstimatorConfig,
    LikelihoodConstants,
    edge_ll,
    exact_posterior,
    joint_log_prob_given_pi,
    log_likelihood_ratio,
    map_estimator,
    null_log_prob,
    posterior_overlap_mass,
    posterior_w,
    reasonable_candidate_check,
    _hill_climb,
    _intersection_counts,
    _matchings,
    _peel_best_subset,
    _swap_delta,
    reasonable_candidate_search,
    truncated_mass_f,
    truncated_mass_g,
    tv_exact,
    tv_mc,
)
from corrmatch.harness import posterior_dump_csv
from corrmatch.moments import markov_tail_bound
from corrmatch.orbits import edge_orbits, phi_of, restricted_orbits
from corrmatch.rng import stream

from oracles import compose, entries


def pair_pmf_oracle(x, y, p, s):
    """q(x, y) by enumerating the 8 outcomes of (I, J, Jbar)."""
    total = 0.0
    for i, j, jb in product((0, 1), repeat=3):
        w = (p if i else 1 - p) * (s if j else 1 - s) * (s if jb else 1 - s)
        if (i * j, i * jb) == (x, y):
            total += w
    return total


def random_instance(n, q, seed):
    rng = stream(seed, 0)
    from corrmatch.graphs import sample_er

    return sample_er(n, q, rng), sample_er(n, q, rng), Bijection.uniform(n, rng)


# -- edge likelihood ratio --


def test_edge_ll_three_cases():
    p, s = 0.37, 0.61
    assert edge_ll(1, 1, p, s) == pytest.approx(1 / p)
    assert edge_ll(1, 0, p, s) == edge_ll(0, 1, p, s)
    assert edge_ll(0, 0, 0.5, 0.5) == pytest.approx(10 / 9)


def test_pair_law_matches_enumeration():
    for p, s in ((0.3, 0.7), (0.05, 0.5), (0.9, 1.0)):
        pmf = pair_pmf(p, s)
        assert pmf.shape == (2, 2) and pmf.sum() == pytest.approx(1.0, rel=1e-15)
        for x, y in product((0, 1), repeat=2):
            assert pmf[x, y] == pytest.approx(pair_pmf_oracle(x, y, p, s), rel=1e-12)


def test_edge_ll_is_pair_pmf_over_marginals():
    p, s = 0.3, 0.7
    q = p * s
    for x, y in product((0, 1), repeat=2):
        marg = (q if x else 1 - q) * (q if y else 1 - q)
        assert edge_ll(x, y, p, s) == pytest.approx(pair_pmf_oracle(x, y, p, s) / marg, rel=1e-12)


def test_likelihood_constants_product_identities():
    p, s = 0.25, 0.8
    c = LikelihoodConstants.from_params(p, s)
    # P Q^2 R = 1/p, Q R = ell(1,0), R = ell(0,0)
    assert c.big_p * c.big_q**2 * c.big_r == pytest.approx(1 / p, rel=1e-12)
    assert c.big_q * c.big_r == pytest.approx(edge_ll(1, 0, p, s), rel=1e-12)
    assert c.big_r == pytest.approx(edge_ll(0, 0, p, s), rel=1e-12)


def test_log_likelihood_ratio_trivial_cases():
    p, s = 0.4, 0.6
    c = LikelihoodConstants.from_params(p, s)
    n = 4
    empty = Graph(n)
    pi = Bijection.identity(n)
    assert log_likelihood_ratio(pi, empty, empty, c) == pytest.approx(6 * c.log_r)
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    c3 = LikelihoodConstants.from_params(p, s)
    for perm in permutations(range(3)):
        got = log_likelihood_ratio(Bijection(perm), tri, tri, c3)
        assert got == pytest.approx(3 * math.log(1 / p), rel=1e-9)


def test_log_likelihood_ratio_dual_route_random():
    # the dual-route assertion runs inside; 200 random triples must not trip it
    for seed in range(200):
        n = 3 + seed % 4
        g, g_bar, pi = random_instance(n, 0.5, seed + 1000)
        c = LikelihoodConstants.from_params(0.35, 0.65)
        log_likelihood_ratio(pi, g, g_bar, c)


def test_joint_plus_null_equals_ratio():
    params = ModelParams(n=5, p=0.4, s=0.7)
    c = LikelihoodConstants.from_params(params.p, params.s)
    for seed in range(20):
        g, g_bar, pi = random_instance(5, 0.3, seed)
        lhs = joint_log_prob_given_pi(g, g_bar, pi, params)
        rhs = null_log_prob(g, g_bar, params) + log_likelihood_ratio(pi, g, g_bar, c)
        assert lhs == pytest.approx(rhs, rel=1e-10)


# -- exact posterior --


def test_matchings_are_the_itertools_permutations_in_order():
    for n in range(9):
        want = np.array(list(permutations(range(n))), dtype=np.int8)
        got = _matchings(n, ENUMERATION_N_MAX)
        assert got.dtype == np.int8 and got.shape == want.shape and (got == want).all(), n
    with pytest.raises(ValueError):
        _matchings(ENUMERATION_N_MAX + 1, ENUMERATION_N_MAX)


def test_exact_posterior_at_n9_within_memory_and_time():
    # measured 28.7 MiB traced peak and 0.3 s on a 2-vCPU machine: the 9!
    # rows are int8, and the intersection counts run 8! rows at a time
    params = ModelParams(n=9, p=0.5, s=0.8)
    smpl = sample_correlated(params, 3, 0)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        table = exact_posterior(smpl.g, smpl.g_bar, params)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.perms.shape == (math.factorial(9), 9)
    assert table.probability_of(smpl.pi_star) > 0.0
    assert peak < 60 * 2**20, peak
    assert elapsed < 5.0, elapsed


def test_posterior_uniform_for_empty_and_symmetric():
    params = ModelParams(n=4, p=0.5, s=0.5)
    table = exact_posterior(Graph(4), Graph(4), params)
    assert np.allclose(table.probs, 1 / 24)
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    table3 = exact_posterior(tri, tri, ModelParams(n=3, p=0.5, s=0.5))
    assert np.allclose(table3.probs, 1 / 6)


def test_posterior_single_edge_concentrates_on_edge_preservers():
    params = ModelParams(n=4, p=0.5, s=0.5)
    e = Graph(4, [(0, 1)])
    table = exact_posterior(e, e, params)
    best = set()
    for (pi, prob) in entries(table):
        if {int(pi.forward[0]), int(pi.forward[1])} == {0, 1}:
            best.add(prob)
        else:
            assert prob < max(best, default=1)
    # the 4 matchings mapping {0,1} onto {0,1} share the top probability
    assert len(best) == 1
    top = best.pop()
    others = [p for (pi, p) in entries(table) if {int(pi.forward[0]), int(pi.forward[1])} != {0, 1}]
    assert len(others) == 20 and all(p < top for p in others)


def test_posterior_matches_direct_enumeration_of_weights():
    params = ModelParams(n=4, p=0.35, s=0.75)
    g, g_bar, _ = random_instance(4, 0.5, 77)
    table = exact_posterior(g, g_bar, params)
    # oracle: weights from the generative joint law, pair pmf per edge
    weights = []
    for perm in permutations(range(4)):
        weights.append(math.exp(joint_log_prob_given_pi(g, g_bar, Bijection(perm), params)))
    weights = np.array(weights)
    assert np.allclose(table.probs, weights / weights.sum(), rtol=1e-9)


def test_posterior_mixture_identity_small_n():
    # sum_pi Q[pi, G, Gbar] equals Q[G, Gbar] computed through the P/Q/R route
    params = ModelParams(n=4, p=0.4, s=0.8)
    c = LikelihoodConstants.from_params(params.p, params.s)
    for seed in range(10):
        g, g_bar, _ = random_instance(4, 0.4, seed + 50)
        direct = sum(
            math.exp(joint_log_prob_given_pi(g, g_bar, Bijection(perm), params))
            for perm in permutations(range(4))
        ) / 24
        via_ratio = sum(
            math.exp(null_log_prob(g, g_bar, params) + log_likelihood_ratio(Bijection(perm), g, g_bar, c))
            for perm in permutations(range(4))
        ) / 24
        assert direct == pytest.approx(via_ratio, rel=1e-9)


def test_overlap_mass_trivial_deltas():
    params = ModelParams(n=4, p=0.4, s=0.6)
    g, g_bar, pi = random_instance(4, 0.5, 3)
    table = exact_posterior(g, g_bar, params)
    assert posterior_overlap_mass(table, pi, 0.0) == pytest.approx(1.0)
    atom = table.probability_of(pi)
    assert posterior_overlap_mass(table, pi, 1.0) == pytest.approx(atom)


def test_overlap_mass_uniform_posterior_fixed_point_count():
    params = ModelParams(n=4, p=0.5, s=0.5)
    table = exact_posterior(Graph(4), Graph(4), params)  # uniform
    # threshold 2: permutations of S4 with at least 2 fixed points
    want = sum(
        1
        for perm in permutations(range(4))
        if sum(perm[i] == i for i in range(4)) >= 2
    )
    got = posterior_overlap_mass(table, Bijection.identity(4), 0.5)
    assert got == pytest.approx(want / 24)
    assert want == 7  # 6 with exactly two fixed points + the identity


def test_bayes_consistency_factor_five_at_n6():
    # mean posterior mass at the truth over correlated draws beats the
    # uniform baseline 1/6! by a factor of at least 5
    params = ModelParams(n=6, p=0.4, s=0.8)
    masses = []
    for rep in range(200):
        smpl = sample_correlated(params, seed=606, replicate=rep)
        table = exact_posterior(smpl.g, smpl.g_bar, params)
        masses.append(table.probability_of(smpl.pi_star))
    assert np.mean(masses) >= 5 / math.factorial(6)


def test_posterior_w_dominates_atoms_and_is_a_probability():
    params = ModelParams(n=4, p=0.4, s=0.8)
    g, g_bar, _ = random_instance(4, 0.5, 9)
    table = exact_posterior(g, g_bar, params)
    w = posterior_w(table, delta=1.0)
    assert w == pytest.approx(float(table.probs.max()))
    w_half = posterior_w(table, delta=0.5)
    assert float(table.probs.max()) <= w_half <= 1.0


def test_costly_enumerations_refuse_n8():
    # n = 8 is inside the exact posterior's cap but not the costly routines'
    n = COSTLY_ENUMERATION_N_MAX + 1
    params = ModelParams(n=n, p=0.4, s=0.8)
    g, g_bar, _ = random_instance(n, 0.5, 9)
    table = exact_posterior(g, g_bar, params)
    with pytest.raises(ValueError, match="posterior_w"):
        posterior_w(table, delta=0.5)
    with pytest.raises(ValueError):
        tv_mc(params, replicates=2, seed=0)
    consts = make_lenient_consts(n)
    with pytest.raises(ValueError):
        truncated_mass_f(g, g_bar, set(), {}, params, consts)
    with pytest.raises(ValueError):
        truncated_mass_g(g, g_bar, set(), params, consts)


# -- estimators --


@pytest.mark.parametrize(
    "key, bad",
    [
        ("rho_hat", [True, np.bool_(False), "1.5", None, math.nan, math.inf, 10**400]),
        ("c_lambda_hat", [True, np.bool_(True), "0.5", [0.5], math.nan, 0, 1.5]),
        ("eta", [True, "0.15", None, math.nan, math.inf, 10**400, 0]),
        ("budget", [2.5, np.float64(3.0), True, np.bool_(True), "3", None, 0]),
    ],
)
def test_estimator_config_has_one_type_rule(key, bad):
    # levels are real numbers and the budget an integer, none a bool
    for value in bad:
        with pytest.raises(ValueError, match=key):
            EstimatorConfig(**{"rho_hat": 1.5, key: value})
    good = {"rho_hat": [1, np.float64(1.5), -2.0], "c_lambda_hat": [1, np.float32(0.5)],
            "eta": [2, np.float64(0.1)], "budget": [1, np.int64(3)]}[key]
    for value in good:
        EstimatorConfig(**{"rho_hat": 1.5, key: value})


def test_default_constants_refuse_bool_levels():
    assert default_constants(0.5, 1, 100).xi == 1.5
    for args, name in (((0.5, True, 100), "rho_hat"), ((True, 1.5, 100), "alpha"), ((np.bool_(True), 1.5, 100), "alpha")):
        with pytest.raises(ValueError, match=name):
            default_constants(*args)


def asymmetric_graph():
    # 6-vertex asymmetric graph (trivial automorphism group), checked below
    g = Graph(6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)])
    autos = [
        perm
        for perm in permutations(range(6))
        if all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)
    ]
    assert autos == [tuple(range(6))]
    return g


def test_map_exhaustive_recovers_identity_alignment():
    g = asymmetric_graph()
    params = ModelParams(n=6, p=0.3, s=0.9)
    cfg = EstimatorConfig(rho_hat=1.0, c_lambda_hat=0.5, eta=0.1)
    est = map_estimator(g, g, params, cfg)
    assert est.exhaustive
    assert est.pi == Bijection.identity(6)
    assert est.intersection_edges == g.edge_count


def test_map_exhaustive_attains_maximum_vs_plain_enumeration():
    params = ModelParams(n=5, p=0.4, s=0.7)
    cfg = EstimatorConfig(rho_hat=1.0, c_lambda_hat=0.5, eta=0.1)
    for seed in range(10):
        g, g_bar, _ = random_instance(5, 0.5, seed + 400)
        est = map_estimator(g, g_bar, params, cfg)
        # independent plain-python enumeration of the objective
        best = max(
            sum(
                1
                for (u, v) in g.edges
                if g_bar.has_edge(*Bijection(perm).map_edge(u, v))
            )
            for perm in permutations(range(5))
        )
        assert est.intersection_edges == best


def test_map_empty_graph_breaks_ties_to_identity():
    params = ModelParams(n=5, p=0.3, s=0.5)
    cfg = EstimatorConfig(rho_hat=1.0, c_lambda_hat=0.5, eta=0.1)
    est = map_estimator(Graph(5), Graph(5), params, cfg)
    assert est.pi == Bijection.identity(5)


def test_map_hill_climb_agrees_with_exhaustive_usually():
    params = ModelParams(n=8, p=0.4, s=0.8)
    agree = 0
    trials = 30
    for t in range(trials):
        smpl = sample_correlated(params, seed=700, replicate=t)
        cfg = EstimatorConfig(rho_hat=1.0, c_lambda_hat=0.5, eta=0.1, budget=6000, seed=t)
        ex = map_estimator(smpl.g, smpl.g_bar, params, cfg)   # exhaustive at n = 8
        hc = _hill_climb(smpl.g, smpl.g_bar, cfg)
        assert ex.exhaustive and not hc.exhaustive
        assert hc.intersection_edges <= ex.intersection_edges
        agree += hc.intersection_edges == ex.intersection_edges
    assert agree >= 0.95 * trials


# (seed, budget) -> (pi, intersection_edges, budget_exhausted) pinned at
# fixed seeds; budgets of whole sweeps (66 pairs at n = 12) end with the
# budget unexhausted.
MAP_HILL_CLIMB_PINS = {
    (3, 66): ([8, 2, 11, 4, 9, 1, 3, 10, 7, 0, 6, 5], 13, False),
    (3, 67): ([8, 2, 11, 4, 9, 1, 3, 10, 7, 0, 6, 5], 13, True),
    (3, 132): ([8, 9, 11, 4, 2, 1, 3, 10, 7, 0, 6, 5], 14, False),
    (3, 150): ([8, 9, 11, 4, 2, 1, 3, 10, 7, 0, 6, 5], 14, True),
    (3, 5000): ([4, 7, 8, 5, 2, 1, 3, 0, 10, 9, 11, 6], 15, True),
    (17, 5000): ([1, 5, 7, 6, 2, 11, 8, 0, 4, 3, 10, 9], 16, True),
}


@pytest.mark.parametrize("seed,budget", sorted(MAP_HILL_CLIMB_PINS))
def test_map_hill_climb_pinned_outputs(seed, budget):
    params = ModelParams(n=12, p=0.4, s=0.8)
    smpl = sample_correlated(params, seed=710, replicate=seed)
    cfg = EstimatorConfig(rho_hat=1.0, c_lambda_hat=0.5, eta=0.1, budget=budget, seed=seed)
    est = map_estimator(smpl.g, smpl.g_bar, params, cfg)
    got = ([int(v) for v in est.pi.forward], est.intersection_edges, est.budget_exhausted)
    assert got == MAP_HILL_CLIMB_PINS[(seed, budget)]


def test_swap_delta_is_the_change_in_the_intersection_count():
    rng = stream(73, 0)
    adjacent = 0
    for _ in range(400):
        n = int(rng.integers(2, 13))
        g = sample_er(n, float(rng.uniform(0.1, 0.9)), rng)
        g_bar = sample_er(n, float(rng.uniform(0.1, 0.9)), rng)
        fwd = rng.permutation(n).astype(np.int64)
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        adjacent += g.has_edge(i, j)
        swapped = fwd.copy()
        swapped[[i, j]] = fwd[[j, i]]
        before, after = _intersection_counts(g, g_bar, np.stack([fwd, swapped])).tolist()
        rows = [(offsets.tolist(), columns.tolist()) for offsets, columns in (g.csr(), g_bar.csr())]
        assert _swap_delta(*rows, fwd.tolist(), i, j) == after - before, (n, g.edges, g_bar.edges, fwd.tolist(), i, j)
    assert 100 < adjacent < 300, adjacent


def test_candidate_check_empty_intersection_fails_dense_side():
    cfg = EstimatorConfig(rho_hat=1.2, c_lambda_hat=0.3, eta=0.1)
    g = Graph(10, [(0, 1)])
    g_bar = Graph(10, [(2, 3)])
    res = reasonable_candidate_check(Bijection.identity(10), g, g_bar, cfg)
    assert not res.dense_subset_ok and not res.accepted


def test_candidate_check_synthetic_clique_certificate():
    # H_pi = K5 inside n=12: density 2, accepted iff 2 in [rho-eta, rho+eta]
    n = 12
    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = Graph(n, clique)
    cfg = EstimatorConfig(rho_hat=2.0, c_lambda_hat=5 / n, eta=0.15)
    res = reasonable_candidate_check(Bijection.identity(n), g, g, cfg)
    assert res.accepted
    assert sorted(res.certificate) == [0, 1, 2, 3, 4]
    assert float(res.certificate_density) == pytest.approx(2.0)
    # too strict a size floor: no qualifying subset of that size
    cfg2 = EstimatorConfig(rho_hat=2.0, c_lambda_hat=0.9, eta=0.15)
    res2 = reasonable_candidate_check(Bijection.identity(n), g, g, cfg2)
    assert not res2.accepted


def test_candidate_check_certificate_is_sound():
    params = ModelParams(n=60, p=0.4, s=0.5)
    cfg = EstimatorConfig(rho_hat=1.3, c_lambda_hat=0.2, eta=0.3)
    for t in range(10):
        smpl = sample_correlated(params, seed=41, replicate=t)
        res = reasonable_candidate_check(smpl.pi_star, smpl.g, smpl.g_bar, cfg)
        if res.certificate is not None:
            h = intersection_graph(smpl.g, smpl.g_bar, smpl.pi_star)
            size = len(res.certificate)
            assert size >= math.ceil(cfg.c_lambda_hat * params.n)
            assert h.edges_within(res.certificate) >= (cfg.rho_hat - cfg.eta) * size


def _reference_peel(h, size_min, target):
    """Min-degree peeling with a Fraction comparison at every step and
    per-vertex Graph queries: the best prefix of size >= size_min with
    density >= target, or None."""
    n = h.n
    deg = [h.degree(v) for v in range(n)]
    alive = [True] * n
    edges_left = h.edge_count
    heap = [(deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    removal_order = []
    best = None   # (#removed before, density)
    size = n
    if size >= size_min and Fraction(edges_left, size) >= target:
        best = (0, Fraction(edges_left, size))
    while size > 1:
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == deg[v]:
                break
        alive[v] = False
        removal_order.append(v)
        for w in h.neighbors(v):
            if alive[w]:
                deg[w] -= 1
                edges_left -= 1
                heapq.heappush(heap, (deg[w], w))
        size -= 1
        if size >= size_min:
            density = Fraction(edges_left, size)
            if density >= target and (best is None or density > best[1]):
                best = (len(removal_order), density)
    if best is None:
        return None
    removed = set(removal_order[: best[0]])
    return tuple(v for v in range(n) if v not in removed), best[1]


def test_peel_matches_the_reference_peel():
    rng = stream(17, 0)
    blocks = [
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),
        (5, [(i, (i + 1) % 5) for i in range(5)]),
    ]
    found = tied = 0
    for trial in range(240):
        n = int(rng.integers(1, 40))
        k = copies = 0
        if trial % 3 == 0:
            # disjoint copies of one block plus a tail: many prefixes tie
            k, part = blocks[trial % len(blocks)]
            copies = max(1, n // k)
            edges = [(u + c * k, v + c * k) for c in range(copies) for u, v in part]
            n = copies * k + int(rng.integers(0, 3))
            g = Graph(n, edges)
        else:
            g = sample_er(n, min(1.0, float(rng.uniform(0.3, 6.0)) / n), rng)
        size_min = int(rng.integers(1, n + 1))
        prefix = Fraction(g.edge_count, n)
        targets = (
            float(prefix),
            float(prefix) + 1e-12,
            0.1 * int(rng.integers(0, 30)),
            float(rng.uniform(-0.5, 3.0)),
            1.0,
        )
        for target in targets:
            want = _reference_peel(g, size_min, target)
            assert _peel_best_subset(g, size_min, target) == want, (trial, size_min, target)
            found += want is not None
            # the prefixes of copies * k and (copies - 1) * k vertices tie
            tied += want is not None and copies >= 2 and len(want[0]) == copies * k and size_min <= (copies - 1) * k
    assert found >= 200 and tied >= 20, (found, tied)


def test_peel_stops_at_the_size_floor(monkeypatch):
    popped, real = [], heapq.heappop

    def spy(heap):
        item = real(heap)
        popped.append(item[1])
        return item

    monkeypatch.setattr(heapq, "heappop", spy)
    rng = stream(18, 0)
    stopped_early = 0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        g = sample_er(n, min(1.0, float(rng.uniform(0.5, 6.0)) / n), rng)
        size_min = int(rng.integers(2, n + 1))
        for target in (0.0, 0.5, float(rng.uniform(0.0, 2.0))):
            want = _reference_peel(g, size_min, target)
            popped.clear()
            assert _peel_best_subset(g, size_min, target) == want
            # a vertex's first pop removes it, so these are the removed ones
            assert len(set(popped)) <= n - size_min, (n, size_min)
            stopped_early += len(set(popped)) < n - 1
    assert stopped_early >= 150, stopped_early


def test_peel_compares_the_whole_graph_exactly():
    # density 1/10 falls short of the float 0.1, which exceeds 1/10
    assert Fraction(1, 10) < 0.1
    assert _peel_best_subset(Graph(10, [(0, 1)]), 10, 0.1) is None


def test_candidate_check_compares_the_maximizer_exactly():
    # the 5-vertex path peaks at density 4/5 on the whole graph, short of
    # the float target 0.9 - 0.1, which exceeds 4/5
    path = Graph(5, [(i, i + 1) for i in range(4)])
    cfg = EstimatorConfig(rho_hat=0.9, c_lambda_hat=0.2, eta=0.1)
    assert Fraction(4, 5) < cfg.rho_hat - cfg.eta
    assert densest_subgraph_exact(path).density == Fraction(4, 5)
    res = reasonable_candidate_check(Bijection.identity(5), path, path, cfg)
    assert res.density_cap_ok
    assert not res.dense_subset_ok and res.certificate is None and not res.accepted


def _reference_candidate_check(h, config):
    """The candidate test as a solve-first route: rho*(h) exactly, then the
    maximizer for (ii), then the reference peel.  Returns
    (accepted, density_cap_ok, dense_subset_ok)."""
    dens = densest_subgraph_exact(h)
    cap_ok = dens.density <= config.rho_hat + config.eta
    size_min = max(1, math.ceil(config.c_lambda_hat * h.n))
    target = config.rho_hat - config.eta
    dense_ok = (len(dens.best_subset) >= size_min and dens.density >= target) or (
        _reference_peel(h, size_min, target) is not None
    )
    return cap_ok and dense_ok, cap_ok, dense_ok


def test_candidate_check_matches_the_solve_first_route():
    # five settings per draw: near the cap (rho* within 1/n of rho_hat +
    # eta), gamma <= 0, an edgeless H, a target just below rho* (where the
    # peel can miss and the maximizer qualify), and a loose typical one
    rng = stream(23, 0)
    seen = dict.fromkeys(("near_cap", "gamma_nonpositive", "edgeless", "peel_misses_maximizer_hits"), 0)
    cap_outcomes = set()
    for t in range(250):
        n = int(rng.integers(20, 401))
        lam = float(rng.uniform(1.5, 6.0))
        smpl = sample_correlated(ModelParams(n=n, p=lam / (n * 0.64), s=0.8), seed=23, replicate=t)
        mode = t % 5
        g_bar = Graph(n) if mode == 2 else smpl.g_bar
        h = intersection_graph(smpl.g, g_bar, smpl.pi_star)
        rho = float(densest_subgraph_exact(h).density)
        eta = float(rng.uniform(0.02, 0.3))
        c_hat = float(rng.uniform(0.02, 1.0))
        if mode == 0:
            rho_hat = rho - eta + float(rng.uniform(-1.0, 1.0)) / n
        elif mode == 1:
            eta = float(rng.uniform(0.1, 0.9)) / n
            rho_hat = float(rng.uniform(-1.0, 1.0)) / n
        elif mode == 3:
            rho_hat = rho + eta - 1e-9
            c_hat = float(rng.uniform(0.02, 0.5))
        else:
            rho_hat = rho + float(rng.uniform(-0.3, 0.3))
        cfg = EstimatorConfig(rho_hat=rho_hat, c_lambda_hat=c_hat, eta=eta)
        res = reasonable_candidate_check(smpl.pi_star, smpl.g, g_bar, cfg)
        want = _reference_candidate_check(h, cfg)
        assert (res.accepted, res.density_cap_ok, res.dense_subset_ok) == want, (t, n, lam, cfg)
        size_min = max(1, math.ceil(c_hat * n))
        if res.certificate is not None:
            size = len(res.certificate)
            assert size >= size_min and size == len(set(res.certificate))
            assert res.certificate_density == Fraction(h.edges_within(res.certificate), size)
            assert res.certificate_density >= cfg.rho_hat - cfg.eta
        else:
            assert res.certificate_density is None
        seen["near_cap"] += abs(rho - (rho_hat + eta)) <= 1 / n
        seen["gamma_nonpositive"] += math.floor((rho_hat + eta) * n) <= 1
        seen["edgeless"] += h.edge_count == 0
        seen["peel_misses_maximizer_hits"] += (
            res.dense_subset_ok and _peel_best_subset(h, size_min, cfg.rho_hat - cfg.eta) is None
        )
        if mode == 0:
            cap_outcomes.add(res.density_cap_ok)
    assert min(seen.values()) >= 20, seen
    assert cap_outcomes == {True, False}


def test_candidate_check_solves_only_when_the_flow_cannot_decide(monkeypatch):
    import corrmatch.inference as inference

    params = ModelParams(n=1000, p=4 / (1000 * 0.64), s=0.8)
    smpl = sample_correlated(params, seed=1002, replicate=0)
    h = intersection_graph(smpl.g, smpl.g_bar, smpl.pi_star)
    rho = float(densest_subgraph_exact(h).density)
    calls = []

    def counted(graph):
        calls.append(graph.n)
        return densest_subgraph_exact(graph)

    monkeypatch.setattr(inference, "densest_subgraph_exact", counted)
    # a sweep-like setting: rho_hat near rho*, margin 0.15, size floor 1/2
    typical = EstimatorConfig(rho_hat=rho + 0.05, c_lambda_hat=0.5, eta=0.15)
    assert reasonable_candidate_check(smpl.pi_star, smpl.g, smpl.g_bar, typical).accepted
    assert calls == []
    # rho* just under rho_hat + eta: the level is rho* itself, and the one
    # flow there decides the cap with no solve
    near = EstimatorConfig(rho_hat=rho - 0.15 + 1e-9, c_lambda_hat=0.5, eta=0.15)
    assert level_below(near.rho_hat + near.eta, h.n) == densest_subgraph_exact(h).density
    calls.clear()
    res = reasonable_candidate_check(smpl.pi_star, smpl.g, smpl.g_bar, near)
    assert res.density_cap_ok and calls == []


def test_candidate_search_empty_graphs_returns_none():
    cfg = EstimatorConfig(rho_hat=1.2, c_lambda_hat=0.3, eta=0.1)
    assert reasonable_candidate_search(Graph(5), Graph(5), ModelParams(n=5, p=0.3, s=0.5), cfg) is None


def test_candidate_search_exhaustive_finds_accepted_candidate():
    # planted 4-clique through a scrambling relabel at n = 7
    n = 7
    clique = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    g = Graph(n, clique)
    pi_true = Bijection([3, 5, 0, 6, 1, 2, 4])
    g_bar = relabel(g, pi_true)
    params = ModelParams(n=n, p=0.3, s=0.8)
    cfg = EstimatorConfig(rho_hat=1.5, c_lambda_hat=4 / n, eta=0.2)
    found = reasonable_candidate_search(g, g_bar, params, cfg)
    assert found is not None
    pi, check = found
    assert check.accepted
    inner = reasonable_candidate_check(pi, g, g_bar, cfg)
    assert inner.accepted


def test_candidate_search_hill_climb_pinned_outputs():
    # n = 10 is past the exhaustive scan: the hill climb finds a planted
    # 5-clique (plus a path); pi pinned at fixed seeds
    n = 10
    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = Graph(n, clique + [(5, 6), (6, 7), (7, 8), (8, 9)])
    g_bar = relabel(g, Bijection([7, 2, 9, 0, 4, 8, 1, 5, 3, 6]))
    params = ModelParams(n=n, p=0.3, s=0.8)
    pins = {
        0: [9, 4, 2, 7, 0, 8, 1, 5, 3, 6],
        1: [2, 7, 4, 0, 9, 6, 3, 5, 1, 8],
        2: [4, 7, 9, 2, 0, 8, 1, 5, 3, 6],
    }
    for seed, want in pins.items():
        cfg = EstimatorConfig(rho_hat=2.0, c_lambda_hat=5 / n, eta=0.2, budget=2000, seed=seed)
        pi, check = reasonable_candidate_search(g, g_bar, params, cfg)
        assert [int(v) for v in pi.forward] == want
        assert check.accepted and check.certificate == (0, 1, 2, 3, 4)


# -- total variation --


def test_tv_bounds_and_determinism():
    params = ModelParams(n=4, p=0.5, s=0.8)
    val = tv_exact(params)
    assert 0.0 <= val <= 1.0
    assert tv_exact(params) == val
    est, se = tv_mc(params, replicates=400, seed=11)
    assert 0.0 <= est <= 1.0 and se >= 0.0


def test_tv_exact_zero_when_s_kills_correlation():
    # s -> tiny: correlation q11 - q^2 = ps^2(1-p) is negligible
    params = ModelParams(n=3, p=0.5, s=0.01)
    assert tv_exact(params) < 1e-3


def test_tv_exact_against_direct_semidistance():
    # independent re-derivation: sum over outcomes of (P - Q)_+ using the
    # 8-outcome pair pmf oracle
    params = ModelParams(n=3, p=0.5, s=0.8)
    n, p, s = 3, params.p, params.s
    pairs = [(0, 1), (0, 2), (1, 2)]
    q = p * s
    total = 0.0
    for gm in range(8):
        for hm in range(8):
            gbits = [(gm >> i) & 1 for i in range(3)]
            hbits = [(hm >> i) & 1 for i in range(3)]
            p_null = 1.0
            for b in gbits + hbits:
                p_null *= q if b else 1 - q
            q_corr = 0.0
            for perm in permutations(range(3)):
                w = 1.0
                for idx, (u, v) in enumerate(pairs):
                    img = tuple(sorted((perm[u], perm[v])))
                    w *= pair_pmf_oracle(gbits[idx], hbits[pairs.index(img)], p, s)
                q_corr += w / 6
            total += max(0.0, p_null - q_corr)
    assert tv_exact(params) == pytest.approx(total, rel=1e-9)


def test_tv_mc_matches_exact_within_4se():
    params = ModelParams(n=4, p=0.5, s=0.8)
    exact = tv_exact(params)
    est, se = tv_mc(params, replicates=4000, seed=21)
    assert abs(est - exact) < 4 * se + 1e-12


@pytest.mark.parametrize("seed", [1.5, True, np.bool_(True), np.float64(7.9), "1", None])
def test_seeds_that_are_not_integers_are_refused(seed):
    # a float or bool seed would be truncated onto an integer's stream
    params = ModelParams(n=4, p=0.5, s=0.8)
    for draw in (lambda: stream(seed, 0), lambda: stream(0, seed), lambda: sample_correlated(params, seed),
                 lambda: sample_correlated(params, 0, seed), lambda: tv_mc(params, 3, seed)):
        with pytest.raises(ValueError, match="must be an integer"):
            draw()
    # numpy integers keep their streams
    assert stream(np.int64(7), np.uint64(3)).random() == stream(7, 3).random()
    assert sample_correlated(params, np.int32(1)).pi_star == sample_correlated(params, 1).pi_star


# -- truncated masses --


def make_lenient_consts(n):
    base = default_constants(0.1, 1.2, max(n, 16))
    return replace(
        base, n=n, degree_cap=10**6, small_set_cap=2, tiny_component_cap=3, cycle_len_cap=5
    )


def test_truncated_mass_recovers_untruncated_sum_when_vacuous():
    # forest instance: all H_pi are forests, every truncation indicator true
    n = 5
    g = Graph(n, [(0, 1), (2, 3)])
    g_bar = Graph(n, [(1, 4)])
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = make_lenient_consts(n)
    c = LikelihoodConstants.from_params(params.p, params.s)
    got = truncated_mass_f(g, g_bar, set(), {}, params, consts)
    want = sum(
        math.exp(log_likelihood_ratio(Bijection(perm), g, g_bar, c))
        for perm in permutations(range(n))
    )
    assert got == pytest.approx(want, rel=1e-9)


def test_truncated_mass_zero_when_admissibility_impossible():
    n = 4
    g = k4 = Graph(n, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = replace(make_lenient_consts(n), xi=0.0)
    assert truncated_mass_f(g, k4, set(), {}, params, consts) == 0.0


def test_truncated_mass_g_dominates_f():
    # g is the max of f over the embeddings sigma, exactly: both sum each
    # sigma's extensions one by one in lexicographic order
    n = 5
    g, g_bar, _ = random_instance(n, 0.4, 5)
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = make_lenient_consts(n)
    for a in ((), (0,), (0, 1)):
        best = truncated_mass_g(g, g_bar, set(a), params, consts)
        masses = [
            truncated_mass_f(g, g_bar, set(a), dict(zip(a, image)), params, consts)
            for image in permutations(range(n), len(a))
        ]
        assert best == max(masses) and best > 0.0, a
        assert len(set(masses)) > 1 or not a, a


def test_truncated_mass_good_set_indicator_bites():
    # adjacent pair in every H_pi containing that edge: a = {0, 1} good only
    # when the edge is absent from H_pi
    n = 4
    g = Graph(n, [(0, 1)])
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = make_lenient_consts(n)
    c = LikelihoodConstants.from_params(params.p, params.s)
    with_pair = truncated_mass_g(g, g, {0, 1}, params, consts)
    total = sum(
        math.exp(log_likelihood_ratio(Bijection(perm), g, g, c))
        for perm in permutations(range(n))
    )
    assert with_pair < total


# -- one checked route for pair sizes and vertex sets --


SIZES, VERTEX = "size mismatch: vertex counts", "vertex out of range"
G, G_BAR, PI = random_instance(5, 0.5, 3)
PARAMS, WIDE = ModelParams(n=5, p=0.4, s=0.7), ModelParams(n=6, p=0.4, s=0.7)
CFG, CONSTS, WIDE_CONSTS = EstimatorConfig(rho_hat=0.5), make_lenient_consts(5), make_lenient_consts(6)
SHORT = Bijection.identity(4)


@pytest.mark.parametrize(
    "call, message",
    [
        # a part of the pair with another vertex count
        (lambda: compose(PI, SHORT), SIZES),
        (lambda: CorrelatedSample(WIDE, PI, G, G_BAR), SIZES),
        (lambda: intersection_graph(G, Graph(4), PI), SIZES),
        (lambda: overlap(PI, SHORT), SIZES),
        (lambda: relabel(Graph(4), PI), SIZES),
        (lambda: phi_of(PI, SHORT), SIZES),
        (lambda: log_likelihood_ratio(PI, G, Graph(6), LikelihoodConstants.from_params(0.4, 0.7)), SIZES),
        (lambda: exact_posterior(G, G_BAR, WIDE), SIZES),
        (lambda: map_estimator(G, Graph(6), PARAMS, CFG), SIZES),
        (lambda: map_estimator(G, G_BAR, WIDE, CFG), SIZES),
        (lambda: joint_log_prob_given_pi(G, G_BAR, PI, WIDE), SIZES),
        (lambda: null_log_prob(G, Graph(6), PARAMS), SIZES),
        (lambda: reasonable_candidate_search(G, G_BAR, WIDE, CFG), SIZES),
        (lambda: exact_posterior(G, G_BAR, PARAMS).probability_of(SHORT), SIZES),
        (lambda: posterior_overlap_mass(exact_posterior(G, G_BAR, PARAMS), SHORT, 0.5), SIZES),
        (lambda: posterior_dump_csv(exact_posterior(G, G_BAR, PARAMS), Bijection.identity(1)), SIZES),
        (lambda: truncated_mass_g(G, G_BAR, {0}, WIDE, CONSTS), SIZES),
        # admissibility constants instantiated for another n
        (lambda: check_admissible(G, WIDE_CONSTS), SIZES),
        (lambda: check_admissible(G, CONSTS).revalidate(G, WIDE_CONSTS), SIZES),
        (lambda: truncated_mass_f(G, G_BAR, {0}, {0: 0}, PARAMS, WIDE_CONSTS), SIZES),
        (lambda: truncated_mass_g(G, G_BAR, {0}, PARAMS, WIDE_CONSTS), SIZES),
        # a vertex set with an id outside [0, n), which numpy would wrap, or not an integer
        (lambda: restricted_orbits(PI, PI, {-1, 0}), VERTEX),
        (lambda: is_good_set(intersection_graph(G, G_BAR, PI), {-1}, 1), VERTEX),
        (lambda: find_good_set(intersection_graph(G, G_BAR, PI), {-1, 7}, 1, 2), VERTEX),
        (lambda: find_good_set(intersection_graph(G, G_BAR, PI), {1.5}, 1, 2), "integers"),
        (lambda: truncated_mass_f(G, G_BAR, {-1}, {-1: 0}, PARAMS, CONSTS), VERTEX),
        (lambda: truncated_mass_g(G, G_BAR, {-1}, PARAMS, CONSTS), VERTEX),
    ],
    ids=[
        "compose", "correlated_sample", "intersection_graph", "overlap", "relabel", "phi_of",
        "log_likelihood_ratio", "exact_posterior", "map_estimator_graph", "map_estimator_params",
        "joint_log_prob", "null_log_prob", "candidate_search", "probability_of", "overlap_mass",
        "posterior_dump", "truncated_mass_params", "check_admissible_consts", "revalidate_consts",
        "truncated_mass_f_consts", "truncated_mass_g_consts", "restricted_orbits", "is_good_set", "find_good_set",
        "find_good_set_float", "truncated_mass_f", "truncated_mass_g",
    ],
)
def test_mismatched_pairs_and_wrapped_vertices_are_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- every sample input through its checked route --


DRAW, DRAW_CONSTS = sample_correlated(ModelParams(n=5, p=0.6, s=0.8), 3), default_constants(0.5, 1.4, 5)
CENSUS_10 = edge_orbits(Bijection.uniform(10, stream(1, 0)), Bijection.uniform(10, stream(2, 0)))


def _mass_f(sigma):
    return truncated_mass_f(DRAW.g, DRAW.g_bar, {0}, sigma, DRAW.params, DRAW_CONSTS)


@pytest.mark.parametrize(
    "call, message",
    [
        # a bool among integer ids, which numpy reads as 0 or 1
        (lambda: Bijection([True, 0, 2]), "integers"),
        (lambda: Graph.from_arrays(3, [True, 0], [2, 1]), "integers"),
        (lambda: Graph(3, [(True, 2)]), "integers"),
        (lambda: vertex_set(5, [True, 3]), "integers"),
        (lambda: vertex_set(5, [np.bool_(True), 3]), "integers"),
        # p and s must be real numbers, not bools
        (lambda: ModelParams(n=5, p="0.5", s=0.5), "p must be a number"),
        (lambda: ModelParams(n=5, p=0.5, s=True), "s must be a number"),
        (lambda: LikelihoodConstants.from_params(True, 0.5), "p must be a number"),
        # an edge list that is not text
        (lambda: Graph.from_text(5), "edge list must be a string"),
        # sigma's images through vertex_set
        (lambda: _mass_f({0: 1.0}), "integers"),
        (lambda: _mass_f({0: True}), "integers"),
        # an orbit census of another vertex count than the params
        (lambda: markov_tail_bound("long", 3.0, CENSUS_10, ModelParams(n=60, p=0.35, s=0.6), 0.5, 3), SIZES),
    ],
    ids=[
        "bijection_bool", "from_arrays_bool", "init_bool", "vertex_set_bool", "vertex_set_numpy_bool",
        "params_string_p", "params_bool_s", "likelihood_bool_p", "from_text_int",
        "sigma_float_image", "sigma_bool_image", "census_size",
    ],
)
def test_sample_inputs_are_refused_where_they_are_read(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sample_inputs_the_routes_keep():
    assert _mass_f({0: 1}) == _mass_f({np.int64(0): np.int64(1)}) == pytest.approx(37.9127489, rel=1e-6)
    assert Bijection((np.int8(1), 0, 2)).forward.tolist() == [1, 0, 2]
    assert ModelParams(n=5, p=np.float64(0.5), s=1).s == 1
    assert markov_tail_bound("long", 3.0, CENSUS_10, ModelParams(n=10, p=0.35, s=0.6), 0.5, 3) == (
        markov_tail_bound("long", 3.0, CENSUS_10.census, ModelParams(n=10, p=0.35, s=0.6), 0.5, 3)
    )
