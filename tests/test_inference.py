import heapq
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from corrmatch.admissibility import default_constants
from corrmatch.graphs import (
    Bijection,
    Graph,
    ModelParams,
    intersection_graph,
    overlap,
    pair_pmf,
    relabel,
    sample_correlated,
    sample_er,
)
from corrmatch.inference import (
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
    _peel_best_subset,
    _swap_delta,
    reasonable_candidate_search,
    truncated_mass_f,
    truncated_mass_g,
    tv_exact,
    tv_mc,
)
from corrmatch.rng import stream


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
    for (pi, prob) in table.entries:
        if {int(pi.forward[0]), int(pi.forward[1])} == {0, 1}:
            best.add(prob)
        else:
            assert prob < max(best, default=1)
    # the 4 matchings mapping {0,1} onto {0,1} share the top probability
    assert len(best) == 1
    top = best.pop()
    others = [p for (pi, p) in table.entries if {int(pi.forward[0]), int(pi.forward[1])} != {0, 1}]
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


# -- estimators --


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
    res = reasonable_candidate_check(Bijection.identity(5), path, path, cfg)
    assert res.max_density == Fraction(4, 5) and res.density_cap_ok
    assert not res.dense_subset_ok and res.certificate is None and not res.accepted


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


# -- truncated masses --


def make_lenient_consts(n):
    from dataclasses import replace

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
    from dataclasses import replace

    n = 4
    g = k4 = Graph(n, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = replace(make_lenient_consts(n), xi=0.0)
    assert truncated_mass_f(g, k4, set(), {}, params, consts) == 0.0


def test_truncated_mass_g_dominates_f():
    n = 5
    g, g_bar, _ = random_instance(n, 0.4, 5)
    params = ModelParams(n=n, p=0.4, s=0.7)
    consts = make_lenient_consts(n)
    a = {0, 1}
    best = truncated_mass_g(g, g_bar, a, params, consts)
    for image in permutations(range(n), 2):
        sigma = dict(zip(sorted(a), image))
        assert truncated_mass_f(g, g_bar, a, sigma, params, consts) <= best + 1e-15


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
