from math import lcm

import numpy as np
import pytest

from corrmatch.graphs import Bijection, CorrelatedSample, Graph, ModelParams, sample_correlated
from corrmatch.harness import census_csv
from corrmatch.orbits import (
    edge_orbits,
    node_cycles,
    orbit_edge_stats,
    phi_of,
    restricted_orbits,
    short_cycle_cutoff,
)
from corrmatch.rng import stream

from oracles import compose


def bijection_from_cycles(n, cycles):
    fwd = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            fwd[a] = b
    return Bijection(fwd)


# phi = pi^{-1} o pi*: picking pi = identity makes phi = pi_star.
IDENT = Bijection.identity


def test_node_cycles_examples():
    assert node_cycles(IDENT(6)) == tuple((v,) for v in range(6))
    six_cycle = bijection_from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    assert node_cycles(six_cycle) == ((0, 1, 2, 3, 4, 5),)
    mixed = bijection_from_cycles(5, [(0, 1), (2, 3, 4)])
    assert node_cycles(mixed) == ((0, 1), (2, 3, 4))


def test_identity_phi_gives_all_one_cycles():
    n = 6
    dec = edge_orbits(IDENT(n), IDENT(n))
    assert len(dec.orbits) == n * (n - 1) // 2
    assert all(o.length == 1 and o.kind == "cycle" for o in dec.orbits)
    assert not any(o.special for o in dec.orbits)


def test_five_cycle_splits_pairs_into_two_five_cycles():
    phi = bijection_from_cycles(5, [(0, 1, 2, 3, 4)])
    dec = edge_orbits(phi, IDENT(5))
    assert sorted(o.length for o in dec.orbits) == [5, 5]
    assert all(o.kind == "cycle" for o in dec.orbits)


def test_cross_orbit_lcm_example():
    phi = bijection_from_cycles(5, [(0, 1), (2, 3, 4)])
    dec = edge_orbits(phi, IDENT(5))
    cross = [o for o in dec.orbits if any(u in (0, 1) and v in (2, 3, 4) for u, v in o.edges)]
    assert len(cross) == 1
    assert cross[0].length == lcm(2, 3)


def test_lcm_law_exhaustive_up_to_six():
    # Disjoint node cycles of lengths x, y inside A generate LCM(x,y)-cycles.
    for x in range(1, 7):
        for y in range(1, 7):
            n = x + y
            phi = bijection_from_cycles(n, [tuple(range(x)), tuple(range(x, n))])
            dec = edge_orbits(phi, IDENT(n))
            for orbit in dec.orbits:
                u, v = orbit.edges[0]
                if (u < x) != (v < x):
                    assert orbit.length == lcm(x, y), (x, y, orbit)
                    assert not orbit.special


def test_special_cycle_detection_lemma_constructions():
    # Even cycle (0 1 2 3) inside A: antipodal pairs form special x/2-cycles.
    phi = bijection_from_cycles(6, [(0, 1, 2, 3)])
    dec = restricted_orbits(phi, IDENT(6), {0, 1, 2, 3})
    by_first = {o.edges[0]: o for o in dec.orbits}
    special = by_first[(0, 2)]
    assert special.special and special.length == 2
    assert set(special.edges) == {(0, 2), (1, 3)}
    # non-antipodal pair on the same cycle: a full x-cycle, not special
    other = by_first[(0, 1)]
    assert other.length == 4 and not other.special


def test_odd_cycle_has_no_special_orbits():
    phi = bijection_from_cycles(5, [(0, 1, 2, 3, 4)])
    dec = edge_orbits(phi, IDENT(5))
    assert not any(o.special for o in dec.orbits)


def test_restricted_chain_example():
    phi = bijection_from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    dec = restricted_orbits(phi, IDENT(6), {0, 1, 2})
    by_edges = {o.edges: o for o in dec.orbits}
    chain = by_edges[((0, 1), (1, 2))]
    assert chain.kind == "chain" and chain.length == 2
    # (0, 2) maps to (1, 3) which leaves A immediately: a 1-chain
    single = by_edges[((0, 2),)]
    assert single.kind == "chain" and single.length == 1


def test_restriction_to_full_set_gives_cycles_only():
    rng = stream(3, 0)
    for _ in range(10):
        pi_star = Bijection.uniform(7, rng)
        pi = Bijection.uniform(7, rng)
        full = restricted_orbits(pi_star, pi, set(range(7)))
        assert all(o.kind == "cycle" for o in full.orbits)
        assert full.census == edge_orbits(pi_star, pi).census


def test_partition_property_random():
    rng = stream(4, 0)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        pi_star = Bijection.uniform(n, rng)
        pi = Bijection.uniform(n, rng)
        a = {int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        dec = restricted_orbits(pi_star, pi, a)
        seen = [e for o in dec.orbits for e in o.edges]
        expected = {(u, v) for u in a for v in a if u < v}
        assert len(seen) == len(set(seen)) == dec.universe_size
        assert set(seen) == expected
        # orbit edges consecutive under Phi
        phi = phi_of(pi_star, pi)
        for o in dec.orbits:
            for e, f in zip(o.edges, o.edges[1:]):
                assert phi.map_edge(*e) == f
            if o.kind == "cycle":
                assert phi.map_edge(*o.edges[-1]) == o.edges[0]


def test_census_consistency_and_special_budget():
    rng = stream(5, 0)
    for _ in range(25):
        n = int(rng.integers(3, 15))
        pi_star = Bijection.uniform(n, rng)
        pi = Bijection.uniform(n, rng)
        dec = edge_orbits(pi_star, pi)
        census = dec.census
        assert sum(k * sum(row) for k, row in census.items()) == dec.universe_size
        assert sum(k * row[0] for k, row in census.items()) <= n


def test_orbit_independence_diagnostic():
    # |edges| of distinct orbits are uncorrelated given pi*.
    n = 10
    pi_star = Bijection.identity(n)
    pi = bijection_from_cycles(n, [(0, 1, 2), (3, 4)])
    dec = edge_orbits(pi_star, pi)
    big = [o for o in dec.orbits if o.length >= 2][:2]
    assert len(big) == 2
    params = ModelParams(n=n, p=0.4, s=0.6)
    reps = 3000
    xs = np.empty(reps)
    ys = np.empty(reps)
    for r in range(reps):
        smpl = sample_correlated(params, seed=1234, replicate=r)
        # rebuild with the fixed pi_star/pi: resample by relabeling the draw
        g, g_bar = smpl.g, smpl.g_bar
        tgt = smpl.pi_star
        adj = compose(pi_star, Bijection(tgt.inverse))
        g_bar_fixed = __import__("corrmatch.graphs", fromlist=["relabel"]).relabel(g_bar, adj)
        xs[r] = sum(
            1 for (u, v) in big[0].edges if g.has_edge(u, v) and g_bar_fixed.has_edge(*pi.map_edge(u, v))
        )
        ys[r] = sum(
            1 for (u, v) in big[1].edges if g.has_edge(u, v) and g_bar_fixed.has_edge(*pi.map_edge(u, v))
        )
    cov = np.cov(xs, ys)[0, 1]
    se = np.sqrt(xs.var() * ys.var() / reps) + 1e-12
    assert abs(cov) < 4 * se


def test_orbit_independence_diagnostic_large_sample():
    # 1e5 generative draws straight from the defining pair variables:
    # G_e = I_e J_e and Gbar at the pi-image of e is I at the Phi-preimage
    # of e times Jbar.  Distinct orbits must show vanishing covariance.
    n, p, s = 9, 0.45, 0.6
    pi_star = Bijection.identity(n)
    pi = bijection_from_cycles(n, [(0, 1, 2, 3), (4, 5, 6)])
    dec = edge_orbits(pi_star, pi)
    phi_inv = Bijection(phi_of(pi_star, pi).inverse)
    big = sorted((o for o in dec.orbits if o.length >= 3), key=lambda o: -o.length)[:2]
    assert len(big) == 2 and not set(big[0].edges) & set(big[1].edges)
    reps = 100_000
    rng = stream(88, 0)
    pair_ids = {}
    for o in big:
        for e in o.edges:
            pair_ids.setdefault(e, len(pair_ids))
            pair_ids.setdefault(phi_inv.map_edge(*e), len(pair_ids))
    m = len(pair_ids)
    I = rng.random((reps, m)) < p
    J = rng.random((reps, m)) < s
    Jb = rng.random((reps, m)) < s
    counts = []
    for o in big:
        total = np.zeros(reps, dtype=np.int64)
        for e in o.edges:
            pre = phi_inv.map_edge(*e)
            g_e = I[:, pair_ids[e]] & J[:, pair_ids[e]]
            gbar_pie = I[:, pair_ids[pre]] & Jb[:, pair_ids[e]]
            total += (g_e & gbar_pie).astype(np.int64)
        counts.append(total)
    xs, ys = counts
    cov = float(np.cov(xs, ys)[0, 1])
    se = float(np.sqrt(xs.var() * ys.var() / reps)) + 1e-12
    assert abs(cov) < 4 * se


def test_cutoff_values():
    assert short_cycle_cutoff(0.5) == 2
    assert short_cycle_cutoff(0.75) == 4
    assert short_cycle_cutoff(1.0, rho=2.5, eta=0.1) == int(1 / 1.4) + 1
    with pytest.raises(ValueError):
        short_cycle_cutoff(1.0)
    with pytest.raises(ValueError):
        short_cycle_cutoff(0.0)


def test_orbit_edge_stats_identity_matching():
    params = ModelParams(n=8, p=0.6, s=0.8)
    smpl = sample_correlated(params, seed=2, replicate=0)
    a = set(range(8))
    stats = orbit_edge_stats(smpl, smpl.pi_star, a, alpha=0.5)
    inter = __import__("corrmatch.graphs", fromlist=["intersection_graph"]).intersection_graph(
        smpl.g, smpl.g_bar, smpl.pi_star
    )
    assert stats.e_k[0] == inter.edge_count
    assert stats.e_special == 0 and stats.e_long == 0 and sum(stats.e_k[1:]) == 0


def test_orbit_edge_stats_empty_intersection():
    g = Graph(6)
    g_bar = Graph(6, [(0, 1)])
    params = ModelParams(n=6, p=0.5, s=0.5)
    smpl = CorrelatedSample(params=params, pi_star=Bijection.identity(6), g=g, g_bar=g_bar)
    stats = orbit_edge_stats(smpl, Bijection.identity(6), set(range(6)), alpha=0.5)
    assert (stats.e_special, stats.e_k, stats.e_long) == (0, (0, 0), 0)


def test_orbit_edge_stats_special_cycle_hand_built():
    # phi = (0 1 2 3): place both graphs so the special orbit {(0,2),(1,3)}
    # lies entirely in the intersection graph.
    n = 8
    pi_star = bijection_from_cycles(n, [(0, 1, 2, 3)])
    pi = Bijection.identity(n)
    g = Graph(n, [(0, 2), (1, 3)])
    g_bar = Graph(n, [pi.map_edge(0, 2), pi.map_edge(1, 3)])
    params = ModelParams(n=n, p=0.5, s=0.5)
    smpl = CorrelatedSample(params=params, pi_star=pi_star, g=g, g_bar=g_bar)
    stats = orbit_edge_stats(smpl, pi, set(range(4)), alpha=0.5)
    assert stats.e_special == 2


def test_orbit_edge_stats_pools_chains_and_long_cycles_into_e_long():
    # phi = (0 1 2 3 4) with the cutoff N = 2 at alpha = 1/2: inside the whole
    # cycle both edges lie on non-special 5-cycles, inside {0, 1, 2} on chains
    n = 8
    pi_star, pi = bijection_from_cycles(n, [(0, 1, 2, 3, 4)]), IDENT(n)
    g = Graph(n, [(0, 1), (0, 2)])
    smpl = CorrelatedSample(params=ModelParams(n=n, p=0.5, s=0.5), pi_star=pi_star, g=g, g_bar=g)
    for a in (set(range(5)), {0, 1, 2}):
        stats = orbit_edge_stats(smpl, pi, a, alpha=0.5)
        assert (stats.e_long, stats.e_special, stats.e_k) == (2, 0, (0, 0)), a


def test_census_csv_schema():
    phi = bijection_from_cycles(6, [(0, 1, 2, 3)])
    dec = restricted_orbits(phi, IDENT(6), {0, 1, 2, 3})
    text = census_csv(dec)
    lines = text.strip().splitlines()
    assert lines[0] == "length,kind,special,count"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    assert any(",cycle,true," in line for line in lines[1:])


def _census_csv_by_hand(decomposition):
    """The census CSV as it was written before CsvReport wrote it."""
    text = "length,kind,special,count\n"
    for k, (s_k, l_k, t_k) in decomposition.census.items():
        if s_k:
            text += f"{k},cycle,true,{s_k}\n"
        if l_k:
            text += f"{k},cycle,false,{l_k}\n"
        if t_k:
            text += f"{k},chain,false,{t_k}\n"
    return text


def test_census_csv_bytes_unchanged():
    rng = stream(72, 0)
    kinds = set()
    for _ in range(40):
        n = int(rng.integers(2, 14))
        phi = Bijection([int(v) for v in rng.permutation(n)])
        universe = {int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
        dec = restricted_orbits(phi, IDENT(n), universe)
        text = census_csv(dec)
        assert text == _census_csv_by_hand(dec)
        kinds.update(tuple(line.split(",")[1:3]) for line in text.splitlines()[1:])
    assert kinds == {("cycle", "true"), ("cycle", "false"), ("chain", "false")}
