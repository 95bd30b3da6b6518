"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These are statistical and exactness checks at fixed seeds; every runtime
budget is asserted alongside the substance.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from itertools import permutations

import numpy as np
import pytest

from corrmatch.admissibility import check_admissible, default_constants, find_good_set, is_good_set
from corrmatch.density import densest_subgraph_exact
from corrmatch.graphs import Bijection, ModelParams, sample_correlated, sample_er
from corrmatch.harness import (
    ExperimentConfig,
    acceptance_rates,
    run_rho_curve,
    run_threshold_sweep,
    sweep_grid,
)
from corrmatch.inference import (
    LikelihoodConstants,
    exact_posterior,
    joint_log_prob_given_pi,
    log_likelihood_ratio,
    null_log_prob,
    tv_exact,
    tv_mc,
)
from corrmatch.moments import (
    chain_moment,
    combinatorial_minimum,
    cycle_moment,
    permutation_count_bound,
    sample_chain_orbit_edges,
    sample_cycle_orbit_edges,
)
from corrmatch.orbits import edge_orbits, restricted_orbits
from corrmatch.rng import stream

from oracles import combinatorial_minimum_oracle, densest_subgraph_bruteforce

THREADS = 8


def report(idx: int, name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {idx:02d} [{name}]: {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line
    assert elapsed < budget, f"criterion {idx} exceeded its runtime budget: {line}"


def test_criterion_01_moment_exactness():
    t0 = time.time()
    size = 1_000_000
    worst_z = 0.0
    idx = 0
    for k in (1, 2, 3, 4, 6):
        for p in (0.25, 0.4):
            for s in (0.5, 0.8):
                for theta in (0.5, 1.2):
                    for cls in ("cycle", "chain"):
                        idx += 1
                        rng = stream(101, idx)
                        if cls == "cycle":
                            # raises internally if mu1^k + mu2^k deviates from
                            # the boundary combination by more than 1e-9
                            closed = cycle_moment(k, theta, p, s)
                            counts = sample_cycle_orbit_edges(k, p, s, rng, size)
                        else:
                            closed = chain_moment(k, theta, p, s)
                            counts = sample_chain_orbit_edges(k, p, s, rng, size)
                        xs = np.exp(theta * counts)
                        se = xs.std(ddof=1) / math.sqrt(size)
                        z = abs(float(xs.mean()) - closed) / se
                        worst_z = max(worst_z, z)
    report(1, "moment exactness", worst_z <= 4.0, time.time() - t0, 120, f"worst |z| = {worst_z:.2f} over {idx} combos")


def test_criterion_02_likelihood_identity():
    t0 = time.time()
    rng = stream(202, 0)
    checked = 0
    for trial in range(1000):
        n = int(rng.integers(3, 7))
        p = float(rng.choice([0.25, 0.4, 0.55]))
        s = float(rng.choice([0.5, 0.7, 0.9]))
        g = sample_er(n, float(rng.random()) * 0.8, rng)
        g_bar = sample_er(n, float(rng.random()) * 0.8, rng)
        pi = Bijection.uniform(n, rng)
        consts = LikelihoodConstants.from_params(p, s)
        # raises internally when product and P/Q/R routes differ beyond 1e-9
        log_likelihood_ratio(pi, g, g_bar, consts)
        checked += 1
    report(2, "likelihood identity", checked == 1000, time.time() - t0, 10, "1000 triples at 1e-9")


def test_criterion_03_posterior_soundness():
    t0 = time.time()
    params = ModelParams(n=5, p=0.4, s=0.8)
    consts = LikelihoodConstants.from_params(params.p, params.s)
    perms = list(permutations(range(5)))
    sum_ok = mix_ok = True
    for rep in range(20):
        smpl = sample_correlated(params, 303, rep)
        table = exact_posterior(smpl.g, smpl.g_bar, params)
        sum_ok &= abs(float(table.probs.sum()) - 1.0) <= 1e-9
        # mixture identity: generative route vs P/Q/R route over all 120
        direct = sum(
            math.exp(joint_log_prob_given_pi(smpl.g, smpl.g_bar, Bijection(pm), params))
            for pm in perms
        )
        via_pqr = sum(
            math.exp(
                null_log_prob(smpl.g, smpl.g_bar, params)
                + log_likelihood_ratio(Bijection(pm), smpl.g, smpl.g_bar, consts)
            )
            for pm in perms
        )
        mix_ok &= abs(direct - via_pqr) <= 1e-9 * abs(direct)
    masses = []
    for rep in range(200):
        smpl = sample_correlated(params, 304, rep)
        table = exact_posterior(smpl.g, smpl.g_bar, params)
        masses.append(table.probability_of(smpl.pi_star))
    ratio = float(np.mean(masses)) * math.factorial(5)
    ok = sum_ok and mix_ok and ratio >= 5.0
    report(3, "posterior soundness", ok, time.time() - t0, 120, f"mean mass ratio vs uniform = {ratio:.1f}")


def test_criterion_04_densest_subgraph_exactness():
    t0 = time.time()
    rng = stream(404, 0)
    agreements = 0
    total = 210
    for trial in range(total):
        n = int(rng.integers(2, 15))
        q = float(rng.random()) * 0.9
        g = sample_er(n, q, rng)
        a = densest_subgraph_exact(g)
        b = densest_subgraph_bruteforce(g)
        if a.density == b.density:   # exact rational equality
            agreements += 1
    report(4, "densest subgraph exactness", agreements == total, time.time() - t0, 60, f"{agreements}/{total} graphs")


def test_criterion_05_rho_curve_sanity():
    t0 = time.time()
    cfg = ExperimentConfig(
        kind="rho-curve", n=3000, replicates=20, seed=505, lambda_grid=(1.0, 1.5, 2.0, 4.0, 8.0)
    )
    _, curve = run_rho_curve(cfg, threads=THREADS)
    rho1 = curve.rho_hat[0]
    in_band = 0.9 <= rho1 <= 1.15
    tail = curve.rho_hat[1:]
    strictly_increasing = all(a < b for a, b in zip(tail, tail[1:]))
    floor_ok = all(
        r >= lam / 2 * (curve.n_used - 1) / curve.n_used - 3 * se
        for lam, r, se in zip(curve.lambda_grid, curve.rho_hat, curve.stderr)
    )
    ok = in_band and strictly_increasing and floor_ok
    report(
        5,
        "rho curve sanity",
        ok,
        time.time() - t0,
        600,
        f"rho(1) = {rho1:.3f}, curve = {[round(r, 3) for r in curve.rho_hat]}",
    )


def test_criterion_06_orbit_correctness():
    t0 = time.time()
    rng = stream(606, 0)
    partition_ok = True
    for _ in range(500):
        n = int(rng.integers(2, 41))
        pi_star = Bijection.uniform(n, rng)
        pi = Bijection.uniform(n, rng)
        a = {int(v) for v in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
        dec = restricted_orbits(pi_star, pi, a)
        edges = [e for o in dec.orbits for e in o.edges]
        want = {(u, v) for u in a for v in a if u < v}
        partition_ok &= len(edges) == len(set(edges)) and set(edges) == want
        census = dec.census
        partition_ok &= sum(k * sum(row) for k, row in census.items()) == dec.universe_size
        partition_ok &= sum(k * row[0] for k, row in census.items()) <= n

    lcm_ok = True
    for x in range(1, 7):
        for y in range(1, 7):
            n = x + y
            fwd = list(range(n))
            for cyc in (tuple(range(x)), tuple(range(x, n))):
                for a_v, b_v in zip(cyc, cyc[1:] + cyc[:1]):
                    fwd[a_v] = b_v
            phi = Bijection(fwd)
            dec = edge_orbits(phi, Bijection.identity(n))
            for orbit in dec.orbits:
                u, v = orbit.edges[0]
                if (u < x) != (v < x):
                    lcm_ok &= orbit.length == math.lcm(x, y) and not orbit.special

    special_ok = True
    for x in (4, 6, 8):
        n = x + 2
        fwd = list(range(n))
        cyc = tuple(range(x))
        for a_v, b_v in zip(cyc, cyc[1:] + cyc[:1]):
            fwd[a_v] = b_v
        phi = Bijection(fwd)
        dec = restricted_orbits(phi, Bijection.identity(n), set(range(x)))
        for orbit in dec.orbits:
            u, v = orbit.edges[0]
            antipodal = (v - u) % x == x // 2
            if antipodal:
                special_ok &= orbit.special and orbit.length == x // 2
            elif orbit.special:
                special_ok = False
    ok = partition_ok and lcm_ok and special_ok
    report(6, "orbit correctness", ok, time.time() - t0, 30)


def test_criterion_07_combinatorial_minimum():
    t0 = time.time()
    rng = stream(707, 0)
    equal = 0
    total = 50
    for _ in range(total):
        big_n = int(rng.integers(1, 4))
        T = int(rng.integers(5, 31))
        rho = float(rng.choice([2.0, 3.0]))
        eta = float(rng.choice([0.0, 1.0]))
        alpha = 0.3 + float(rng.random()) * 0.65
        nks, budget = [], T
        for k in range(1, big_n + 1):
            cap = min(4, budget // k)
            v = int(rng.integers(0, cap + 1)) if cap > 0 else 0
            nks.append(v)
            budget -= k * v
        value, point = combinatorial_minimum(T, tuple(nks), rho, eta, alpha)
        oracle_value, _ = combinatorial_minimum_oracle(T, tuple(nks), rho, eta, alpha)
        integral = all(abs(x - round(x)) < 1e-9 for x in point)
        if integral and abs(value - oracle_value) <= 1e-9:
            equal += 1

    # Lemma-style lower bound M >= delta0 T under the coupled hypotheses
    lemma_ok = True
    checked = 0
    while checked < 50:
        alpha = 0.4 + float(rng.random()) * 0.45
        big_n = math.floor(1.0 / (1.0 - alpha))
        rho = 1.0 / alpha + 0.3 + float(rng.random())
        eta = float(rng.random()) * (rho - 1.0 / alpha) / 4.0 * 0.9 + 1e-3
        c_lam = 0.2 + float(rng.random()) * 0.6
        rate_last = min(alpha, big_n / (big_n + 1))
        cap1_0 = rate_last * (rho - eta) - 1.0
        cap2_0 = (rho - 4.0 * eta - 1.0) / 2.0
        if min(cap1_0, cap2_0) <= 0:
            continue
        delta = 0.5 * min(cap1_0, cap2_0) * c_lam / (rho + eta)
        delta0 = 0.5 * min(
            cap1_0 - (rho + eta) * delta / c_lam, cap2_0 - (rho + eta) * delta / c_lam
        )
        if delta0 <= 0:
            continue
        T = int(rng.integers(5, 31))
        n_total = math.floor(T / c_lam)
        n1_max = min(math.floor(delta * n_total), T)
        nks = [int(rng.integers(0, n1_max + 1))]
        budget = T - nks[0]
        for k in range(2, big_n + 1):
            cap = budget // k
            v = int(rng.integers(0, cap + 1)) if cap > 0 else 0
            nks.append(v)
            budget -= k * v
        value, _ = combinatorial_minimum(T, tuple(nks), rho, eta, alpha)
        lemma_ok &= value >= delta0 * T - 1e-9
        checked += 1
    ok = equal == total and lemma_ok
    report(7, "combinatorial minimum", ok, time.time() - t0, 60, f"{equal}/{total} oracle matches")


def count_profile_tallies(pi_star: Bijection, a_list: list[int], big_n: int) -> dict:
    """Exhaustive profile tallies over all embeddings of A."""
    n = pi_star.n
    tallies: dict[tuple, int] = {}
    for image in permutations(range(n), len(a_list)):
        inv = {w: v for v, w in zip(a_list, image)}
        seen = set()
        profile = [0] * big_n
        for start in a_list:
            if start in seen:
                continue
            cur, cyc, inside = start, [], True
            while True:
                cyc.append(cur)
                img = int(pi_star.forward[cur])
                if img not in inv:
                    inside = False
                    break
                cur = inv[img]
                if cur == start:
                    break
            if inside:
                seen.update(cyc)
                if len(cyc) <= big_n:
                    profile[len(cyc) - 1] += 1
        tallies[tuple(profile)] = tallies.get(tuple(profile), 0) + 1
    return tallies


def test_criterion_08_permutation_count_bound():
    t0 = time.time()
    rng = stream(808, 0)
    ok = True
    from itertools import combinations

    # n = 5: all 120 bijections, all A of sizes 2 and 3
    for perm in permutations(range(5)):
        pi_star = Bijection(perm)
        for size in (2, 3):
            for a_tuple in combinations(range(5), size):
                for profile, count in count_profile_tallies(pi_star, list(a_tuple), 2).items():
                    bound = permutation_count_bound(5, size, profile)
                    ok &= count <= math.exp(bound) * (1 + 1e-9)
    # n = 6: all 720 bijections, one A
    for perm in permutations(range(6)):
        pi_star = Bijection(perm)
        for profile, count in count_profile_tallies(pi_star, [0, 1, 2], 2).items():
            ok &= count <= math.exp(permutation_count_bound(6, 3, profile)) * (1 + 1e-9)
    # n = 7: sampled bijections, all A of size 3
    for _ in range(10):
        pi_star = Bijection.uniform(7, rng)
        for a_tuple in combinations(range(7), 3):
            for profile, count in count_profile_tallies(pi_star, list(a_tuple), 3).items():
                ok &= count <= math.exp(permutation_count_bound(7, 3, profile)) * (1 + 1e-9)
    report(8, "permutation count bound", ok, time.time() - t0, 60)


def test_criterion_09_admissibility_and_good_sets():
    t0 = time.time()
    # (a) pass rate at n = 2000, lambda = 2 with default constants
    rho2 = run_rho_curve(ExperimentConfig(kind="rho-curve", n=1200, replicates=6, seed=905, lambda_grid=(2.0,)))[1]
    consts = default_constants(0.5, rho2.rho_hat[0], 2000)
    passes = 0
    for rep in range(50):
        g = sample_er(2000, 2 / 2000, stream(906, rep))
        if check_admissible(g, consts).admissible:
            passes += 1
    rate_ok = passes >= 45

    # (b) every failure witness re-validates (tight constants force failures)
    from dataclasses import replace

    rng = stream(907, 0)
    tight = replace(
        default_constants(0.1, 1.05, 48),
        n=48,
        xi=0.8,
        zeta=1.5,
        degree_cap=5,
        small_set_cap=6,
        tiny_component_cap=4,
        cycle_len_cap=6,
        delta1=1e-6,
    )
    witnesses = 0
    revalidated = 0
    for rep in range(40):
        g = sample_er(48, 3.0 / 48, rng)
        rpt = check_admissible(g, tight)
        if not rpt.admissible and not rpt.undecided:
            witnesses += 1
            revalidated += rpt.revalidate(g, tight)
    witness_ok = witnesses >= 20 and revalidated == witnesses

    # (c) find_good_set output always passes is_good_set
    good_ok = True
    for rep in range(30):
        n = int(rng.integers(10, 60))
        g = sample_er(n, 2.5 / n, rng)
        b = {int(v) for v in rng.choice(n, size=max(1, n // 2), replace=False)}
        got = find_good_set(g, b, k_target=4, c_big=3)
        good_ok &= bool(is_good_set(g, set(got), 3))
    ok = rate_ok and witness_ok and good_ok
    report(
        9,
        "admissibility / good sets",
        ok,
        time.time() - t0,
        300,
        f"pass rate {passes}/50, witnesses {revalidated}/{witnesses} revalidated",
    )


def test_criterion_10_threshold_trend():
    t0 = time.time()
    # place lambda* from a reference curve at alpha = 1/2
    cfg_curve = ExperimentConfig(
        kind="rho-curve",
        n=1200,
        replicates=6,
        seed=1001,
        lambda_grid=(1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5),
    )
    _, curve = run_rho_curve(cfg_curve, threads=THREADS)
    lam_star, grid = sweep_grid(curve, 0.5)
    cfg = ExperimentConfig(
        kind="threshold-sweep",
        n=2000,
        alpha=0.5,
        replicates=50,
        seed=1002,
        lambda_grid=grid,
        estimator={"eta": 0.15, "curve_n": 1000, "curve_replicates": 6},
    )
    sweep = run_threshold_sweep(cfg, threads=THREADS)
    rates = acceptance_rates(sweep)
    ordered = [rates[lam] for lam in sorted(rates)]
    violations = sum(1 for a, b in zip(ordered, ordered[1:]) if b < a)
    ok = violations <= 1 and ordered[-1] >= 0.9
    report(
        10,
        "threshold trend",
        ok,
        time.time() - t0,
        1200,
        f"lambda* = {lam_star:.2f}, rates = {[round(r, 2) for r in ordered]}",
    )


def test_criterion_11_tv_dual_method():
    t0 = time.time()
    params = ModelParams(n=4, p=0.5, s=0.8)
    exact = tv_exact(params)
    est, se = tv_mc(params, replicates=20000, seed=1101)
    z = abs(est - exact) / se
    report(11, "TV dual method", z <= 4.0, time.time() - t0, 60, f"exact {exact:.4f}, mc {est:.4f}, z = {z:.2f}")
