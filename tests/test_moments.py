from itertools import product
from math import comb, exp, factorial, log

import numpy as np
import pytest

from corrmatch.moments import (
    ConsistencyError,
    MomentCoefficients,
    chain_moment,
    chain_recurrence,
    char_roots,
    combinatorial_minimum,
    combinatorial_minimum_oracle,
    cycle_moment,
    log_chain_moment,
    log_cycle_moment,
    markov_tail_bound,
    permutation_count_bound,
    sample_chain_orbit_edges,
    sample_cycle_orbit_edges,
    tail_rates,
)
from corrmatch.orbits import OrbitDecomposition, EdgeOrbit
from corrmatch.rng import stream

PARAM_GRID = [(0.25, 0.5), (0.25, 0.8), (0.4, 0.5), (0.4, 0.8), (0.3, 0.6)]


# -- brute-force oracles ------------------------------------------------------


def triple_weight(i, j, jb, p, s):
    w = p if i else 1 - p
    w *= s if j else 1 - s
    w *= s if jb else 1 - s
    return w


def chain_triple_bruteforce(m, theta, p, s):
    """(a_m, b_m, c_m) by enumerating the m-1 internal Bernoulli triples."""
    out = []
    for g0, gbar_m in ((0, 0), (1, 1), (0, 1)):
        total = 0.0
        for combo in product(range(8), repeat=m - 1):
            weight = 1.0
            gs = [g0]
            gbars = []
            for code in combo:
                i, j, jb = code & 1, (code >> 1) & 1, (code >> 2) & 1
                weight *= triple_weight(i, j, jb, p, s)
                gs.append(i * j)
                gbars.append(i * jb)
            gbars.append(gbar_m)
            count = sum(a * b for a, b in zip(gs, gbars))
            total += weight * exp(theta * count)
        out.append(total)
    return tuple(out)


def cycle_moment_bruteforce(k, theta, p, s):
    """Enumerate all (I, J, Jbar) assignments along a k-cycle orbit."""
    total = 0.0
    for combo in product(range(8), repeat=k):
        weight = 1.0
        i_arr, g_arr, gbar_arr = [], [], []
        for code in combo:
            i, j, jb = code & 1, (code >> 1) & 1, (code >> 2) & 1
            weight *= triple_weight(i, j, jb, p, s)
            i_arr.append(i)
            g_arr.append(i * j)
            gbar_arr.append(i * jb)
        count = sum(g_arr[t] * (i_arr[t - 1] and gbar_arr[t]) for t in range(k))
        total += weight * exp(theta * count)
    return total


def chain_moment_bruteforce(k, theta, p, s):
    ps = p * s
    a, b, c = chain_triple_bruteforce(k, theta, p, s)
    return (1 - ps) ** 2 * a + ps * ps * b + 2 * ps * (1 - ps) * c


# -- recurrences and roots ----------------------------------------------------


def unscaled_chain_recurrence(m, theta, p, s):
    a, b, c, logscale = chain_recurrence(m, theta, p, s)
    return a * exp(logscale), b * exp(logscale), c * exp(logscale)


def test_theta_zero_degenerates_to_one():
    for p, s in PARAM_GRID:
        for m in (1, 2, 5, 9):
            assert unscaled_chain_recurrence(m, 0.0, p, s) == pytest.approx((1.0, 1.0, 1.0))
            assert cycle_moment(m, 0.0, p, s) == pytest.approx(1.0)
            assert chain_moment(m, 0.0, p, s) == pytest.approx(1.0)
    assert char_roots(0.0, 0.3, 0.6) == pytest.approx((1.0, 0.0))


def test_recurrence_seeds():
    a1, b1, c1 = unscaled_chain_recurrence(1, 0.7, 0.3, 0.6)
    assert (a1, b1, c1) == pytest.approx((1.0, exp(0.7), 1.0))


def test_recurrence_matches_bruteforce_enumeration():
    for m in (2, 3, 4):
        for p, s in [(0.3, 0.6), (0.25, 0.8)]:
            for theta in (0.5, 1.0):
                got = unscaled_chain_recurrence(m, theta, p, s)
                want = chain_triple_bruteforce(m, theta, p, s)
                assert got == pytest.approx(want, rel=1e-12)


def test_recurrence_refuses_c_updates_that_disagree(monkeypatch):
    # a pair law whose first marginal is not Bern(ps) breaks the second c-row
    from corrmatch import moments

    real = moments.pair_pmf

    def skewed(p, s):
        q = real(p, s).copy()
        q[0, 0] += 0.01
        q[1, 1] -= 0.01
        return q

    monkeypatch.setattr(moments, "pair_pmf", skewed)
    for m in (1, 2, 1000):
        with pytest.raises(ConsistencyError, match="c-updates disagree"):
            chain_recurrence(m, 0.7, 0.3, 0.6)


@pytest.mark.parametrize("theta", [0.5, 1.2, 30.0])
def test_million_step_orbits_pass_both_route_checks(theta):
    for p, s in PARAM_GRID:
        for log_moment in (log_cycle_moment, log_chain_moment):
            assert 0.0 < log_moment(10**6, theta, p, s) < np.inf   # raises ConsistencyError on disagreement


def test_char_roots_vieta_and_independent_solver():
    for p, s in PARAM_GRID:
        for theta in (0.5, 1.0, 2.0):
            nu = exp(theta) - 1
            mu1, mu2 = char_roots(theta, p, s)
            assert mu1 >= mu2 >= 0
            assert mu1 + mu2 == pytest.approx(1 + p * s * s * nu, rel=1e-12)
            assert mu1 * mu2 == pytest.approx((p * s * s - p * p * s * s) * nu, rel=1e-12)
            roots = sorted(np.roots([1.0, -(1 + p * s * s * nu), (p * s * s - p * p * s * s) * nu]))
            assert mu2 == pytest.approx(roots[0], rel=1e-9, abs=1e-12)
            assert mu1 == pytest.approx(roots[1], rel=1e-9)


def test_cycle_moment_k1_closed_form():
    for p, s in PARAM_GRID:
        theta = 1.2
        assert cycle_moment(1, theta, p, s) == pytest.approx(1 + p * s * s * (exp(theta) - 1), rel=1e-12)


def test_cycle_and_chain_moments_match_enumeration():
    for k in (1, 2, 3, 4):
        for theta in (0.5, 1.2):
            p, s = 0.3, 0.6
            assert cycle_moment(k, theta, p, s) == pytest.approx(
                cycle_moment_bruteforce(k, theta, p, s), rel=1e-11
            )
            assert chain_moment(k, theta, p, s) == pytest.approx(
                chain_moment_bruteforce(k, theta, p, s), rel=1e-11
            )


def test_chain_moment_k1_is_product_of_independent_bernoullis():
    p, s, theta = 0.3, 0.6, 1.0
    ps = p * s
    want = 1 - ps * ps + ps * ps * exp(theta)
    assert chain_moment(1, theta, p, s) == pytest.approx(want, rel=1e-12)


def test_trace_identity_large_k_grid():
    # mu1^k + mu2^k equals the boundary combination for k up to 50.
    for p, s in PARAM_GRID:
        for theta in (0.5, 1.2, 3.0):
            for k in (1, 2, 5, 10, 25, 50):
                cycle_moment(k, theta, p, s)  # raises ConsistencyError on disagreement


def test_chain_coefficients_reproduce_first_two_moments():
    for p, s in PARAM_GRID:
        theta = 0.9
        nu = exp(theta) - 1
        coef = MomentCoefficients.from_params(theta, p, s)
        a1 = coef.c1 * coef.mu1 + coef.c2 * coef.mu2
        a2 = coef.c1 * coef.mu1**2 + coef.c2 * coef.mu2**2
        assert a1 == pytest.approx(1 + p * p * s * s * nu, rel=1e-9)
        assert a2 == pytest.approx(chain_moment(2, theta, p, s), rel=1e-9)
        assert a1 == pytest.approx(chain_moment(1, theta, p, s), rel=1e-9)


def test_moments_against_monte_carlo_smoke():
    rng = stream(99, 0)
    p, s, theta, size = 0.3, 0.6, 1.0, 200_000
    for k in (1, 3, 5):
        xs = np.exp(theta * sample_cycle_orbit_edges(k, p, s, rng, size))
        se = xs.std(ddof=1) / np.sqrt(size)
        assert abs(xs.mean() - cycle_moment(k, theta, p, s)) < 4 * se
        ys = np.exp(theta * sample_chain_orbit_edges(k, p, s, rng, size))
        se = ys.std(ddof=1) / np.sqrt(size)
        assert abs(ys.mean() - chain_moment(k, theta, p, s)) < 4 * se


def test_overflow_guard_returns_inf_not_exception():
    a, b, c, logscale = chain_recurrence(400, 30.0, 0.3, 0.6)
    assert log(b) + logscale > log(1e300)
    assert cycle_moment(400, 30.0, 0.3, 0.6) > 0
    # up to theta = 709 (e^theta still a float) every read is finite in log
    # space and finite or inf as a moment, with both routes checked
    for theta in (121.0, 300.0, 358.0, 709.0):
        for k in (1, 6, 50, 400):
            for log_moment, moment in ((log_cycle_moment, cycle_moment), (log_chain_moment, chain_moment)):
                log_value = log_moment(k, theta, 0.3, 0.6)
                assert np.isfinite(log_value) and log_value > 0
                value = moment(k, theta, 0.3, 0.6)
                if log_value < log(np.finfo(float).max):
                    assert value == pytest.approx(exp(log_value), rel=1e-12)
                else:
                    assert value == np.inf


def test_every_moment_read_checks_its_second_route(monkeypatch):
    # a recurrence that is off by 1 % in b must not reach a tail bound
    from corrmatch import moments
    from corrmatch.graphs import ModelParams

    real = moments.chain_recurrence

    def skewed(m, theta, p, s):
        a, b, c, logscale = real(m, theta, p, s)
        return a, 1.01 * b, c, logscale

    monkeypatch.setattr(moments, "chain_recurrence", skewed)
    for log_moment in (log_cycle_moment, log_chain_moment):
        with pytest.raises(ConsistencyError):
            log_moment(3, 1.0, 0.3, 0.6)
    params = ModelParams(n=60, p=0.35, s=0.6)
    special_cycles = {2: (3, 0, 0), 4: (1, 0, 0)}
    chains = {1: (0, 0, 4), 3: (0, 0, 1)}
    with pytest.raises(ConsistencyError, match="cycle"):
        markov_tail_bound("special", 2.0, special_cycles, params, 0.5, n_cutoff=2)
    with pytest.raises(ConsistencyError, match="chain"):
        markov_tail_bound("long", 2.0, chains, params, 0.5, n_cutoff=2)


# -- tail bounds ----------------------------------------------------------------


def census_of(lengths_kinds):
    orbits = []
    for length, kind, special in lengths_kinds:
        edges = tuple((0, i + 1) for i in range(length))  # placeholder edges
        orbits.append(EdgeOrbit(edges=edges, kind=kind, special=special))
    return {length: row for length, row in OrbitDecomposition(
        n=100, universe_size=sum(o.length for o in orbits), orbits=tuple(orbits)
    ).census.items()}


def test_tail_bound_vacuous_at_zero_and_monotone():
    from corrmatch.graphs import ModelParams

    census = census_of([(2, "cycle", True), (3, "cycle", False), (2, "chain", False)])
    kwargs = dict(census=census, params=ModelParams(n=60, p=0.35, s=0.6), alpha=0.5, n_cutoff=2)
    for cls, extra in (("special", {}), ("long", {}), ("k_cycle", {"k": 2})):
        b0 = markov_tail_bound(cls, 0.0, **kwargs, **extra)
        assert b0 >= 1.0
        prev = b0
        for x in (1.0, 2.0, 4.0, 8.0):
            cur = markov_tail_bound(cls, x, **kwargs, **extra)
            assert cur <= prev + 1e-12
            prev = cur


def test_tail_bound_empirical_frequency_below_bound():
    # fixed census; compare empirical tails of E_class against the bound
    from corrmatch.graphs import ModelParams

    params = ModelParams(n=60, p=0.35, s=0.6)
    p, s, alpha = params.p, params.s, 0.5
    reps = 100_000
    rng = stream(17, 0)
    census = {1: (0, 30, 4), 2: (3, 10, 2), 3: (0, 5, 1), 4: (1, 2, 0)}
    # sample special-cycle edge totals: S_2 = 3 specials of length 2, S_4 = 1
    e_s = np.zeros(reps, dtype=np.int64)
    for length, (s_cnt, _, _) in census.items():
        for _ in range(s_cnt):
            e_s += sample_cycle_orbit_edges(length, p, s, rng, reps)
    for x in (2.0, 4.0, 8.0):
        bound = markov_tail_bound("special", x, census, params, alpha, n_cutoff=2)
        freq = float((e_s >= x).mean())
        assert freq <= bound + 4 * np.sqrt(max(freq, 1e-9) / reps)
    # long class: chains of all lengths plus cycles beyond the cutoff
    e_long = np.zeros(reps, dtype=np.int64)
    for length, (_, l_cnt, t_cnt) in census.items():
        if length > 2:
            for _ in range(l_cnt):
                e_long += sample_cycle_orbit_edges(length, p, s, rng, reps)
        for _ in range(t_cnt):
            e_long += sample_chain_orbit_edges(length, p, s, rng, reps)
    for x in (2.0, 4.0, 8.0):
        bound = markov_tail_bound("long", x, census, params, alpha, n_cutoff=2)
        freq = float((e_long >= x).mean())
        assert freq <= bound + 4 * np.sqrt(max(freq, 1e-9) / reps)


def test_tail_rates_values():
    rates = tail_rates(0.5, 2)
    assert rates.alpha_k == (0.0, 0.5, 0.5)  # alpha_3 = min(0.5, 2/3)
    rates = tail_rates(0.9, 3)
    assert rates.alpha_k[-1] == pytest.approx(min(0.9, 0.75))


# -- combinatorial minimum ------------------------------------------------------


def test_minimum_all_counts_zero_closed_form():
    T, rho, eta, alpha = 20, 2.0, 0.1, 0.5
    nks = (0, 0)
    value, point = combinatorial_minimum(T, nks, rho, eta, alpha)
    alpha_np1 = min(alpha, 2 / 3)
    assert point.x == pytest.approx((0.0, 0.0, 0.0, (rho - eta) * T))
    assert value == pytest.approx((alpha_np1 * (rho - eta) - 1) * T)


def test_minimum_matches_integer_oracle_when_integral():
    # eta = 0 and integral caps: greedy point is a lattice point
    T, rho, eta, alpha = 10, 2.0, 0.0, 0.5
    nks = (2, 1)
    value, point = combinatorial_minimum(T, nks, rho, eta, alpha)
    ov, opt = combinatorial_minimum_oracle(T, nks, rho, eta, alpha)
    assert all(abs(x - round(x)) < 1e-9 for x in point.x)
    assert value == pytest.approx(ov, abs=1e-9)


def test_relaxation_below_integer_oracle_random():
    rng = stream(31, 0)
    for _ in range(12):
        T = int(rng.integers(4, 16))
        big_n = int(rng.integers(1, 4))
        nks = []
        budget = T
        for k in range(1, big_n + 1):
            cap = budget // k
            v = int(rng.integers(0, cap + 1)) if cap > 0 else 0
            nks.append(v)
            budget -= k * v
        rho = 1.2 + float(rng.random()) * 2
        eta = float(rng.random()) * 0.4
        alpha = 0.3 + float(rng.random()) * 0.65
        value, point = combinatorial_minimum(T, tuple(nks), rho, eta, alpha)
        ov, _ = combinatorial_minimum_oracle(T, tuple(nks), rho, eta, alpha)
        assert value <= ov + 1e-9
        # the relaxed minimizer is feasible
        assert sum(point.x) >= (rho - eta) * T - 1e-9
        assert all(-1e-12 <= x <= rho * T + 1e-9 for x in point.x)


def test_polytope_always_feasible_under_valid_inputs():
    # eta >= 0 forces (rho - eta) T <= rho T, so the pooled coordinate alone
    # can always satisfy the sum constraint; only bad inputs are rejected.
    value, point = combinatorial_minimum(10, (0,), rho=1.01, eta=0.0, alpha=0.5)
    assert sum(point.x) >= 1.01 * 10 - 1e-9
    with pytest.raises(ValueError):
        combinatorial_minimum(5, (10,), rho=2.0, eta=0.1, alpha=0.5)  # counts exceed T
    with pytest.raises(ValueError):
        combinatorial_minimum(5, (1,), rho=0.9, eta=0.1, alpha=0.5)  # rho <= 1
    with pytest.raises(ValueError):
        combinatorial_minimum(5, (1,), rho=2.0, eta=-0.1, alpha=0.5)  # negative eta


@pytest.mark.parametrize("alpha", [0.0, -1.0, 2.0])
def test_minimum_refuses_alpha_outside_unit_interval(alpha):
    # the water-fill is exact only for rates in [0, 1]
    for minimum in (combinatorial_minimum, combinatorial_minimum_oracle):
        with pytest.raises(ValueError, match="alpha"):
            minimum(10, (1, 1), 2.0, 0.1, alpha)


def test_minimum_respects_prefix_caps():
    T, rho, eta, alpha = 12, 2.0, 0.25, 0.5
    nks = (1, 2)
    _, point = combinatorial_minimum(T, nks, rho, eta, alpha)
    assert point.x[1] <= (rho + eta) * 1 * 1 + 1e-9
    assert point.x[1] + point.x[2] <= (rho + eta) * (1 + 4) + 1e-9


# -- permutation count bound ------------------------------------------------------


def count_embeddings_with_profile(pi_star, a_set, profile):
    """Exhaustive |S(A, n_1..n_N)|: embeddings whose induced phi has exactly
    n_k length-k node cycles inside A, for k <= N."""
    from itertools import permutations

    n = pi_star.n
    a_list = sorted(a_set)
    big_n = len(profile)
    count = 0
    for image in permutations(range(n), len(a_list)):
        sigma = dict(zip(a_list, image))
        inv = {v: k for k, v in sigma.items()}
        # cycles of phi = sigma^{-1} o pi* that stay inside A
        seen = set()
        tallies = [0] * big_n
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
                if cur in cyc:
                    inside = False
                    break
            if inside:
                seen.update(cyc)
                if len(cyc) <= big_n:
                    tallies[len(cyc) - 1] += 1
        if tallies == list(profile):
            count += 1
    return count


def test_bound_empty_profile_is_falling_factorial():
    got = permutation_count_bound(8, 3, (0, 0))
    assert got == pytest.approx(log(8 * 7 * 6))


def test_bound_monotone_in_counts():
    base = permutation_count_bound(10, 6, (1, 1))
    assert permutation_count_bound(10, 6, (2, 1)) <= base
    assert permutation_count_bound(10, 6, (1, 2)) <= base


def test_exhaustive_count_never_exceeds_bound_n6():
    from corrmatch.graphs import Bijection

    rng = stream(62, 0)
    a_set = {0, 1, 2}
    for _ in range(6):
        pi_star = Bijection.uniform(6, rng)
        for profile in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (3, 0)]:
            if sum((k + 1) * v for k, v in enumerate(profile)) > 3:
                continue
            cnt = count_embeddings_with_profile(pi_star, a_set, profile)
            bound = permutation_count_bound(6, 3, profile)
            assert cnt <= exp(bound) * (1 + 1e-9), (profile, cnt, exp(bound))


def test_bound_preconditions():
    with pytest.raises(ValueError):
        permutation_count_bound(5, 6, (0,))
    with pytest.raises(ValueError):
        permutation_count_bound(6, 3, (4,))
