"""Likelihood machinery, exact posterior, estimators, and TV experiments.

Relative to the independent-pair null, the likelihood of a triple
(pi, G, Gbar) factors over vertex pairs through the three-case edge ratio
ell(x, y), the pair law graphs.pair_pmf over its Bern(ps) marginals, and
collapses to P^{|edges of H_pi|} Q^{|E|+|Ebar|} R^{C(n,2)} / n!
with

    P = (1-2ps+ps^2) / (p(1-s)^2),
    Q = (1-s)(1-ps) / (1-2ps+ps^2),
    R = (1-2ps+ps^2) / (1-ps)^2.

|E| and |Ebar| are fixed by the observation, so the posterior over
matchings orders exactly by intersection-edge count (P > 1 always, since
numerator minus denominator is 1 - p).  Everything posterior-exact is
gated to small n where the n! enumeration is affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .admissibility import AdmissibilityConstants, check_admissible, is_good_set
from .density import densest_subgraph_exact, density_exceeds
from .graphs import (
    Bijection,
    Graph,
    ModelParams,
    check_int,
    check_p_s,
    check_real,
    check_sizes,
    intersection_graph,
    pair_pmf,
    sample_independent,
    vertex_set,
)
from .rng import stream

__all__ = [
    "LikelihoodConstants",
    "PosteriorTable",
    "EstimatorConfig",
    "MapEstimate",
    "CandidateCheck",
    "edge_ll",
    "log_likelihood_ratio",
    "joint_log_prob_given_pi",
    "null_log_prob",
    "exact_posterior",
    "posterior_overlap_mass",
    "posterior_w",
    "map_estimator",
    "reasonable_candidate_check",
    "reasonable_candidate_search",
    "tv_exact",
    "tv_mc",
    "truncated_mass_f",
    "truncated_mass_g",
]

# Caps on n for the table of all n! matchings (_matchings).  A row of counts
# per matching, paid once per call (exact posterior, MAP, candidate search):
ENUMERATION_N_MAX = 9
# far more per matching: (n!)^2 pairs in posterior_w, n! products per tv_mc
# replicate, a check_admissible per matching in the truncated masses:
COSTLY_ENUMERATION_N_MAX = 7
# tv_exact's table holds every pair of graphs, 2^C(n,2) x 2^C(n,2) cells:
TV_EXACT_N_MAX = 4


@dataclass(frozen=True)
class LikelihoodConstants:
    """The edge likelihood-ratio factors and their logs.

    s = 1 degenerates the model (the two copies are parent duplicates);
    P blows up and Q vanishes there, so the closed-form identities demand
    s < 1 while the raw ell table stays usable.
    """

    p: float
    s: float
    big_p: float
    big_q: float
    big_r: float

    @classmethod
    def from_params(cls, p: float, s: float) -> "LikelihoodConstants":
        check_p_s(p, s)
        ps = p * s
        q00 = 1.0 - 2.0 * ps + p * s * s
        if s < 1.0:
            big_p = q00 / (p * (1.0 - s) ** 2)
            big_q = (1.0 - s) * (1.0 - ps) / q00
        else:
            big_p = math.inf
            big_q = 0.0
        big_r = q00 / (1.0 - ps) ** 2
        return cls(p=p, s=s, big_p=big_p, big_q=big_q, big_r=big_r)

    @property
    def log_p(self) -> float:
        return math.log(self.big_p) if self.big_p != math.inf else math.inf

    @property
    def log_q(self) -> float:
        return math.log(self.big_q) if self.big_q > 0.0 else -math.inf

    @property
    def log_r(self) -> float:
        return math.log(self.big_r)

    def ll_table(self) -> np.ndarray:
        """ell(x, y) as a 2x2 array indexed [x][y]."""
        return np.array(
            [[edge_ll(x, y, self.p, self.s) for y in (0, 1)] for x in (0, 1)]
        )


def edge_ll(x: int, y: int, p: float, s: float) -> float:
    """The three-case edge likelihood ratio ell(x, y)."""
    check_p_s(p, s)
    if x not in (0, 1) or y not in (0, 1):
        raise ValueError("bits must be 0 or 1")
    ps = p * s
    if x == 1 and y == 1:
        return 1.0 / p
    if x != y:
        return (1.0 - s) / (1.0 - ps)
    return (1.0 - 2.0 * ps + p * s * s) / (1.0 - ps) ** 2


def log_likelihood_ratio(pi: Bijection, g: Graph, g_bar: Graph, consts: LikelihoodConstants) -> float:
    """log( n! * Q[pi, G, Gbar] / P[G, Gbar] ) + log n!, i.e. the log of
    prod_e ell(G_e, Gbar_{Pi(e)}).

    Evaluated both as the literal per-pair product and as the
    count-collapsed P/Q/R form; the two must agree to relative 1e-9.
    """
    if consts.s >= 1.0:
        raise ValueError("the P/Q/R closed form requires s < 1")
    us, vs = np.triu_indices(check_sizes(g, g_bar, pi), k=1)
    x = g.has_edges(us, vs).astype(np.int64)
    y = g_bar.has_edges(pi.forward[us], pi.forward[vs]).astype(np.int64)
    table = np.log(consts.ll_table())
    product_form = float(table[x, y].sum())
    n11 = int((x & y).sum())
    closed_form = (
        n11 * consts.log_p
        + (g.edge_count + g_bar.edge_count) * consts.log_q
        + us.size * consts.log_r
    )
    if abs(product_form - closed_form) > 1e-9 * max(1.0, abs(closed_form)):
        raise AssertionError(
            f"likelihood routes disagree: product {product_form} vs closed {closed_form}"
        )
    return closed_form


def joint_log_prob_given_pi(g: Graph, g_bar: Graph, pi: Bijection, params: ModelParams) -> float:
    """log Q[G, Gbar | pi* = pi]: product over pairs of graphs.pair_pmf."""
    pmf = pair_pmf(params.p, params.s)
    us, vs = np.triu_indices(check_sizes(g, g_bar, pi, params), k=1)
    x = g.has_edges(us, vs)
    y = g_bar.has_edges(pi.forward[us], pi.forward[vs])
    n11 = int((x & y).sum())
    n_mismatch = int((x ^ y).sum())
    n00 = us.size - n11 - n_mismatch
    out = 0.0
    for count, value in ((n11, pmf[1, 1]), (n_mismatch, pmf[1, 0]), (n00, pmf[0, 0])):
        if count:
            if value <= 0.0:
                return -math.inf
            out += count * math.log(value)
    return out


def null_log_prob(g: Graph, g_bar: Graph, params: ModelParams) -> float:
    """log P[G, Gbar] under the independent-pair null."""
    q = params.p * params.s
    total = math.comb(check_sizes(g, g_bar, params), 2)
    m = g.edge_count + g_bar.edge_count
    return m * math.log(q) + (2 * total - m) * math.log(1.0 - q)


# -- the exact posterior ---------------------------------------------------------


@dataclass(frozen=True)
class PosteriorTable:
    """Exact posterior over all n! matchings, in lexicographic order."""

    n: int
    perms: np.ndarray          # (n!, n) int8
    probs: np.ndarray          # (n!,)
    log_weights: np.ndarray    # (n!,) unnormalized

    def __post_init__(self) -> None:
        if abs(float(self.probs.sum()) - 1.0) > 1e-9:
            raise ValueError("posterior does not normalize")

    def probability_of(self, pi: Bijection) -> float:
        check_sizes(self, pi)
        idx = np.flatnonzero((self.perms == pi.forward).all(axis=1))
        return float(self.probs[idx[0]])


def _matchings(n: int, n_max: int) -> np.ndarray:
    """Every matching of range(n) as an int8 row, in lexicographic order;
    ValueError above the caller's cap n_max.  The rows that start with i are
    i followed by the rows for n - 1 with each entry >= i raised by one."""
    if n > n_max:
        raise ValueError(f"enumeration of the n! matchings limited here to n <= {n_max}")
    perms = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        heads = np.arange(m, dtype=np.int8)[:, None, None]
        tails = perms + (perms >= heads)
        perms = np.concatenate((np.broadcast_to(heads, (m, len(perms), 1)), tails), axis=2).reshape(-1, m)
    return perms


def _intersection_counts(g: Graph, g_bar: Graph, perms: np.ndarray) -> np.ndarray:
    """|edges of H_pi| for a batch of permutations (rows)."""
    us, vs = g.edge_array().T
    return g_bar.has_edges(perms[:, us], perms[:, vs]).sum(axis=1)


def _counted_blocks(g: Graph, g_bar: Graph, perms: np.ndarray):
    """The rows of perms 8! at a time with their intersection counts: small
    int64 temporaries, and a caller that stops early counts no further."""
    for block in np.split(perms, range(40320, len(perms), 40320)):
        yield block, _intersection_counts(g, g_bar, block)


def exact_posterior(g: Graph, g_bar: Graph, params: ModelParams) -> PosteriorTable:
    """Posterior of the hidden matching given (G, Gbar), by enumerating all
    n! matchings (n <= ENUMERATION_N_MAX).  Weights depend on pi only
    through the intersection-edge count."""
    n = check_sizes(g, g_bar, params)
    perms = _matchings(n, ENUMERATION_N_MAX)
    n11 = np.concatenate([block_counts for _, block_counts in _counted_blocks(g, g_bar, perms)])
    with np.errstate(divide="ignore"):   # ell(1, 0) = 0 at s = 1
        (l00, l10), (_, l11) = np.log(LikelihoodConstants.from_params(params.p, params.s).ll_table())
    m_sum = g.edge_count + g_bar.edge_count
    total = n * (n - 1) // 2
    n10 = m_sum - 2 * n11
    n00 = total - m_sum + n11
    logw = n11 * l11 + n00 * l00
    with np.errstate(invalid="ignore"):
        logw = logw + np.where(n10 > 0, n10 * l10, 0.0)
    peak = logw.max()
    if peak == -math.inf:
        raise ValueError("no matching has positive likelihood for this pair")
    weights = np.exp(logw - peak)
    probs = weights / weights.sum()
    return PosteriorTable(n=n, perms=perms, probs=probs, log_weights=logw)


def posterior_overlap_mass(table: PosteriorTable, pi_tilde: Bijection, delta: float) -> float:
    """Posterior mass of matchings agreeing with pi_tilde on >= ceil(delta n)
    vertices."""
    check_real("delta", delta, "[0, 1]")
    threshold = math.ceil(delta * check_sizes(table, pi_tilde))
    agree = (table.perms == pi_tilde.forward.astype(np.int8)).sum(axis=1)
    return float(table.probs[agree >= threshold].sum())


def posterior_w(table: PosteriorTable, delta: float) -> float:
    """max over reference matchings of the delta-overlap posterior mass
    (exhaustive over all n! references, so n <= COSTLY_ENUMERATION_N_MAX)."""
    check_real("delta", delta, "[0, 1]")
    if table.n > COSTLY_ENUMERATION_N_MAX:
        raise ValueError(f"posterior_w limited to n <= {COSTLY_ENUMERATION_N_MAX}")
    threshold = math.ceil(delta * table.n)
    best = 0.0
    perms = table.perms
    for block in np.split(perms, range(512, len(perms), 512)):   # 512 references at a time
        agree = (perms[None, :, :] == block[:, None, :]).sum(axis=2)
        masses = np.where(agree >= threshold, table.probs[None, :], 0.0).sum(axis=1)
        best = max(best, float(masses.max()))
    return best


# -- estimators -------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the estimators and the reasonable-candidate test, and
    the one place that states their defaults and ranges.

    rho_hat is the density level, in (-inf, inf); c_lambda_hat the size
    floor as a fraction of n, in (0, 1]; eta the density margin, in
    (0, inf), all real numbers (graphs.check_real), and the test's levels
    rho_hat + eta and rho_hat - eta finite too; budget the hill climb's
    move budget, an integer >= 1; seed its master seed, an integer in
    [0, 2**64) (the key range of rng.stream); none a bool.  In the
    supercritical regime the proof takes 0 < eta < (rho_hat - 1/alpha)/4.
    """

    rho_hat: float
    c_lambda_hat: float = 0.3
    eta: float = 0.15
    budget: int = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rho_hat", "c_lambda_hat", "eta", "budget", "seed"):
            self.check_range(name, getattr(self, name))
        check_real("rho_hat + eta", self.rho_hat + self.eta)   # the test's two levels
        check_real("rho_hat - eta", self.rho_hat - self.eta)

    @staticmethod
    def check_range(name: str, value) -> None:
        """Raise ValueError unless value has the type of the setting `name`
        (rho_hat, c_lambda_hat, eta, budget or seed) and lies in its range."""
        if name == "budget":
            check_int(name, value, 1)
        elif name == "seed":
            if not 0 <= check_int(name, value) < 1 << 64:
                raise ValueError(f"seed {value} outside [0, 2**64)")
        else:
            check_real(name, value, {"rho_hat": "(-inf, inf)", "c_lambda_hat": "(0, 1]", "eta": "(0, inf)"}[name])


@dataclass(frozen=True)
class MapEstimate:
    pi: Bijection
    intersection_edges: int
    exhaustive: bool
    budget_exhausted: bool


def _assert_p_above_one(params: ModelParams) -> None:
    consts = LikelihoodConstants.from_params(params.p, params.s)
    if not consts.big_p > 1.0:
        raise AssertionError("posterior monotonicity needs P > 1")


def map_estimator(g: Graph, g_bar: Graph, params: ModelParams, config: EstimatorConfig) -> MapEstimate:
    """Posterior-mode matching: argmax of the intersection-edge count.

    Exhaustive (lexicographic argmax) up to n = ENUMERATION_N_MAX; above,
    transposition hill climbing with restarts under the move budget.  An
    empty g makes every matching optimal and the identity wins the
    lexicographic tie-break.
    """
    _assert_p_above_one(params)
    if check_sizes(g, g_bar, params) > ENUMERATION_N_MAX:
        return _hill_climb(g, g_bar, config)
    perms = _matchings(g.n, ENUMERATION_N_MAX)
    counts = np.concatenate([block_counts for _, block_counts in _counted_blocks(g, g_bar, perms)])
    best = int(counts.argmax())   # first maximum = lexicographically least
    return MapEstimate(
        pi=Bijection(perms[best]),
        intersection_edges=int(counts[best]),
        exhaustive=True,
        budget_exhausted=False,
    )


def _hill_climb(g: Graph, g_bar: Graph, config: EstimatorConfig) -> MapEstimate:
    """The best state over all sweeps, ties to the lexicographically least.
    A restart's count rises strictly until its last sweep, so this is the
    best final state of any restart."""
    best_perm, best_count = None, -1
    for fwd, count, cut_short in _transposition_sweeps(g, g_bar, stream(config.seed, 0), config.budget):
        if count > best_count or (count == best_count and tuple(fwd) < tuple(best_perm)):
            best_perm, best_count = fwd.copy(), count
    return MapEstimate(
        pi=Bijection(best_perm),
        intersection_edges=best_count,
        exhaustive=False,
        budget_exhausted=cut_short,
    )


def _transposition_sweeps(g: Graph, g_bar: Graph, rng: np.random.Generator, budget: int):
    """Transposition hill climb on the intersection-edge count.

    Each restart sweeps the pairs i < j of a uniform permutation, taking
    every gaining swap, until a sweep gains nothing; restarts go on until
    `budget` swaps have been evaluated.  Yields (fwd, count, cut_short)
    after every sweep, fwd being the live list of images; cut_short says
    the budget ran out mid-sweep.
    """
    n = g.n
    if n < 2:   # the identity is the only matching
        yield list(range(n)), 0, False
        return
    rows = tuple((offsets.tolist(), columns.tolist()) for offsets, columns in (g.csr(), g_bar.csr()))
    moves_left = budget
    while moves_left > 0:
        fwd = rng.permutation(n).tolist()
        count = int(_intersection_counts(g, g_bar, np.array([fwd]))[0])
        improved = True
        while improved and moves_left > 0:
            improved = False
            for i, j in combinations(range(n), 2):
                if moves_left <= 0:
                    yield fwd, count, True
                    return
                moves_left -= 1
                delta = _swap_delta(*rows, fwd, i, j)
                if delta > 0:
                    fwd[i], fwd[j] = fwd[j], fwd[i]
                    count += delta
                    improved = True
            yield fwd, count, False


def _swap_delta(g_rows, g_bar_rows, fwd: list[int], i: int, j: int) -> int:
    """The change in the intersection-edge count from swapping fwd[i] and
    fwd[j], read off the two graphs' `Graph.csr()` as lists: each neighbour
    of i but j trades g_bar's row of fwd[i] for that of fwd[j], and back."""
    (starts, columns), (bar_starts, bar_columns) = g_rows, g_bar_rows
    fi, fj = fwd[i], fwd[j]
    row_i = bar_columns[bar_starts[fi]:bar_starts[fi + 1]]
    row_j = bar_columns[bar_starts[fj]:bar_starts[fj + 1]]
    delta = 0
    for a, old_row, new_row in ((i, row_i, row_j), (j, row_j, row_i)):
        moved = [fwd[u] for u in columns[starts[a]:starts[a + 1]] if u != i and u != j]
        delta += sum(map(new_row.__contains__, moved)) - sum(map(old_row.__contains__, moved))
    return delta


# -- reasonable candidates ----------------------------------------------------------


@dataclass(frozen=True)
class CandidateCheck:
    accepted: bool
    density_cap_ok: bool
    dense_subset_ok: bool
    certificate: tuple[int, ...] | None
    certificate_density: Fraction | None


def reasonable_candidate_check(
    pi: Bijection, g: Graph, g_bar: Graph, config: EstimatorConfig
) -> CandidateCheck:
    """Both conditions of the candidate test on H_pi, decided without
    solving for rho*(H_pi) when a peel and one flow suffice.

    (ii) some subset of size >= ceil(c_lambda_hat n) reaches density
    rho_hat - eta: min-degree peeling of the whole graph down to the size
    floor is tried first.  (i) the global max density stays at most
    rho_hat + eta: when the peel qualifies, one
    density_exceeds(h, rho_hat + eta) call decides it exactly, with at most
    one flow.  The exact maximizer is solved only when the peel misses; it
    then decides (i) and is tried for (ii).  Levels are compared exactly,
    as the density module says.  The certificate is the peel's prefix when
    the peel qualifies, else the maximizer when it qualifies; a returned
    certificate is sound, a miss is possible.  rho* itself is not
    reported, since most checks never compute it; densest_subgraph_exact(h)
    gives it.
    """
    h = intersection_graph(g, g_bar, pi)
    cap = config.rho_hat + config.eta
    size_min = max(1, math.ceil(config.c_lambda_hat * h.n))
    target = config.rho_hat - config.eta
    found = _peel_best_subset(h, size_min, target)
    if found is None:
        dens = densest_subgraph_exact(h)
        cap_ok = dens.density <= cap
        if len(dens.best_subset) >= size_min and dens.density >= target:
            found = dens.best_subset, dens.density
    else:
        cap_ok = not density_exceeds(h, cap)
    certificate, cert_density = found or (None, None)
    return CandidateCheck(
        accepted=cap_ok and found is not None,
        density_cap_ok=cap_ok,
        dense_subset_ok=found is not None,
        certificate=certificate,
        certificate_density=cert_density,
    )


def _peel_best_subset(
    h: Graph, size_min: int, target: float
) -> tuple[tuple[int, ...], Fraction] | None:
    """Min-degree peeling; best prefix of size >= size_min with density >=
    target, or None.  Prefix densities are compared exactly, by integer
    cross-multiplication against target as a fraction; among prefixes of
    equal density the largest is kept.

    Only prefixes of at least size_min vertices count, so the peel stops
    once max(1, size_min) vertices are left: it removes at most
    n - size_min of them, reading each removed vertex's row of `h.csr()`.
    The kept prefix's edge count is recounted from the edge array."""
    import heapq

    n = h.n
    starts, columns = (rows.tolist() for rows in h.csr())
    deg = h.degrees.tolist()
    alive = [True] * n
    edges_left = h.edge_count
    heap = list(zip(deg, range(n)))
    heapq.heapify(heap)
    removal_order = []
    num, den = Fraction(target).as_integer_ratio()
    best: tuple[int, int, int] | None = None   # (#removed before, edges, size)
    size = n
    if size >= size_min and edges_left * den >= num * size:
        best = (0, edges_left, size)
    while size > max(1, size_min):
        while True:
            d, v = heapq.heappop(heap)
            if alive[v] and d == deg[v]:
                break
        alive[v] = False
        removal_order.append(v)
        for w in columns[starts[v]:starts[v + 1]]:
            if alive[w]:
                deg[w] -= 1
                edges_left -= 1
                heapq.heappush(heap, (deg[w], w))
        size -= 1
        if edges_left * den >= num * size and (best is None or edges_left * best[2] > best[1] * size):
            best = (len(removal_order), edges_left, size)
    if best is None:
        return None
    keep = np.ones(n, dtype=bool)
    keep[removal_order[: best[0]]] = False
    edges = h.edge_array()
    if int(np.count_nonzero(keep[edges[:, 0]] & keep[edges[:, 1]])) != best[1]:
        raise AssertionError("peeling lost track of the prefix edge count")
    return tuple(np.flatnonzero(keep).tolist()), Fraction(best[1], best[2])


def reasonable_candidate_search(
    g: Graph, g_bar: Graph, params: ModelParams, config: EstimatorConfig
) -> tuple[Bijection, CandidateCheck] | None:
    """Some accepted candidate matching, or None.

    The candidates are every matching in lexicographic order for
    n <= ENUMERATION_N_MAX, otherwise the state after each hill-climb
    sweep; the acceptance test runs on those passing a cheap pre-filter (a
    qualifying subset needs at least target * size_min intersection
    edges).  Absence is a legitimate outcome.
    """
    size_min = max(1, math.ceil(config.c_lambda_hat * check_sizes(g, g_bar, params)))
    min_edges = (config.rho_hat - config.eta) * size_min
    if g.n <= ENUMERATION_N_MAX:
        blocks = _counted_blocks(g, g_bar, _matchings(g.n, ENUMERATION_N_MAX))
        candidates = (pair for block, counts in blocks for pair in zip(block, counts))
    else:
        sweeps = _transposition_sweeps(g, g_bar, stream(config.seed, 1), config.budget)
        candidates = ((fwd, count) for fwd, count, _ in sweeps)
    for perm, count in candidates:
        if count >= min_edges:
            pi = Bijection(perm)
            check = reasonable_candidate_check(pi, g, g_bar, config)
            if check.accepted:
                return pi, check
    return None


# -- total variation ------------------------------------------------------------------


def _pair_perm_maps(n: int) -> np.ndarray:
    """One row per permutation of range(n), in lexicographic order: entry k
    is the index of the image of the k-th vertex pair (pairs u < v in
    lexicographic order, as np.triu_indices lists them)."""
    us, vs = np.triu_indices(n, k=1)
    pair_index = np.zeros((n, n), dtype=np.int64)
    pair_index[us, vs] = pair_index[vs, us] = np.arange(us.size)
    perms = _matchings(n, COSTLY_ENUMERATION_N_MAX)
    return pair_index[perms[:, us], perms[:, vs]]


def tv_exact(params: ModelParams) -> float:
    """Exact TV(null, correlated) by enumerating every graph pair."""
    n = params.n
    if n > TV_EXACT_N_MAX:
        raise ValueError(f"exact TV limited to n <= {TV_EXACT_N_MAX}")
    perm_maps = _pair_perm_maps(n)
    n_pairs = perm_maps.shape[1]
    q = params.p * params.s
    n_graphs = 1 << n_pairs
    bits = ((np.arange(n_graphs)[:, None] >> np.arange(n_pairs)[None, :]) & 1).astype(bool)
    # null: product of marginals
    counts = bits.sum(axis=1)
    log_pg = counts * math.log(q) + (n_pairs - counts) * math.log(1.0 - q)
    p_null = np.exp(log_pg[:, None] + log_pg[None, :])
    # correlated: average over pi* of the per-pair joint pmf
    q_corr = np.zeros((n_graphs, n_graphs))
    lookup = pair_pmf(params.p, params.s)
    for mapped in perm_maps:
        contrib = lookup[bits[:, None, :].astype(int), bits[None, :, mapped].astype(int)]
        q_corr += contrib.prod(axis=2)
    q_corr /= len(perm_maps)
    return 0.5 * float(np.abs(p_null - q_corr).sum())


def tv_mc(params: ModelParams, replicates: int, seed: int) -> tuple[float, float]:
    """Monte Carlo TV estimate E_null[(1 - L)_+] and its standard error,
    with the exact mixture likelihood ratio L (n <= COSTLY_ENUMERATION_N_MAX)."""
    n = params.n
    if check_int("replicate count", replicates) < 2:
        raise ValueError("need at least two replicates")
    perm_maps = _pair_perm_maps(n)
    consts = LikelihoodConstants.from_params(params.p, params.s)
    table = consts.ll_table()
    vals = np.empty(replicates)
    us, vs = np.triu_indices(n, k=1)
    for r in range(replicates):
        g, g_bar = sample_independent(params, seed, r)
        x = g.has_edges(us, vs).astype(int)
        y = g_bar.has_edges(us, vs).astype(int)
        ell = table[x[None, :], y[perm_maps]]
        l_mix = float(ell.prod(axis=1).mean())
        vals[r] = max(0.0, 1.0 - l_mix)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicates))


# -- truncated posterior masses ---------------------------------------------------------


def truncated_mass_f(
    g: Graph,
    g_bar: Graph,
    a: set[int],
    sigma: dict[int, int],
    params: ModelParams,
    consts: AdmissibilityConstants,
) -> float:
    """Sum over extensions pi of sigma of P^{|H_pi edges|} Q^{|E|+|Ebar|}
    R^{C(n,2)}, truncated to admissible H_pi in which a is a good set.

    Verification-scale only (n <= COSTLY_ENUMERATION_N_MAX): the sum runs
    over the (n-|A|)! extensions outright, in lexicographic order.
    """
    a_sorted = vertex_set(check_sizes(g, g_bar, params, consts), a).tolist()
    if vertex_set(g.n, sigma).tolist() != a_sorted or vertex_set(g.n, sigma.values()).size != len(a_sorted):
        raise ValueError("sigma must map a one-to-one into range(n)")
    perms = _matchings(g.n, COSTLY_ENUMERATION_N_MAX)
    extensions = perms[(perms[:, a_sorted] == [sigma[v] for v in a_sorted]).all(axis=1)]
    return float(_truncated_mass_per_image(g, g_bar, a_sorted, extensions, params, consts)[0])


def truncated_mass_g(
    g: Graph,
    g_bar: Graph,
    a: set[int],
    params: ModelParams,
    consts: AdmissibilityConstants,
) -> float:
    """max over embeddings sigma of A into the matched side of the
    truncated mass f."""
    perms = _matchings(check_sizes(g, g_bar, params, consts), COSTLY_ENUMERATION_N_MAX)
    return float(_truncated_mass_per_image(g, g_bar, vertex_set(g.n, a).tolist(), perms, params, consts).max())


def _truncated_mass_per_image(
    g: Graph, g_bar: Graph, a: list[int], perms: np.ndarray, params: ModelParams, consts: AdmissibilityConstants
) -> np.ndarray:
    """The truncated mass of each image of the vertices a among the rows of
    perms, images in lexicographic order; each image's terms are summed one
    by one in row order, as a sum over its extensions alone would be."""
    lik = LikelihoodConstants.from_params(params.p, params.s)
    base = (g.edge_count + g_bar.edge_count) * lik.log_q + math.comb(g.n, 2) * lik.log_r
    terms = np.zeros(len(perms))
    for k, row in enumerate(perms):
        h = intersection_graph(g, g_bar, Bijection(row))
        report = check_admissible(h, consts)
        if report.undecided:
            raise RuntimeError("admissibility undecided inside truncated mass")
        if report.admissible and is_good_set(h, set(a), consts.c_big):
            terms[k] = math.exp(h.edge_count * lik.log_p + base)
    _, image = np.unique(perms[:, a], axis=0, return_inverse=True)
    return np.bincount(image.ravel(), weights=terms)
