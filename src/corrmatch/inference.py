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
from itertools import combinations, islice, permutations

import numpy as np

from .admissibility import AdmissibilityConstants, check_admissible, is_good_set
from .density import densest_subgraph_exact
from .graphs import (
    Bijection,
    Graph,
    ModelParams,
    check_p_s,
    intersection_graph,
    pair_pmf,
    sample_independent,
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

_POSTERIOR_N_MAX = 7
_EXHAUSTIVE_N_MAX = 9       # the MAP search enumerates all n! matchings up to here
_POSTERIOR_W_CHUNK = 512    # reference matchings per block in posterior_w


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
    n = g.n
    if g_bar.n != n or pi.n != n:
        raise ValueError("size mismatch")
    us, vs = np.triu_indices(n, k=1)
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
    n = g.n
    pmf = pair_pmf(params.p, params.s)
    us, vs = np.triu_indices(n, k=1)
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
    total = g.n * (g.n - 1) // 2
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

    @property
    def entries(self) -> list[tuple[Bijection, float]]:
        return [(Bijection(row), float(p)) for row, p in zip(self.perms, self.probs)]

    def probability_of(self, pi: Bijection) -> float:
        idx = np.flatnonzero((self.perms == pi.forward).all(axis=1))
        return float(self.probs[idx[0]])


def _intersection_counts(g: Graph, g_bar: Graph, perms: np.ndarray) -> np.ndarray:
    """|edges of H_pi| for a batch of permutations (rows)."""
    us, vs = g.edge_array().T
    return g_bar.has_edges(perms[:, us], perms[:, vs]).sum(axis=1)


def exact_posterior(g: Graph, g_bar: Graph, params: ModelParams) -> PosteriorTable:
    """Posterior of the hidden matching given (G, Gbar), by enumerating all
    n! matchings (n <= 7).  Weights depend on pi only through the
    intersection-edge count."""
    n = g.n
    if n > _POSTERIOR_N_MAX:
        raise ValueError(f"exact posterior limited to n <= {_POSTERIOR_N_MAX}")
    if g_bar.n != n or params.n != n:
        raise ValueError("size mismatch")
    perms = np.array(list(permutations(range(n))), dtype=np.int8)
    n11 = _intersection_counts(g, g_bar, perms)
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
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    threshold = math.ceil(delta * table.n)
    agree = (table.perms == pi_tilde.forward.astype(np.int8)).sum(axis=1)
    return float(table.probs[agree >= threshold].sum())


def posterior_w(table: PosteriorTable, delta: float) -> float:
    """max over reference matchings of the delta-overlap posterior mass
    (exhaustive over all n! references)."""
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    threshold = math.ceil(delta * table.n)
    best = 0.0
    perms = table.perms
    for start in range(0, len(perms), _POSTERIOR_W_CHUNK):
        block = perms[start:start + _POSTERIOR_W_CHUNK]
        agree = (perms[None, :, :] == block[:, None, :]).sum(axis=2)
        masses = np.where(agree >= threshold, table.probs[None, :], 0.0).sum(axis=1)
        best = max(best, float(masses.max()))
    return best


# -- estimators -------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the estimators and the reasonable-candidate test, and
    the one place that states their defaults and ranges.

    rho_hat is the density level, from the density module; c_lambda_hat
    the size floor as a fraction of n, in (0, 1]; eta the density margin,
    finite and > 0; budget the hill climb's move budget, >= 1.  In the
    supercritical regime the proof takes 0 < eta < (rho_hat - 1/alpha)/4.
    """

    rho_hat: float
    c_lambda_hat: float = 0.3
    eta: float = 0.15
    budget: int = 50_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.rho_hat):
            raise ValueError("rho_hat must be finite")
        for name in ("c_lambda_hat", "eta", "budget"):
            self.check_range(name, getattr(self, name))

    @staticmethod
    def check_range(name: str, value: float) -> None:
        """Raise ValueError unless value lies in the range of the setting
        `name` (c_lambda_hat, eta or budget)."""
        in_range, what = {
            "c_lambda_hat": (0.0 < value <= 1.0, "lie in (0, 1]"),
            "eta": (0.0 < value < math.inf, "be finite and positive"),
            "budget": (value >= 1, "be at least 1"),
        }[name]
        if not in_range:
            raise ValueError(f"{name} must {what}, got {value!r}")


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

    Exhaustive (lexicographic argmax) up to n = 9 (_EXHAUSTIVE_N_MAX);
    above, transposition hill climbing with restarts under the move
    budget.  An empty g makes every matching optimal and the identity wins
    the lexicographic tie-break.
    """
    _assert_p_above_one(params)
    if g.n > _EXHAUSTIVE_N_MAX:
        return _hill_climb(g, g_bar, config)
    best_count, best_perm = -1, None
    for block, counts in _counted_permutations(g, g_bar):
        idx = int(counts.argmax())   # first maximum = lexicographically least
        if counts[idx] > best_count:
            best_count, best_perm = int(counts[idx]), block[idx]
    return MapEstimate(
        pi=Bijection(best_perm),
        intersection_edges=best_count,
        exhaustive=True,
        budget_exhausted=False,
    )


def _counted_permutations(g: Graph, g_bar: Graph):
    """Every matching in lexicographic order, in blocks of up to 8! rows,
    each block with its intersection-edge counts."""
    perms = permutations(range(g.n))
    for block in iter(lambda: list(islice(perms, 40320)), []):
        yield block, _intersection_counts(g, g_bar, np.array(block, dtype=np.int16))


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
    max_density: Fraction
    certificate: tuple[int, ...] | None
    certificate_density: Fraction | None


def reasonable_candidate_check(
    pi: Bijection, g: Graph, g_bar: Graph, config: EstimatorConfig
) -> CandidateCheck:
    """Both conditions of the candidate test on H_pi.

    (i) the global max density stays at most rho_hat + eta;
    (ii) some subset of size >= ceil(c_lambda_hat n) reaches density
    rho_hat - eta.  For (ii) the global maximizer is tried first, then
    min-degree peeling of the whole graph down to the size floor; a
    returned certificate is sound, a miss is possible.
    """
    h = intersection_graph(g, g_bar, pi)
    dens = densest_subgraph_exact(h)
    cap_ok = float(dens.density) <= config.rho_hat + config.eta
    size_min = max(1, math.ceil(config.c_lambda_hat * h.n))
    target = config.rho_hat - config.eta
    certificate = None
    cert_density = None
    if len(dens.best_subset) >= size_min and dens.density >= target:
        certificate = dens.best_subset
        cert_density = dens.density
    else:
        peel = _peel_best_subset(h, size_min, target)
        if peel is not None:
            certificate, cert_density = peel
    dense_ok = certificate is not None
    return CandidateCheck(
        accepted=cap_ok and dense_ok,
        density_cap_ok=cap_ok,
        dense_subset_ok=dense_ok,
        max_density=dens.density,
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

    The candidates are every matching in lexicographic order for n <= 9,
    otherwise the state after each hill-climb sweep; the acceptance test
    runs on those passing a cheap pre-filter (a qualifying subset needs at
    least target * size_min intersection edges).  Absence is a legitimate
    outcome.
    """
    size_min = max(1, math.ceil(config.c_lambda_hat * g.n))
    min_edges = (config.rho_hat - config.eta) * size_min
    if g.n <= _EXHAUSTIVE_N_MAX:
        candidates = (
            pair for block, counts in _counted_permutations(g, g_bar) for pair in zip(block, counts)
        )
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
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    return pair_index[perms[:, us], perms[:, vs]]


def tv_exact(params: ModelParams) -> float:
    """Exact TV(null, correlated) by enumerating every graph pair (n <= 4)."""
    n = params.n
    if n > 4:
        raise ValueError("exact TV limited to n <= 4")
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
    """Monte Carlo TV estimate E_null[(1 - L)_+] with the exact mixture
    likelihood ratio L (n <= 7), plus its standard error."""
    n = params.n
    if n > _POSTERIOR_N_MAX:
        raise ValueError(f"mixture likelihood enumeration limited to n <= {_POSTERIOR_N_MAX}")
    if replicates < 2:
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

    Verification-scale only (n <= 7): the sum enumerates the (n-|A|)!
    extensions outright.
    """
    n = g.n
    if n > _POSTERIOR_N_MAX:
        raise ValueError(f"truncated mass limited to n <= {_POSTERIOR_N_MAX}")
    a_sorted = sorted(int(v) for v in a)
    if set(sigma.keys()) != set(a_sorted):
        raise ValueError("sigma must be defined exactly on a")
    if len(set(sigma.values())) != len(a_sorted):
        raise ValueError("sigma must be injective")
    lik = LikelihoodConstants.from_params(params.p, params.s)
    rest = [v for v in range(n) if v not in set(a_sorted)]
    targets = [w for w in range(n) if w not in set(sigma.values())]
    total = n * (n - 1) // 2
    base = (g.edge_count + g_bar.edge_count) * lik.log_q + total * lik.log_r
    out = 0.0
    for image in permutations(targets):
        fwd = np.empty(n, dtype=np.int64)
        for v in a_sorted:
            fwd[v] = sigma[v]
        for v, w in zip(rest, image):
            fwd[v] = w
        pi = Bijection(fwd)
        h = intersection_graph(g, g_bar, pi)
        report = check_admissible(h, consts)
        if report.undecided:
            raise RuntimeError("admissibility undecided inside truncated mass")
        if not report.admissible:
            continue
        if not is_good_set(h, set(a_sorted), consts.c_big):
            continue
        out += math.exp(h.edge_count * lik.log_p + base)
    return out


def truncated_mass_g(
    g: Graph,
    g_bar: Graph,
    a: set[int],
    params: ModelParams,
    consts: AdmissibilityConstants,
) -> float:
    """max over embeddings sigma of A into the matched side of the
    truncated mass f."""
    n = g.n
    a_sorted = sorted(int(v) for v in a)
    best = 0.0
    for image in permutations(range(n), len(a_sorted)):
        sigma = dict(zip(a_sorted, image))
        best = max(best, truncated_mass_f(g, g_bar, a, sigma, params, consts))
    return best
