"""Exact exponential moments of orbit edge counts and related bounds.

For a length-m chain of pair variables with pinned boundary values, the
three boundary-conditioned moments a_m, b_m, c_m (boundary (0,0), (1,1),
(0,1)) obey linear recurrences whose characteristic polynomial is

    x^2 - (1 + p s^2 nu) x + (p s^2 - p^2 s^2) nu,    nu = e^theta - 1.

A k-cycle orbit has moment exactly mu1^k + mu2^k; a k-chain orbit has
moment (1-ps)^2 a_k + p^2 s^2 b_k + 2 ps (1-ps) c_k, equivalently
c1 mu1^k + c2 mu2^k with coefficients pinned by the k = 1, 2 values.
Every closed form here is paired with an independent computation route, and
every moment read, log_cycle_moment and log_chain_moment, asserts in log
space that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, floor, inf, isfinite, lgamma, log, log1p
from typing import Sequence

import numpy as np

from .graphs import ModelParams, check_p_s, pair_pmf
from .orbits import OrbitDecomposition

__all__ = [
    "ConsistencyError",
    "InfeasiblePolytopeError",
    "MomentCoefficients",
    "TailRateParams",
    "PolytopePoint",
    "chain_recurrence",
    "char_roots",
    "cycle_moment",
    "chain_moment",
    "log_cycle_moment",
    "log_chain_moment",
    "markov_tail_bound",
    "tail_rates",
    "combinatorial_minimum",
    "combinatorial_minimum_oracle",
    "permutation_count_bound",
    "sample_cycle_orbit_edges",
    "sample_chain_orbit_edges",
]

_REL_TOL = 1e-9


class ConsistencyError(AssertionError):
    """Two supposedly-equal computation routes disagreed."""


class InfeasiblePolytopeError(ValueError):
    """The constraint polytope is empty."""


def char_roots(theta: float, p: float, s: float) -> tuple[float, float]:
    """Roots (mu1, mu2) of the characteristic polynomial, mu1 >= mu2.

    The discriminant is non-negative for valid parameters; it is taken
    relative to b^2, as 1 - 4 (c/b)/b, so it stays finite at any theta.
    mu2 = c / mu1 (Vieta) keeps full precision when small.
    """
    check_p_s(p, s)
    nu = exp(theta) - 1.0
    b = 1.0 + p * s * s * nu
    c = (p * s * s - p * p * s * s) * nu
    disc = 1.0 - 4.0 * (c / b) / b
    if disc < 0:
        if disc < -1e-12:
            raise AssertionError(f"negative discriminant {disc} for valid parameters")
        disc = 0.0
    mu1 = 0.5 * b + 0.5 * b * disc**0.5
    return mu1, c / mu1


def chain_recurrence(m: int, theta: float, p: float, s: float) -> tuple[float, float, float, float]:
    """Boundary-conditioned moments (a_m, b_m, c_m), seeds a1=1, b1=e^theta,
    c1=1, returned as (a, b, c, logscale): the moments are the triple times
    exp(logscale), and the triple's largest entry stays at most 1e100 so
    no theta * m overflows.

    Appending one internal correlated pair, weighted by graphs.pair_pmf,
    maps the triple by a 3x3 transfer matrix M, so the m-th triple is
    M^(m-1) applied to the seeds.  The power is taken by repeated squaring
    of e^-max(theta, 0) M, O(log m) products, each divided by its largest
    entry with the divisor kept in log.  c has a second update rule
    (extending the other end of the chain); the two rules must agree on
    every triple, and it suffices that they agree on the seeds and their
    first two images, since by Cayley-Hamilton M^j for j >= 3 is a
    combination of I, M and M^2.
    """
    check_p_s(p, s)
    if m < 1:
        raise ValueError("m must be at least 1")
    w, u = exp(-max(theta, 0.0)), exp(min(theta, 0.0))   # e^theta w = u, and one of them is 1
    ps = p * s
    (q00, q10), _ = pair_pmf(p, s).tolist()
    near, far = q10 * w + ps * s * u, q00 * w + ps * (1.0 - s) * u
    step = np.array([
        [(1.0 - ps) * w, 0.0, ps * w],
        [0.0, near, far],
        [0.0, ps * w, (1.0 - ps) * w],
    ])
    c_alt = np.array([far, 0.0, near])
    seeds = np.array([w, u, w])   # (a1, b1, c1) e^-max(theta, 0)
    image = seeds
    for _ in range(3):
        c_next, c_other = float(step[2] @ image), float(c_alt @ image)
        if abs(c_next - c_other) > 1e-9 * max(c_next, c_other):
            raise ConsistencyError(f"chain recurrence c-updates disagree: {c_next} vs {c_other}")
        image = step @ image
    power, power_log = np.eye(3), 0.0
    base, base_log = step, 0.0
    k = m - 1
    while k:
        if k & 1:
            power = power @ base
            peak = power.max()
            power, power_log = power / peak, power_log + base_log + log(peak)
        k >>= 1
        if k:
            base = base @ base
            peak = base.max()
            base, base_log = base / peak, 2.0 * base_log + log(peak)
    a, b, c = (power @ seeds).tolist()
    return a, b, c, power_log + m * max(theta, 0.0)


def _check_routes(what: str, k: int, closed: float, combo: float) -> None:
    """Raise ConsistencyError unless the two logs agree to _REL_TOL,
    relative to their magnitude."""
    if not abs(closed - combo) <= _REL_TOL * max(1.0, abs(closed)):
        raise ConsistencyError(f"{what} moment routes disagree at k={k}: log {closed} vs {combo}")


def log_cycle_moment(k: int, theta: float, p: float, s: float) -> float:
    """log of the k-cycle moment, log(mu1^k + mu2^k), stable for large
    k * theta.  Checked against the boundary combination
    q00 a_k + q11 b_k + 2 q10 c_k with q = graphs.pair_pmf; the two logs
    must agree to 1e-9."""
    if k < 1:
        raise ValueError("k must be at least 1")
    mu1, mu2 = char_roots(theta, p, s)   # mu1 >= b/2 >= 1/2
    closed = k * log(mu1) + log1p((mu2 / mu1) ** k)
    a, b, c, logscale = chain_recurrence(k, theta, p, s)
    (q00, q10), (_, q11) = pair_pmf(p, s).tolist()
    _check_routes("cycle", k, closed, log(q00 * a + q11 * b + 2.0 * q10 * c) + logscale)
    return closed


def cycle_moment(k: int, theta: float, p: float, s: float) -> float:
    """Exponential moment of the edge count of a k-cycle orbit, mu1^k + mu2^k
    (inf past the float range); see log_cycle_moment."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_cycle_moment(k, theta, p, s)))


@dataclass(frozen=True)
class MomentCoefficients:
    """Roots and chain coefficients for one (theta, p, s).

    c1, c2 solve c1 mu1 + c2 mu2 = A1 and c1 mu1^2 + c2 mu2^2 = A2 where
    A1, A2 are the exact 1- and 2-chain moments.
    """

    mu1: float
    mu2: float
    c1: float
    c2: float

    @classmethod
    def from_params(cls, theta: float, p: float, s: float) -> "MomentCoefficients":
        nu = exp(theta) - 1.0
        mu1, mu2 = char_roots(theta, p, s)
        a1 = 1.0 + p * p * s * s * nu
        a2 = 1.0 + 2.0 * p * p * s * s * nu + p**3 * s**4 * nu * nu
        if mu1 == mu2:
            raise ValueError("coincident roots; chain coefficients undefined")
        c1 = (a2 - mu2 * a1) / (mu1 * (mu1 - mu2))
        c2 = (mu1 * a1 - a2) / (mu2 * (mu1 - mu2)) if mu2 != 0.0 else 0.0
        return cls(mu1=mu1, mu2=mu2, c1=c1, c2=c2)


def log_chain_moment(k: int, theta: float, p: float, s: float) -> float:
    """log of the k-chain moment via the boundary combination
    (1-ps)^2 a_k + p^2 s^2 b_k + 2 ps(1-ps) c_k.  Checked against
    c1 mu1^k + c2 mu2^k from the pinned coefficients, taken in log space as
    k log mu1 + log(c1 + c2 (mu2/mu1)^k); the two logs must agree to 1e-9.
    Past theta of about 355 the coefficients overflow and the check is
    skipped."""
    if k < 1:
        raise ValueError("k must be at least 1")
    a, b, c, logscale = chain_recurrence(k, theta, p, s)
    ps = p * s
    combo = log((1.0 - ps) ** 2 * a + ps * ps * b + 2.0 * ps * (1.0 - ps) * c) + logscale
    coef = MomentCoefficients.from_params(theta, p, s)
    if isfinite(coef.c1) and isfinite(coef.c2):
        inner = coef.c1 + coef.c2 * (coef.mu2 / coef.mu1) ** k
        _check_routes("chain", k, k * log(coef.mu1) + (log(inner) if inner > 0.0 else -inf), combo)
    return combo


def chain_moment(k: int, theta: float, p: float, s: float) -> float:
    """Exponential moment of the edge count of a k-chain orbit (inf past
    the float range); see log_chain_moment."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_chain_moment(k, theta, p, s)))


# -- tail bounds ------------------------------------------------------------


@dataclass(frozen=True)
class TailRateParams:
    """Exponents alpha_k = (k-1)/k for short cycles; alpha_{N+1} caps at alpha."""

    alpha: float
    n_cutoff: int
    alpha_k: tuple[float, ...]   # alpha_1 .. alpha_{N+1}


def tail_rates(alpha: float, n_cutoff: int) -> TailRateParams:
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if n_cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    rates = tuple((k - 1) / k for k in range(1, n_cutoff + 1))
    rates = rates + (min(alpha, n_cutoff / (n_cutoff + 1)),)
    return TailRateParams(alpha=alpha, n_cutoff=n_cutoff, alpha_k=rates)


def markov_tail_bound(
    orbit_class: str,
    x: float,
    census: OrbitDecomposition | dict[int, tuple[int, int, int]],
    params: "ModelParams",
    alpha: float,
    n_cutoff: int,
    k: int | None = None,
) -> float:
    """Markov upper bound on the tail of one orbit-class edge count.

    Uses the pre-simplification products e^{-theta x} * prod(moment)^count
    with the prescribed theta per class (special: log n - log log n;
    short k-cycles: alpha_k log n - log lambda, lambda = n p s^2; long:
    alpha log n, or the alpha_{N+1} choice at alpha = 1).  theta is
    clamped at 0, where the bound degenerates to a valid (vacuous) >= 1
    value.
    """
    if x < 0:
        raise ValueError("tail level must be non-negative")
    n, p, s = params.n, params.p, params.s
    if n < 3:
        raise ValueError("n must be at least 3")
    cen = census.census if isinstance(census, OrbitDecomposition) else dict(census)
    lam = params.lam
    rates = tail_rates(alpha, n_cutoff)
    if orbit_class == "special":
        theta = log(n) - log(log(n))
    elif orbit_class == "k_cycle":
        if k is None or not (1 <= k <= n_cutoff):
            raise ValueError("k_cycle bound needs 1 <= k <= cutoff")
        theta = rates.alpha_k[k - 1] * log(n) - log(lam)
    elif orbit_class == "long":
        theta = alpha * log(n) if alpha < 1.0 else rates.alpha_k[-1] * log(n) - log(lam)
    else:
        raise ValueError(f"unknown orbit class {orbit_class!r}")
    theta = max(theta, 0.0)

    log_bound = -theta * x
    for length, (s_cnt, l_cnt, t_cnt) in cen.items():
        if orbit_class == "special" and s_cnt:
            log_bound += s_cnt * log_cycle_moment(length, theta, p, s)
        elif orbit_class == "k_cycle" and length == k and l_cnt:
            log_bound += l_cnt * log_cycle_moment(length, theta, p, s)
        elif orbit_class == "long":
            if length > n_cutoff and l_cnt:
                log_bound += l_cnt * log_cycle_moment(length, theta, p, s)
            if t_cnt:
                log_bound += t_cnt * log_chain_moment(length, theta, p, s)
    with np.errstate(over="ignore"):
        return float(np.exp(log_bound))


# -- the combinatorial minimum ----------------------------------------------


@dataclass(frozen=True)
class PolytopePoint:
    """A point (x_0, ..., x_{N+1}) of the constraint polytope."""

    x: tuple[float, ...]

    @property
    def x0(self) -> float:
        return self.x[0]


def _objective(T: int, nks: Sequence[int], point: Sequence[float], rates: tuple[float, ...]) -> float:
    # rates = (alpha_1, ..., alpha_{N+1}); point = (x_0, ..., x_{N+1})
    return sum(nks) - T + point[0] + sum(r * xv for r, xv in zip(rates, point[1:]))


def combinatorial_minimum(
    T: int,
    nks: Sequence[int],
    rho: float,
    eta: float,
    alpha: float,
) -> tuple[float, PolytopePoint]:
    """Minimum of sum(n_k) - T + x_0 + sum(alpha_k x_k) over the relaxation.

    Constraints: 0 <= x_i <= rho T, sum(x_i) >= (rho - eta) T, and prefix
    caps sum_{k<=m} x_k <= (rho + eta) sum_{k<=m} k n_k for m <= N.  The
    costs 0 = alpha_1 <= ... <= alpha_{N+1} <= 1 = cost(x_0) are increasing
    and the caps are laminar, so the cheapest-first water-fill is exact; it
    reproduces the closed-form point x_0 = 0, x_k = (rho+eta) k n_k,
    x_{N+1} = ((rho-eta)T - sum) v 0 whenever that point is feasible.
    The rates are tail_rates(alpha, N), so alpha outside (0, 1] raises
    ValueError.
    """
    big_n = len(nks)
    if big_n < 1:
        raise ValueError("need at least one short-cycle count")
    if any(v < 0 for v in nks):
        raise ValueError("cycle counts must be non-negative")
    if sum(k * v for k, v in zip(range(1, big_n + 1), nks)) > T:
        raise ValueError("cycle counts exceed the vertex budget T")
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    rates = tail_rates(alpha, len(nks)).alpha_k
    box = rho * T
    need = (rho - eta) * T
    xs = [0.0] * (big_n + 2)   # x_0, x_1, ..., x_{N+1}
    prefix_caps = []
    acc = 0.0
    for k in range(1, big_n + 1):
        acc += (rho + eta) * k * nks[k - 1]
        prefix_caps.append(acc)
    # Global cost order; the chain coordinates keep their nested order among
    # themselves because alpha_k = (k-1)/k increases, but the pooled long
    # coordinate can be cheaper than some of them when alpha is small.
    order = sorted(range(1, big_n + 2), key=lambda i: (rates[i - 1], i))
    cum_chain = 0.0
    for i in order + [0]:
        if need <= 1e-12:
            break
        if 1 <= i <= big_n:
            room = min(box, prefix_caps[i - 1] - cum_chain)
        else:
            room = box
        take = min(max(room, 0.0), need)
        xs[i] = take
        need -= take
        if 1 <= i <= big_n:
            cum_chain += take
    if need > 1e-9:
        raise InfeasiblePolytopeError(
            f"cannot reach sum {(rho - eta) * T} within the caps (short by {need})"
        )
    point = PolytopePoint(x=tuple(xs))
    return _objective(T, nks, xs, rates), point


def combinatorial_minimum_oracle(
    T: int,
    nks: Sequence[int],
    rho: float,
    eta: float,
    alpha: float,
) -> tuple[float, PolytopePoint]:
    """Integer-lattice brute force: enumerate x_1..x_N under the prefix
    caps; the (x_{N+1}, x_0) completion per residual demand is itself a
    pre-scanned table over all x_{N+1} values.  Exponential; intended for
    T <= 30, N <= 3."""
    big_n = len(nks)
    rates = tail_rates(alpha, len(nks)).alpha_k
    rate_last = rates[-1]
    box = floor(rho * T)
    need_total = (rho - eta) * T
    best: tuple[float, tuple[int, ...]] | None = None

    prefix_caps = []
    acc = 0.0
    for k in range(1, big_n + 1):
        acc += (rho + eta) * k * nks[k - 1]
        prefix_caps.append(acc)

    # completion[r] = (cost, x_{N+1}, x_0) minimizing rate*x_{N+1} + x_0
    # over x_{N+1}, x_0 in [0, box] with x_{N+1} + x_0 >= r, by full scan
    max_need = max(0, ceil(need_total - 1e-9))
    completion: list[tuple[float, int, int] | None] = []
    for r in range(max_need + 1):
        entry = None
        for x_last in range(box + 1):
            x0 = max(0, r - x_last)
            if x0 > box:
                continue
            cost = rate_last * x_last + x0
            if entry is None or cost < entry[0] - 1e-15:
                entry = (cost, x_last, x0)
        completion.append(entry)

    def rec(k: int, cum: int, partial_cost: float, partial: list[int]) -> None:
        nonlocal best
        if k > big_n:
            rest = max(0, ceil(need_total - cum - 1e-9))
            entry = completion[rest]
            if entry is None:
                return
            cost, x_last, x0 = entry
            val = partial_cost + cost
            if best is None or val < best[0] - 1e-15:
                best = (val, (x0, *partial, x_last))
            return
        cap = min(box, floor(prefix_caps[k - 1] - cum + 1e-9))
        for xv in range(0, max(cap, -1) + 1):
            partial.append(xv)
            rec(k + 1, cum + xv, partial_cost + rates[k - 1] * xv, partial)
            partial.pop()

    rec(1, 0, 0.0, [])
    if best is None:
        raise InfeasiblePolytopeError("no lattice point satisfies the constraints")
    value = best[0] + sum(nks) - T
    return value, PolytopePoint(x=tuple(float(v) for v in best[1]))


def permutation_count_bound(n: int, T: int, nks: Sequence[int]) -> float:
    """Log of the bound n(n-1)...(n-T+1) / prod(k^{n_k} n_k!) on the number
    of embeddings of a T-set whose induced permutation has n_k short
    k-cycles inside it."""
    if not (0 <= T <= n):
        raise ValueError("need 0 <= T <= n")
    if sum(k * v for k, v in zip(range(1, len(nks) + 1), nks)) > T:
        raise ValueError("cycle counts exceed T")
    out = lgamma(n + 1) - lgamma(n - T + 1)
    for k, v in zip(range(1, len(nks) + 1), nks):
        out -= v * log(k) + lgamma(v + 1)
    return out


# -- Monte Carlo oracles ------------------------------------------------------


def sample_cycle_orbit_edges(
    k: int, p: float, s: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample |H-edges| of a k-cycle orbit: pairs share parent indicators
    cyclically, edge i present iff I_i J_i I_{i-1} Jbar_i all fire."""
    I = rng.random((size, k)) < p
    J = rng.random((size, k)) < s
    Jb = rng.random((size, k)) < s
    g = I & J
    gbar = np.roll(I, 1, axis=1) & Jb
    return (g & gbar).sum(axis=1)


def sample_chain_orbit_edges(
    k: int, p: float, s: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample |H-edges| of a k-chain orbit: k-1 internal correlated pairs
    plus independent Bern(ps) boundary values at both ends."""
    ps = p * s
    I = rng.random((size, k - 1)) < p if k > 1 else np.zeros((size, 0), dtype=bool)
    J = rng.random((size, k - 1)) < s if k > 1 else I
    Jb = rng.random((size, k - 1)) < s if k > 1 else I
    g0 = rng.random(size) < ps
    gbar_end = rng.random(size) < ps
    g = np.column_stack([g0, I & J])              # G_0 .. G_{k-1}
    gbar = np.column_stack([I & Jb, gbar_end])    # Gbar_1 .. Gbar_k
    return (g & gbar).sum(axis=1)
