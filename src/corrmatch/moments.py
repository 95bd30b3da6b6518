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
Every order (k, m, T, n, the cutoff N) and short-cycle count n_k goes
through graphs.check_int, and every real through graphs.check_real with
its interval: theta in [-inf, THETA_MAX] (e^theta a float), x in
[0, inf), alpha in (0, 1], rho in (1, inf) and eta in [0, inf).  The tail
functions return plain tuples.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, inf, isfinite, lgamma, log, log1p
from typing import Sequence

import numpy as np

from .graphs import ModelParams, check_int, check_p_s, check_real, check_sizes, pair_pmf
from .orbits import OrbitDecomposition

__all__ = [
    "ConsistencyError",
    "InfeasiblePolytopeError",
    "MomentCoefficients",
    "chain_recurrence",
    "char_roots",
    "cycle_moment",
    "chain_moment",
    "log_cycle_moment",
    "log_chain_moment",
    "markov_tail_bound",
    "tail_rates",
    "combinatorial_minimum",
    "permutation_count_bound",
    "sample_cycle_orbit_edges",
    "sample_chain_orbit_edges",
]

_REL_TOL = 1e-9
THETA_MAX = log(sys.float_info.max)   # the largest theta whose e^theta is a float
_THETA = f"[-inf, {THETA_MAX!r}]"


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
    check_real("theta", theta, _THETA)
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
    m = check_int("m", m, 1)
    check_real("theta", theta, _THETA)
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
    k = check_int("k", k, 1)
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
        mu1, mu2 = char_roots(theta, p, s)
        nu = exp(theta) - 1.0
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
    k = check_int("k", k, 1)
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


def tail_rates(alpha: float, n_cutoff: int) -> tuple[float, ...]:
    """The exponents (alpha_1, ..., alpha_{N+1}): alpha_k = (k-1)/k for the
    short cycles, and alpha_{N+1} = min(alpha, N/(N+1)) for the long ones."""
    check_real("alpha", alpha, "(0, 1]")
    n_cutoff = check_int("n_cutoff", n_cutoff, 1)
    rates = tuple((k - 1) / k for k in range(1, n_cutoff + 1))
    return rates + (min(alpha, n_cutoff / (n_cutoff + 1)),)


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
    check_real("tail level", x, "[0, inf)")
    n, p, s = params.n, params.p, params.s
    if n < 3:
        raise ValueError("n must be at least 3")
    if isinstance(census, OrbitDecomposition):
        check_sizes(census, params)
    cen = census.census if isinstance(census, OrbitDecomposition) else dict(census)
    lam = params.lam
    rates = tail_rates(alpha, n_cutoff)
    if orbit_class == "special":
        theta = log(n) - log(log(n))
    elif orbit_class == "k_cycle":
        if k is None or check_int("k", k, 1) > n_cutoff:
            raise ValueError("k_cycle bound needs 1 <= k <= cutoff")
        theta = rates[k - 1] * log(n) - log(lam)
    elif orbit_class == "long":
        theta = alpha * log(n) if alpha < 1.0 else rates[-1] * log(n) - log(lam)
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


def _cycle_counts(T: int, nks: Sequence[int]) -> tuple[int, ...]:
    """The short-cycle counts (n_1, ..., n_N) as ints >= 0 whose cycles fit
    in T vertices (sum k n_k <= T), else ValueError."""
    counts = tuple(check_int("cycle count", v, 0) for v in nks)
    if sum(k * v for k, v in enumerate(counts, 1)) > T:
        raise ValueError("cycle counts exceed the vertex budget T")
    return counts


def combinatorial_minimum(
    T: int,
    nks: Sequence[int],
    rho: float,
    eta: float,
    alpha: float,
) -> tuple[float, tuple[float, ...]]:
    """Minimum of sum(n_k) - T + x_0 + sum(alpha_k x_k) over the relaxation,
    returned as (value, x) with x = (x_0, ..., x_{N+1}) a minimising point.

    Constraints: 0 <= x_i <= rho T, sum(x_i) >= (rho - eta) T, and prefix
    caps sum_{k<=m} x_k <= (rho + eta) sum_{k<=m} k n_k for m <= N.  The
    costs 0 = alpha_1 <= ... <= alpha_{N+1} <= 1 = cost(x_0) are increasing
    and the caps are laminar, so the cheapest-first water-fill is exact; it
    reproduces the closed-form point x_0 = 0, x_k = (rho+eta) k n_k,
    x_{N+1} = ((rho-eta)T - sum) v 0 whenever that point is feasible.
    The rates are tail_rates(alpha, N), so alpha outside (0, 1] raises
    ValueError.
    """
    nks = _cycle_counts(check_int("T", T, 0), nks)
    big_n = len(nks)
    if big_n < 1:
        raise ValueError("need at least one short-cycle count")
    check_real("rho", rho, "(1, inf)")
    check_real("eta", eta, "[0, inf)")
    rates = tail_rates(alpha, big_n)
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
    return sum(nks) - T + xs[0] + sum(r * xv for r, xv in zip(rates, xs[1:])), tuple(xs)


def permutation_count_bound(n: int, T: int, nks: Sequence[int]) -> float:
    """Log of the bound n(n-1)...(n-T+1) / prod(k^{n_k} n_k!) on the number
    of embeddings of a T-set whose induced permutation has n_k short
    k-cycles inside it."""
    if check_int("T", T, 0) > check_int("n", n, 0):
        raise ValueError("need 0 <= T <= n")
    out = lgamma(n + 1) - lgamma(n - T + 1)
    for k, v in enumerate(_cycle_counts(T, nks), 1):
        out -= v * log(k) + lgamma(v + 1)
    return out


# -- Monte Carlo oracles ------------------------------------------------------


def sample_cycle_orbit_edges(
    k: int, p: float, s: float, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Sample |H-edges| of a k-cycle orbit: pairs share parent indicators
    cyclically, edge i present iff I_i J_i I_{i-1} Jbar_i all fire."""
    check_p_s(p, s)
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
    check_p_s(p, s)
    ps = p * s
    I = rng.random((size, k - 1)) < p if k > 1 else np.zeros((size, 0), dtype=bool)
    J = rng.random((size, k - 1)) < s if k > 1 else I
    Jb = rng.random((size, k - 1)) < s if k > 1 else I
    g0 = rng.random(size) < ps
    gbar_end = rng.random(size) < ps
    g = np.column_stack([g0, I & J])              # G_0 .. G_{k-1}
    gbar = np.column_stack([I & Jb, gbar_end])    # Gbar_1 .. Gbar_k
    return (g & gbar).sum(axis=1)
