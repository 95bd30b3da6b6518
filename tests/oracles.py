"""Oracles that only the tests call: brute forces, lattice scans, small
conveniences over package objects, and the exact finite-n expectations of
G(n, p) that the model-level tests compare the samplers and enumerators
with.  Each former method of a package class is a function of its object
here, with the method's body."""

from __future__ import annotations

import math
from fractions import Fraction
from math import ceil, comb, floor, perm
from typing import Sequence

import numpy as np

from corrmatch.admissibility import AdmissibilityConstants
from corrmatch.density import DensityResult, RhoCurve
from corrmatch.graphs import Bijection, Graph, ModelParams, check_sizes
from corrmatch.inference import PosteriorTable
from corrmatch.moments import InfeasiblePolytopeError, tail_rates

# -- brute forces and lattice scans ---------------------------------------------


def densest_subgraph_bruteforce(g: Graph) -> DensityResult:
    """Exhaustive maximum over all 2^n - 1 nonempty subsets (n <= 20).

    Subset edge counts fill in by dynamic programming on the lowest bit,
    over adjacency bitsets built here.  Ties break toward smaller, then
    lexicographically earlier subsets.
    """
    if g.n > 20:
        raise ValueError("brute force limited to n <= 20")
    if g.edge_count == 0:
        return DensityResult(best_subset=(0,), density=Fraction(0), witness_edges=0)
    n = g.n
    adj = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    counts = [0] * (1 << n)
    best_mask, best_val = 1, Fraction(0)
    for mask in range(1, 1 << n):
        low = mask & -mask
        prev = mask ^ low
        cnt = counts[prev] + (adj[low.bit_length() - 1] & prev).bit_count()
        counts[mask] = cnt
        val = Fraction(cnt, mask.bit_count())
        if val > best_val or (
            val == best_val
            and (mask.bit_count(), _mask_vertices(mask)) < (best_mask.bit_count(), _mask_vertices(best_mask))
        ):
            best_mask, best_val = mask, val
    subset = _mask_vertices(best_mask)
    return DensityResult(best_subset=subset, density=best_val, witness_edges=counts[best_mask])


def _mask_vertices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def combinatorial_minimum_oracle(
    T: int,
    nks: Sequence[int],
    rho: float,
    eta: float,
    alpha: float,
) -> tuple[float, tuple[float, ...]]:
    """Integer-lattice brute force: enumerate x_1..x_N under the prefix
    caps; the (x_{N+1}, x_0) completion per residual demand is itself a
    pre-scanned table over all x_{N+1} values.  Exponential; intended for
    T <= 30, N <= 3."""
    big_n = len(nks)
    rates = tail_rates(alpha, len(nks))
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
    return value, tuple(float(v) for v in best[1])


# -- former methods of package classes ------------------------------------------


def lower_bound_ok(curve: RhoCurve, slack: float = 0.0) -> bool:
    """Pointwise check rho_hat >= max(1, lam/2 * (n-1)/n) - 3 se - slack."""
    n = curve.n_used
    for lam, r, se in zip(curve.lambda_grid, curve.rho_hat, curve.stderr):
        floor_val = max(1.0, lam / 2.0 * (n - 1) / n)
        if r < floor_val - 3.0 * se - slack:
            return False
    return True


def good_set_size(consts: AdmissibilityConstants) -> int:
    """K = floor(n^beta), the good-set size used by the truncation."""
    return math.floor(consts.n**consts.beta)


def alpha_hat(params: ModelParams) -> float:
    return -float(np.log(params.p)) / float(np.log(params.n))


def entries(table: PosteriorTable) -> list[tuple[Bijection, float]]:
    return [(Bijection(row), float(p)) for row, p in zip(table.perms, table.probs)]


def compose(pi: Bijection, other: "Bijection") -> "Bijection":
    """pi after other: v -> pi(other(v))."""
    check_sizes(pi, other)
    return Bijection(pi.forward[other.forward])


# -- exact expectations in G(n, p) ------------------------------------------------


def expected_cycles(n: int, p: Fraction, k: int) -> Fraction:
    """E[number of simple k-cycles of G(n, p)], k >= 3: (n)_k p^k / (2k),
    the ordered k-tuples of distinct vertices over the 2k that trace one
    cycle."""
    return perm(n, k) * p**k / (2 * k)


def connected_probability(k: int, p: Fraction) -> Fraction:
    """P_k = P(G(k, p) is connected), from P_1 = 1 and
    P_k = 1 - sum_{j<k} C(k-1, j-1) P_j (1-p)^{j(k-j)}: the component of
    vertex 0 has j vertices and no edge leaves it."""
    probs = [None, Fraction(1)]
    for size in range(2, k + 1):
        split = sum(comb(size - 1, j - 1) * probs[j] * (1 - p) ** (j * (size - j)) for j in range(1, size))
        probs.append(1 - split)
    return probs[k]


def expected_connected_sets(n: int, p: Fraction, k: int) -> Fraction:
    """E[number of k-vertex sets that induce a connected subgraph of
    G(n, p)]: C(n, k) P_k."""
    return comb(n, k) * connected_probability(k, p)


def assert_means_match(counts: dict[int, list[int]], expected: dict[int, Fraction], bound: float) -> None:
    """For each key, the mean of the per-draw counts lies within bound
    replicate standard errors of the expectation."""
    for key, want in expected.items():
        draws = np.asarray(counts[key], dtype=float)
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        gap = abs(draws.mean() - float(want))
        assert gap <= bound * se, f"{key}: mean {draws.mean()} vs {float(want)} (se {se})"
