"""Edge orbits of the permutation phi = pi^{-1} o pi*.

The edge map Phi induced by phi partitions the unordered pairs inside a
vertex set A into cycles and maximal chains; pair variables (G_e, Gbar at
the pi-image of e) are independent across distinct orbits, which is what
makes the orbit census the right bookkeeping unit for moment bounds
(harness.census_csv writes it; this module only computes).

Orbit structure facts used here: the orbit of (u, v) is a cycle iff the
node cycles of u and v both lie inside A; disjoint node cycles of lengths
x and y generate LCM(x, y)-cycles; a pair antipodal on one even node cycle
of length x generates an x/2-cycle, called special.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .graphs import Bijection, CorrelatedSample, check_int, check_real, check_sizes, vertex_set

__all__ = [
    "EdgeOrbit",
    "OrbitDecomposition",
    "OrbitEdgeStats",
    "node_cycles",
    "edge_orbits",
    "restricted_orbits",
    "orbit_edge_stats",
    "short_cycle_cutoff",
    "phi_of",
]


@dataclass(frozen=True)
class EdgeOrbit:
    """One orbit: consecutive edges related by Phi; cycles wrap around."""

    edges: tuple[tuple[int, int], ...]
    kind: str            # "cycle" or "chain"
    special: bool

    def __post_init__(self) -> None:
        if self.kind not in ("cycle", "chain"):
            raise ValueError("kind must be 'cycle' or 'chain'")
        if self.special and self.kind != "cycle":
            raise ValueError("only cycles can be special")

    @property
    def length(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class OrbitDecomposition:
    """All orbits of one universe, with the (length, class) census.

    census maps length k to (S_k, L_k, T_k): special k-cycles, non-special
    k-cycles, and k-chains.
    """

    n: int
    universe_size: int
    orbits: tuple[EdgeOrbit, ...]

    @property
    def census(self) -> dict[int, tuple[int, int, int]]:
        out: dict[int, list[int]] = {}
        for o in self.orbits:
            row = out.setdefault(o.length, [0, 0, 0])
            if o.special:
                row[0] += 1
            elif o.kind == "cycle":
                row[1] += 1
            else:
                row[2] += 1
        return {k: tuple(v) for k, v in sorted(out.items())}


@dataclass(frozen=True)
class OrbitEdgeStats:
    """Intersection-graph edges inside A, grouped by orbit class.

    e_k[k-1] counts edges from non-special k-cycles for 1 <= k <= N, the
    cutoff len(e_k); chains and longer non-special cycles pool into e_long;
    special cycles of any length pool into e_special.
    """

    e_special: int
    e_k: tuple[int, ...]
    e_long: int


def phi_of(pi_star: Bijection, pi: Bijection) -> Bijection:
    """The permutation pi^{-1} o pi* on V."""
    check_sizes(pi_star, pi)
    return Bijection(pi.inverse[pi_star.forward])


def node_cycles(phi: Bijection) -> tuple[tuple[int, ...], ...]:
    """Cycle decomposition, a tuple of cycles that partition [0, n); each
    cycle starts at its least vertex."""
    fwd = phi.forward
    seen = np.zeros(phi.n, dtype=bool)
    cycles = []
    for start in range(phi.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = int(fwd[start])
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = int(fwd[v])
        cycles.append(tuple(cyc))
    return tuple(cycles)


def short_cycle_cutoff(alpha: float, rho: float | None = None, eta: float | None = None) -> int:
    """Cutoff N between short and long orbits.

    N = floor(1/(1 - alpha)) for alpha < 1; at alpha = 1 the cutoff needs
    the density level rho and the margin eta.
    """
    check_real("alpha", alpha, "(0, 1]")
    if alpha < 1.0:
        return floor(1.0 / (1.0 - alpha))
    if rho is None or eta is None:
        raise ValueError("alpha = 1 requires rho and eta to set the cutoff")
    check_real("rho", rho, "(1, inf)")
    check_real("eta", eta, "[0, inf)")
    if rho - eta <= 1.0:
        raise ValueError("alpha = 1 cutoff needs rho - eta > 1")
    return floor(1 / (rho - eta - 1)) + 1   # exact for a Fraction, whose margin a float may round to 0


def _cycle_index(phi: Bijection) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[tuple[int, ...], ...]]:
    """Per-vertex (cycle id, position in cycle, cycle length)."""
    cycles = node_cycles(phi)
    cid = np.empty(phi.n, dtype=np.int64)
    pos = np.empty(phi.n, dtype=np.int64)
    clen = np.empty(phi.n, dtype=np.int64)
    for i, cyc in enumerate(cycles):
        for j, v in enumerate(cyc):
            cid[v] = i
            pos[v] = j
            clen[v] = len(cyc)
    return cid, pos, clen, cycles


def restricted_orbits(pi_star: Bijection, pi: Bijection, a: set[int] | None = None) -> OrbitDecomposition:
    """Orbit partition of the pairs inside A under the edge map of phi.

    An orbit either wraps around (cycle) or is a maximal chain whose
    predecessor and successor pairs leave A.  Chains are listed from their
    Phi-minimal edge; cycles from their least canonical edge.
    """
    phi = phi_of(pi_star, pi)
    n = phi.n
    a_sorted = list(range(n)) if a is None else vertex_set(n, a).tolist()
    in_a = np.zeros(n, dtype=bool)
    in_a[a_sorted] = True
    fwd, back = phi.forward.tolist(), phi.inverse.tolist()

    def image(perm: list[int], e: tuple[int, int]) -> tuple[int, int]:
        x, y = perm[e[0]], perm[e[1]]
        return (x, y) if x < y else (y, x)

    cid, pos, clen, cycles = _cycle_index(phi)
    cycle_inside = np.array([all(in_a[v] for v in cyc) for cyc in cycles], dtype=bool)

    pairs = [(u, v) for i, u in enumerate(a_sorted) for v in a_sorted[i + 1:]]
    visited: set[tuple[int, int]] = set()
    orbits: list[EdgeOrbit] = []
    for e0 in pairs:
        if e0 in visited:
            continue
        u, v = e0
        is_cycle = bool(cycle_inside[cid[u]] and cycle_inside[cid[v]])
        if is_cycle:
            chain = [e0]
            e = image(fwd, e0)
            while e != e0:
                chain.append(e)
                e = image(fwd, e)
            start = chain.index(min(chain))
            chain = chain[start:] + chain[:start]
            special = (
                cid[u] == cid[v]
                and clen[u] % 2 == 0
                and (pos[v] - pos[u]) % clen[u] == clen[u] // 2
            )
            orbits.append(EdgeOrbit(edges=tuple(chain), kind="cycle", special=bool(special)))
        else:
            e = e0
            prev = image(back, e)
            while in_a[prev[0]] and in_a[prev[1]]:
                e = prev
                prev = image(back, e)
            chain = [e]
            nxt = image(fwd, e)
            while in_a[nxt[0]] and in_a[nxt[1]]:
                chain.append(nxt)
                nxt = image(fwd, nxt)
            orbits.append(EdgeOrbit(edges=tuple(chain), kind="chain", special=False))
        visited.update(orbits[-1].edges)
    orbits.sort(key=lambda o: o.edges[0])
    return OrbitDecomposition(n=n, universe_size=len(pairs), orbits=tuple(orbits))


def edge_orbits(pi_star: Bijection, pi: Bijection) -> OrbitDecomposition:
    """Orbit partition of all pairs; with A = V every orbit is a cycle."""
    return restricted_orbits(pi_star, pi, None)


def orbit_edge_stats(
    sample: CorrelatedSample,
    pi: Bijection,
    a: set[int],
    alpha: float | None = None,
    n_cutoff: int | None = None,
) -> OrbitEdgeStats:
    """Count intersection-graph edges inside A per orbit class.

    The cutoff N may be passed directly (required at alpha = 1, where it
    depends on the density level); otherwise it is derived from alpha.
    """
    if n_cutoff is None:
        if alpha is None:
            raise ValueError("pass alpha or n_cutoff")
        n_cutoff = short_cycle_cutoff(alpha)
    n_cutoff = check_int("n_cutoff", n_cutoff, 1)
    dec = restricted_orbits(sample.pi_star, pi, a)
    e_special = 0
    e_k = [0] * n_cutoff
    e_long = 0
    owner = np.repeat(np.arange(len(dec.orbits)), [orbit.length for orbit in dec.orbits])
    us, vs = np.array([e for orbit in dec.orbits for e in orbit.edges], dtype=np.int64).reshape(-1, 2).T
    kept = sample.g.has_edges(us, vs) & sample.g_bar.has_edges(pi.forward[us], pi.forward[vs])
    per_orbit = np.bincount(owner[kept], minlength=len(dec.orbits)).tolist()
    for orbit, hits in zip(dec.orbits, per_orbit):
        if hits == 0:
            continue
        if orbit.special:
            e_special += hits
        elif orbit.kind == "cycle" and orbit.length <= n_cutoff:
            e_k[orbit.length - 1] += hits
        else:
            e_long += hits
    return OrbitEdgeStats(e_special=e_special, e_k=tuple(e_k), e_long=e_long)
