"""The truncation event ("admissible" intersection graphs) and good sets.

A graph is admissible when five caps hold: (i) every subset has edge-vertex
ratio at most xi; (ii) subsets up to the small-set cap have ratio at most
zeta; (iii) maximal degree below the degree cap; (iv) small connected sets
contain at most one cycle (edges <= vertices); (v) for each k the number of
simple k-cycles stays under the per-length cap.  A vertex set is good when
its members are pairwise farther than 2C+2 apart and farther than C from
every cycle of length at most C.

The asymptotic thresholds (log n, n/log n, log log n, n^{delta1 k}) are
instantiated as explicit integer caps, base-2 logs, all test-overridable;
at desk scale the natural-log caps sit so low that typical sparse graphs
fail condition (iii) constantly, which would defeat the event's purpose of
holding with probability near one.

Conditions (i) and (ii) first ask one question: is rho* <= min(xi, zeta)?
One density.density_exceeds call at density.level_below(min(xi, zeta), n)
answers it exactly, with at most one max-flow; "no" passes both.  On
"yes" the exact maximizer decides (i), and (ii) fails on it or on its
greedy shrink when either is small enough.  Densities are compared with
xi and zeta exactly, as the density module says.

Otherwise conditions (ii) and (iv) are decided by exhaustive enumeration of
connected candidate sets inside the relevant core (any inclusion-minimal
violator is connected with min degree above the ratio, hence lives in that
core).  The enumeration carries an explicit budget; exceeding it yields an
"undecided" status, never a silent pass.

Condition (iv) (at most t vertices) enumerates near short cycles only.  An
inclusion-minimal violator U has |E(U)| > |U| and minimum degree 2 in U,
so it holds a theta graph (two vertices joined by three internally
disjoint paths) or two cycles joined by a path of length >= 0, and the
vertex set of that subgraph is itself a violator, hence all of U.  In a
theta every vertex lies on a cycle of length <= |U| <= t.  In the other
shape every vertex lies on one of the two cycles, each of length <= t, or
inside the path; a path with interior vertices joins two disjoint cycles,
which take at least 6 vertices, so it has at most t - 6 of them, each
within t - 6 hops of a cycle.  So the enumeration covers the 2-core
vertices within max(0, t - 6) hops of a vertex on a cycle of length <= t,
and falls back to the whole 2-core only when the cycle scan ran out of
budget.

Condition (v) counts the simple cycles of each length up to
cycle_len_cap.  One cycle scan, simple_cycle_counts at length
max(t, cycle_len_cap), serves both conditions: it counts the cycles for
(v) and collects the vertices on cycles of length <= t for (iv).  The
scan counts cycles on the contracted 2-core: every maximal chain of
core-degree-2 vertices becomes one weighted edge between kernel vertices
(core degree >= 3), and the cycles of more than one chain are found by
extending kernel paths from each group of roots in numpy, many paths per
step, pruned by the unrestricted kernel distance back to the root, read
as one bit of the reach bitsets that a multi-source Dial fills per
group, and closed where one bit of the group's adjacency bitset says
that an arc leads back to the root.  That distance is a lower bound on
the length of any way back that a counted cycle can take, so the
pruning loses no cycle.  The scan's budget counts the path extensions it
keeps, in one fixed order; running out yields lower-bound counts and
"undecided" (or a failure those lower bounds already prove), never a
silent pass.
"""

from __future__ import annotations

import heapq
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .density import densest_subgraph_exact, density_exceeds, level_below
from .graphs import Graph, check_real, check_sizes, vertex_set

__all__ = [
    "AdmissibilityConstants",
    "ConditionResult",
    "AdmissibilityReport",
    "ConstantsInfeasibleError",
    "BudgetExceeded",
    "default_constants",
    "check_admissible",
    "is_good_set",
    "find_good_set",
    "GoodSetResult",
    "simple_cycle_counts",
]

ZETA_GRID = tuple(1.0 + 0.5**j for j in range(1, 8))   # 1.5, 1.25, ..., ~1.0078
CYCLE_BUDGET = 20_000_000   # path extensions a cycle scan may keep

_ROW_BLOCK = 32768      # arcs joined per step of the cycle scan
_REACH_WORDS = 1 << 17  # uint64 words of reach bitsets per group of roots, unless
                        # one word per kernel vertex and level exceeds it


class ConstantsInfeasibleError(ValueError):
    """No constants satisfy the constraint system (density already at or
    above the admissibility level 1/alpha)."""


class BudgetExceeded(RuntimeError):
    """Internal signal: an enumeration ran out of budget."""


@dataclass(frozen=True)
class AdmissibilityConstants:
    alpha: float
    n: int
    xi: float
    zeta: float
    beta: float
    c_big: int
    delta1: float
    degree_cap: int
    small_set_cap: int
    tiny_component_cap: int
    cycle_len_cap: int = 12

    def validate(self) -> None:
        """Assert the five defining inequalities."""
        a = self.alpha
        if not self.xi < 1.0 / a:
            raise ConstantsInfeasibleError(f"xi={self.xi} >= 1/alpha={1/a}")
        if not (self.zeta > 1.0 and 1.0 + self.zeta * (a - 1.0) < 2.0 - self.zeta):
            raise ConstantsInfeasibleError(f"zeta={self.zeta} violates its constraint")
        lower = max(1.0 - a, (1.0 + self.zeta * (a - 1.0)) / (2.0 - self.zeta))
        if not (lower < self.beta < 1.0):
            raise ConstantsInfeasibleError(f"beta={self.beta} outside ({lower}, 1)")
        if not a * (self.xi + 1.0 / self.c_big) < 1.0:
            raise ConstantsInfeasibleError(f"C={self.c_big} violates alpha(xi + 1/C) < 1")
        if not 0.0 < self.delta1 < min(1.0 - a * self.xi, self.beta / self.c_big):
            raise ConstantsInfeasibleError(f"delta1={self.delta1} outside its cap")

    def cycle_count_cap(self, k: int) -> int:
        return math.ceil(self.n ** (self.delta1 * k))


def default_constants(alpha: float, rho_hat: float, n: int) -> AdmissibilityConstants:
    """Instantiate the constants from (alpha, estimated density level, n).

    xi is the midpoint of rho_hat and 1/alpha; zeta is the coarsest grid
    value below 1/alpha (near-1 choices are asymptotically valid but void
    the small-set condition's slack at desk scale); beta the midpoint of
    its feasible interval; C the smallest integer allowed; delta1 half its
    cap.  Raises when rho_hat >= 1/alpha, which signals the regime above
    the recovery threshold where no truncation constants exist.
    """
    check_real("alpha", alpha)
    check_real("rho_hat", rho_hat)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if not rho_hat >= 1.0:
        raise ValueError("rho_hat must be at least 1")
    if n < 4:
        raise ValueError("n too small for the caps")
    inv_a = 1.0 / alpha
    xi = (rho_hat + inv_a) / 2.0
    if xi >= inv_a:
        raise ConstantsInfeasibleError(
            f"rho_hat={rho_hat} >= 1/alpha={inv_a}: above-threshold regime"
        )
    zeta = next((z for z in ZETA_GRID if z < inv_a), None)
    if zeta is None:
        raise ConstantsInfeasibleError(f"no grid zeta below 1/alpha={inv_a}")
    lower = max(1.0 - alpha, (1.0 + zeta * (alpha - 1.0)) / (2.0 - zeta))
    beta = (lower + 1.0) / 2.0
    c_big = max(1, math.floor(1.0 / (inv_a - xi)) + 1)
    delta1 = 0.5 * min(1.0 - alpha * xi, beta / c_big)
    log2n = math.log2(n)
    consts = AdmissibilityConstants(
        alpha=alpha,
        n=n,
        xi=xi,
        zeta=zeta,
        beta=beta,
        c_big=c_big,
        delta1=delta1,
        degree_cap=math.ceil(log2n),
        small_set_cap=max(2, math.floor(n / log2n)),
        tiny_component_cap=max(3, math.ceil(math.log2(max(log2n, 2.0)))),
    )
    consts.validate()
    return consts


# -- report types -------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    status: str                      # "pass" | "fail" | "undecided"
    witness: dict | None = None

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "undecided"):
            raise ValueError(f"bad status {self.status}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("failures must carry a witness")


CONDITIONS = (
    "density_cap",          # (i)
    "small_set_density",    # (ii)
    "max_degree",           # (iii)
    "local_unicyclicity",   # (iv)
    "cycle_counts",         # (v)
)


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: dict[str, ConditionResult]

    @property
    def admissible(self) -> bool:
        return all(c.status == "pass" for c in self.conditions.values())

    @property
    def undecided(self) -> bool:
        return any(c.status == "undecided" for c in self.conditions.values())

    def to_json(self) -> str:
        payload = {
            name: {"status": res.status, "witness": res.witness}
            for name, res in self.conditions.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def revalidate(self, h: Graph, consts: AdmissibilityConstants) -> bool:
        """Re-evaluate every failure witness against its condition, under
        constants for h's vertex count (ValueError otherwise)."""
        check_sizes(h, consts)
        for name, res in self.conditions.items():
            if res.status != "fail":
                continue
            w = res.witness
            if name in ("density_cap", "small_set_density"):
                sub, small = w["subset"], name == "small_set_density"
                num, den = Fraction(consts.zeta if small else consts.xi).as_integer_ratio()
                if not h.edges_within(sub) * den > num * len(sub):
                    return False
                if small and len(sub) > consts.small_set_cap:
                    return False
            elif name == "max_degree":
                if not h.degree(w["vertex"]) >= consts.degree_cap:
                    return False
            elif name == "local_unicyclicity":
                sub = w["subset"]
                if not 0 < len(sub) <= consts.tiny_component_cap:
                    return False
                vset = set(sub)
                if len(_bfs(h.csr(), sub[:1], within=vset)) != len(vset):
                    return False   # not connected
                if not h.edges_within(sub) > len(sub):
                    return False
            elif name == "cycle_counts":
                # either count is a lower bound when its enumeration was cut short
                k = w["length"]
                counts = simple_cycle_counts(h, k)[0]
                if not counts.get(k, 0) >= w["count"] > consts.cycle_count_cap(k):
                    return False
        return True


# -- enumeration machinery ----------------------------------------------------


def _bfs(csr: tuple[np.ndarray, np.ndarray], sources, depth: int | None = None, within=None) -> dict[int, int]:
    """Hop distances from sources in the graph whose `Graph.csr()` is csr,
    up to depth (unbounded when None), along paths whose vertices past the
    sources all lie in within (any when None)."""
    offsets, columns = csr
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    d = 0
    while frontier and (depth is None or d < depth):
        d += 1
        nxt = []
        for u in frontier:
            for w in columns[offsets[u]:offsets[u + 1]].tolist():
                if w not in dist and (within is None or w in within):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _connected_sets(csr: tuple[np.ndarray, np.ndarray], alive: list[bool], max_size: int, budget: list[int]):
    """Yield (set, edge count) for every connected vertex set of size <=
    max_size within the alive mask of the graph whose `Graph.csr()` is csr,
    each set exactly once (ESU-style growth from each root).

    cover[w] counts the current members adjacent to w.  ESU bans from the
    extension every alive vertex above the root that already neighbours the
    set, which is every such w with cover[w] > 0 (members past the root
    included), so a neighbour of a new member is fresh exactly when it is
    alive, above the root and uncovered.  A joining vertex u adds cover[u]
    edges to the set."""
    offsets, columns = csr
    cover = [0] * len(alive)

    def grow(root: int, sub: list[int], ext: list[int], edges: int):
        for i, u in enumerate(ext):
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceeded
            sub.append(u)
            grown = edges + cover[u]
            yield tuple(sub), grown
            if len(sub) < max_size:
                row = columns[offsets[u]:offsets[u + 1]].tolist()
                fresh = [w for w in row if alive[w] and w > root and not cover[w]]
                for w in row:
                    cover[w] += 1
                yield from grow(root, sub, ext[i + 1:] + fresh, grown)
                for w in row:
                    cover[w] -= 1
            sub.pop()

    for root in range(len(alive)):
        if alive[root]:
            yield from grow(root, [], [root], 0)


def _csr(size: int, src: np.ndarray, dst: np.ndarray, weight: np.ndarray) -> csr_matrix:
    """The size x size sparse matrix of the arcs src -> dst, which come
    sorted by src, built straight from its row pointers."""
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=size))])
    return csr_matrix((weight, dst, indptr), shape=(size, size))


class _Kernel(NamedTuple):
    """The kernel multigraph of a 2-core; see ``_contract_core``."""

    vertices: np.ndarray     # kernel vertex ids, ascending; kernel index i is vertices[i]
    indptr: np.ndarray       # the arcs out of kernel index u are indptr[u]:indptr[u + 1]
    dst: np.ndarray          # per arc: the kernel index at its far end
    length: np.ndarray       # per arc: the length of its chain, in edges
    chain: np.ndarray        # per arc: its chain id
    chain_run: np.ndarray    # per chain id: the run of its interior, -1 for one edge
    runs: np.ndarray         # per graph vertex: its run, -1 off the runs
    lone_length: np.ndarray  # per one-chain cycle: its length
    lone_run: np.ndarray     # per one-chain cycle: its run
    lone_vertex: np.ndarray  # per one-chain cycle: its kernel vertex id, -1 for a ring


def _contract_core(edges: np.ndarray, alive: np.ndarray, max_len: int) -> _Kernel:
    """Contract the 2-core (the alive mask) of the graph with canonical
    edge array edges to its kernel multigraph, in numpy.

    Kernel vertices are those of core degree >= 3.  Every other core vertex
    has core degree 2 and lies in one run, a connected component of the
    core-degree-2 vertices (labelled by one connected_components call).  A
    run is either a ring, a whole 2-core component with no kernel vertex,
    or the interior of a chain, whose two boundary edges lead to kernel
    vertices; an edge between two kernel vertices is a chain of its own.
    A chain between distinct kernel vertices becomes two arcs, one each
    way, sorted by (source, far end, chain id).  A chain back to its own
    kernel vertex and a ring are each one cycle, kept as one-chain cycles.
    Chains and cycles of more than max_len edges lie on no counted cycle
    and are dropped."""
    n = alive.size
    e = edges[alive[edges[:, 0]] & alive[edges[:, 1]]]
    deg = np.bincount(e.ravel(), minlength=n)
    kernel = deg >= 3
    inside = (deg == 2)[e]
    links = e[inside.all(axis=1)]
    n_runs, label = connected_components(_csr(n, links[:, 0], links[:, 1], np.ones(len(links))), directed=False)
    runs = np.where(deg == 2, label, -1)
    size = np.bincount(runs[runs >= 0], minlength=n_runs)
    # each chain's two boundary edges (run vertex, kernel vertex), paired up by run
    cut = inside[:, 0] != inside[:, 1]
    flip = inside[cut, 1]
    inner, outer = np.where(flip, e[cut, 1], e[cut, 0]), np.where(flip, e[cut, 0], e[cut, 1])
    order = np.argsort(runs[inner], kind="stable")
    run, a, b = runs[inner[order[0::2]]], outer[order[0::2]], outer[order[1::2]]
    loop = a == b
    ring = np.ones(n_runs, dtype=bool)
    ring[run] = False
    ring &= size > 0
    rings = np.flatnonzero(ring)
    lone_length = np.concatenate([size[run[loop]] + 1, size[rings]])
    lone_run = np.concatenate([run[loop], rings])
    lone_vertex = np.concatenate([a[loop], np.full(rings.size, -1)])
    short = lone_length <= max_len
    # chains between distinct kernel vertices: single edges, then runs
    pair = e[kernel[e[:, 0]] & kernel[e[:, 1]]]
    chain_a = np.concatenate([pair[:, 0], a[~loop]])
    chain_b = np.concatenate([pair[:, 1], b[~loop]])
    chain_len = np.concatenate([np.ones(len(pair), dtype=np.int64), size[run[~loop]] + 1])
    chain_run = np.concatenate([np.full(len(pair), -1), run[~loop]])
    keep = chain_len <= max_len
    chain_a, chain_b, chain_len, chain_run = chain_a[keep], chain_b[keep], chain_len[keep], chain_run[keep]
    vertices = np.flatnonzero(kernel)
    index = np.cumsum(kernel) - 1
    ids = np.arange(chain_len.size)
    src = np.concatenate([index[chain_a], index[chain_b]])
    dst = np.concatenate([index[chain_b], index[chain_a]])
    order = np.lexsort((np.concatenate([ids, ids]), dst, src))
    return _Kernel(
        vertices=vertices,
        indptr=np.concatenate([[0], np.cumsum(np.bincount(src, minlength=vertices.size))]),
        dst=dst[order],
        length=np.concatenate([chain_len, chain_len])[order],
        chain=np.concatenate([ids, ids])[order],
        chain_run=chain_run,
        runs=runs,
        lone_length=lone_length[short],
        lone_run=lone_run[short],
        lone_vertex=lone_vertex[short],
    )


def _segments(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, position) of every element of the ranges
    starts[i]:starts[i] + sizes[i], laid end to end in order of i."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    offsets = np.cumsum(sizes) - sizes
    return owner, np.arange(owner.size) + (starts - offsets)[owner]


@dataclass(eq=False)
class _Paths:
    """A block of simple kernel paths of the cycle scan, all of the same
    number of chains.  Path i is path parent[i] of the block below, one
    chain shorter, extended by chain[i] to the kernel vertex end[i]; the
    roots, one-vertex paths, have no block below.  lead[i] is the path's
    first chain id (-1 for a root), length[i] its length in edges, and
    seen[i] has bit v % 64 set for every kernel vertex v past the root.
    Paths before next have been extended."""

    below: _Paths | None
    parent: np.ndarray
    end: np.ndarray
    chain: np.ndarray
    root: np.ndarray
    lead: np.ndarray
    length: np.ndarray
    seen: np.ndarray
    next: int = 0


class _Near(NamedTuple):
    """The kernel arcs that the reach bitsets grow along: for each pair of
    adjacent kernel vertices, the shortest chain between them if it is at
    most the radius; see ``_near_arcs``."""

    indptr: np.ndarray   # the arcs out of kernel index v are indptr[v]:indptr[v + 1], by length
    far: np.ndarray      # per arc: the kernel index at its far end
    length: np.ndarray   # per arc: its length in edges, 1..radius
    cell: np.ndarray     # per arc: 1 + far - length * size; level d reads reach row cell + d * size
    upto: np.ndarray     # upto[d, v]: how many arcs out of v have length <= d
    tails: np.ndarray    # the kernel indices with an arc out


def _near_arcs(kern: _Kernel, keys: np.ndarray, radius: int) -> _Near:
    """The near arcs of kern, whose arcs have the ascending keys source *
    size + far end, up to radius."""
    size = kern.vertices.size
    pairs = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    length = np.minimum.reduceat(kern.length, pairs)
    short = length <= radius
    tail, far, length = keys[pairs[short]] // size, kern.dst[pairs[short]], length[short]
    by_length = np.argsort(tail * (radius + 1) + length, kind="stable")
    far, length = far[by_length], length[by_length]
    upto = np.bincount(length * size + tail, minlength=(radius + 1) * size).reshape(radius + 1, size).cumsum(axis=0)
    indptr = np.concatenate([[0], np.cumsum(upto[-1])])
    return _Near(indptr, far, length, 1 + far - length * size, upto, np.flatnonzero(upto[-1]))


def _reach(near: _Near, group: np.ndarray, reach: np.ndarray) -> None:
    """Fill reach, of shape (1 + (radius + 1) * size, words) for a kernel of
    size vertices, with the reach bitsets of the roots in group: bit i % 64
    of word i // 64 of row 1 + d * size + v is set when group[i] is within
    chain length d of kernel index v.  Row 0 stays zero, so an arc's row at
    level d, cell + d * size, is 0 or below when the arc is longer than d.

    A multi-source Dial over the near arcs: level d is level d - 1 or'ed,
    at each vertex v, with level d - L at the far end of each arc out of v
    of length L <= d (the kernel's arcs come in pairs, one each way).  Only
    a vertex with an arc of length L to a vertex whose words changed at
    level d - L can change at level d, so while those vertices' arcs are at
    most a quarter of all near arcs, only their rows are pulled; from the
    first level where they are more, every row is."""
    levels, size = near.upto.shape
    item = np.dtype((np.void, reach.itemsize * reach.shape[1]))
    cells = reach.view(item).ravel()

    def take(rows: np.ndarray) -> np.ndarray:
        return np.take(cells, rows, mode="clip").view(reach.dtype).reshape(rows.size, -1)

    bit = np.arange(group.size)
    reach[1:1 + size] = 0
    reach[1 + group, bit >> 6] = np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64))
    due = np.zeros(levels * size, dtype=bool)
    changed, everywhere = group, False
    for d in range(1, levels):
        first = 1 + d * size
        reach[first:first + size] = reach[first - size:first]
        if not everywhere:
            # the vertices that the last level's changes reach, by level
            _, arc = _segments(near.indptr[changed], near.upto[levels - d, changed])
            due[(d - 1 + near.length[arc]) * size + near.far[arc]] = True
            pull = np.flatnonzero(due[d * size:(d + 1) * size])
            count = near.upto[d, pull]
            everywhere = 4 * int(count.sum()) > near.far.size
        if everywhere:
            pull, arcs, starts = near.tails, near.cell, near.indptr[near.tails]
        elif pull.size:
            _, arc = _segments(near.indptr[pull], count)
            arcs, starts = near.cell[arc], np.cumsum(count) - count
        else:
            continue
        old = take(first + pull)
        new = old | np.bitwise_or.reduceat(take(arcs + d * size), starts)
        cells[first + pull] = new.view(item).ravel()
        if not everywhere:
            changed = pull[(new != old).any(axis=1)]


def simple_cycle_counts(
    h: Graph, max_len: int, budget: int = CYCLE_BUDGET, collect_len: int = 0
) -> tuple[dict[int, int], bool, set[int]]:
    """(counts, completed, vertices) of the simple cycles of h of lengths
    3..max_len: counts per length, whether the search finished within
    budget, and every vertex on a counted cycle of length <= collect_len
    (none at 0).

    Cycles live in the 2-core, and they are counted on its kernel
    multigraph (see ``_contract_core``): each maximal chain of
    core-degree-2 vertices between two kernel vertices becomes one edge
    weighted by its length and labelled by a chain id.  A simple cycle of
    the graph is a simple cycle of that multigraph of the same total
    length.  A cycle that is one chain (a chain whose ends coincide, or a
    ring) is counted directly.

    Every other cycle uses at least two chains and is counted once, rooted
    at its least kernel vertex r, by extending simple kernel paths from r
    through kernel vertices above r.  The roots are taken in groups and
    all paths of a group grow together, one numpy step per block of paths
    (``_Paths``): a path of length d from r to u is joined to every arc
    out of u, and the extension along a chain of length L to w is kept if
    w > r, w is not on the path and d + L + dist(r, w) <= max_len.  Each
    kept extension closes a cycle through every chain from w to r whose id
    exceeds the path's first chain id, the dedup rule: it drops the
    reverse traversal of each cycle and any return along the first chain.
    It is extended further only if d + L <= max_len - 2, since going on
    takes two chains or more.  Paths grow depth first, at most _ROW_BLOCK
    joined arcs a step, so memory stays O(n + m) plus about max_len
    blocks of paths and the group's arrays below.

    dist is the chain-length distance in the whole kernel, read from the
    reach bitsets of r's group (``_reach``): the extension is kept when
    r's bit is set in level min(max_len - d - L, max_len // 2) at w, which
    is exactly d + L + dist(r, w) <= max_len.  A cycle's way back from w
    to r runs through kernel vertices above r, so it is at least this
    unrestricted distance: the test never drops an extension that can
    still close a counted cycle.  Every kernel vertex of a counted cycle
    is within max_len // 2 of r along the cycle, so the levels stop at
    that radius.  The pruning is exact: the counts and vertices are those
    of an unpruned search over all simple cycles.

    A group holds as many roots as fit their reach bitsets, (max_len // 2
    + 1) rows of W words per kernel vertex, in _REACH_WORDS words, and 64
    roots at least.  Its adjacency bitset is laid out like one level: bit
    s of row w is set when the group's root s has an arc to w.  A kept
    extension to w whose root's bit is set there finds its closing chains
    by a binary search for w's arcs to r, which are sorted by chain id.
    Only the cells the group set are cleared after it.  So the arrays of a
    group take O(kernel size) memory, however many roots there are.

    ``budget`` caps the path extensions kept, taken in one fixed order
    (groups of roots ascending, then depth first, arcs in kernel order);
    cycles that are one chain take none.  When it runs out, completed is
    False, and the counts and vertices are those of the first budget
    extensions, so they are lower bounds that only grow with the budget.
    """
    if max_len < 3:
        return {}, True, set()
    kern = _contract_core(h.edge_array(), h.core_numbers() >= 2, max_len)
    counts = np.bincount(kern.lone_length, minlength=max_len + 1)
    size = kern.vertices.size
    outdeg = np.diff(kern.indptr)
    src = np.repeat(np.arange(size), outdeg)
    roots = np.flatnonzero(np.bincount(src[kern.dst > src], minlength=size) >= 2)
    kernel_on, chain_on = np.zeros(size, dtype=bool), np.zeros(kern.chain_run.size, dtype=bool)
    left = max(budget, 0)
    radius = max_len // 2
    per_group = 64 * max(1, _REACH_WORDS // ((radius + 1) * max(size, 1)))
    if roots.size:
        keys = src * size + kern.dst   # ascending: the arcs are sorted by (source, far end, chain id)
        near = _near_arcs(kern, keys, radius)
        words = -(-min(per_group, roots.size) // 64)
        reach = np.zeros((1 + (radius + 1) * size, words), dtype=np.uint64)
        adjacent = np.zeros(size * words, dtype=np.uint64)
    for lo in range(0, roots.size, per_group):
        group = roots[lo:lo + per_group]
        _reach(near, group, reach)
        # or'ed in place: parallel chains, and roots of one word with a
        # common neighbour, repeat a cell
        slot, arc = _segments(kern.indptr[group], outdeg[group])
        cell = kern.dst[arc] * words + (slot >> 6)
        np.bitwise_or.at(adjacent, cell, np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64)))
        left = _scan_roots(kern, group, reach, adjacent, keys, max_len, left, counts, kernel_on, chain_on, collect_len)
        adjacent[cell] = 0
        if left < 0:
            break
    run_on = np.zeros(kern.runs.max(initial=-1) + 1, dtype=bool)
    run_on[kern.chain_run[chain_on & (kern.chain_run >= 0)]] = True
    lone = kern.lone_length <= collect_len
    run_on[kern.lone_run[lone]] = True
    on_runs = np.flatnonzero(kern.runs >= 0)
    verts = set(on_runs[run_on[kern.runs[on_runs]]].tolist())
    verts.update(kern.vertices[kernel_on].tolist())
    verts.update(kern.lone_vertex[lone & (kern.lone_vertex >= 0)].tolist())
    return {k: int(counts[k]) for k in range(3, max_len + 1)}, left >= 0, verts


def _scan_roots(
    kern: _Kernel,
    group: np.ndarray,
    reach: np.ndarray,
    adjacent: np.ndarray,
    keys: np.ndarray,
    max_len: int,
    left: int,
    counts: np.ndarray,
    kernel_on: np.ndarray,
    chain_on: np.ndarray,
    collect_len: int,
) -> int:
    """Count into counts the cycles of length <= max_len rooted at the
    kernel vertices in group, as simple_cycle_counts describes, and mark
    in kernel_on and chain_on the kernel vertices and chains of those of
    length <= collect_len.  The root group[s] is bit s of the reach
    bitsets reach (see ``_reach``), whose rows are W words, and of the
    adjacency bitset adjacent, whose word w * W + s // 64 holds it when
    group[s] has an arc to the kernel vertex w; keys are the kernel's
    arcs' source * size + far end, ascending.  Takes at most left
    extensions; returns how many are left, or -1 when they ran out first."""
    size = kern.vertices.size
    words = reach.shape[1]
    flat = reach.reshape(-1)
    outdeg = np.diff(kern.indptr)
    slot = np.zeros(size, dtype=np.int64)
    slot[group] = np.arange(group.size)
    word, mask = slot >> 6, np.left_shift(np.uint64(1), (slot & 63).astype(np.uint64))
    # per path length l, the first row of the level min(max_len - l, radius),
    # or of level 0, which holds only the roots, once l exceeds max_len
    level_at = 1 + np.clip(max_len - np.arange(2 * max_len), 0, max_len // 2) * size
    none = np.full(group.size, -1)
    stack = [_Paths(None, none, group, none, group, none, np.zeros_like(group), np.zeros(group.size, dtype=np.uint64))]
    while stack:
        paths = stack[-1]
        start = paths.next
        fan = np.cumsum(outdeg[paths.end[start:start + _ROW_BLOCK]])
        paths.next = stop = start + max(1, int(np.searchsorted(fan, _ROW_BLOCK, side="right")))
        if stop >= paths.end.size:
            stack.pop()
        # every arc out of each path's end, kept if its far end w is above
        # the root and not too far from it
        ends = paths.end[start:stop]
        row, arc = _segments(kern.indptr[ends], outdeg[ends])
        row += start
        w, root = kern.dst[arc], paths.root[row]
        length = paths.length[row] + kern.length[arc]
        within = flat[(level_at[length] + w) * words + word[root]] & mask[root]
        keep = np.flatnonzero((w > root) & (within != 0))
        row, arc, w, root, length = row[keep], arc[keep], w[keep], root[keep], length[keep]
        bit = np.left_shift(np.uint64(1), (w & 63).astype(np.uint64))
        clash = (paths.seen[row] & bit) != 0
        if size > 64 and clash.any():   # the filter is exact up to 64 kernel vertices
            maybe = np.flatnonzero(clash)
            on_path = np.zeros(maybe.size, dtype=bool)
            prefix, rows = paths, row[maybe]
            while prefix.below is not None:   # the root is below w anyway
                on_path |= prefix.end[rows] == w[maybe]
                prefix, rows = prefix.below, prefix.parent[rows]
            clash[maybe] = on_path
        keep = np.flatnonzero(~clash)
        if keep.size > left:
            keep = keep[:left]
            left = -1
        else:
            left -= keep.size
        row, arc, w, root, length, bit = row[keep], arc[keep], w[keep], root[keep], length[keep], bit[keep]
        chain = kern.chain[arc]
        lead = paths.lead[row]
        lead = np.where(lead < 0, chain, lead)
        # close through each chain between w and the root whose id is above
        # the first chain's: w's arcs to the root, by chain id
        close = np.flatnonzero(adjacent[w * words + word[root]] & mask[root])
        key = w[close] * size + root[close]
        first = np.searchsorted(keys, key)
        owner, back = _segments(first, np.searchsorted(keys, key, side="right") - first)
        hit = close[owner]
        total = length[hit] + kern.length[back]
        ok = (kern.chain[back] > lead[hit]) & (total <= max_len)
        counts += np.bincount(total[ok], minlength=max_len + 1)
        mark = np.flatnonzero(ok & (total <= collect_len))
        hit, back = hit[mark], back[mark]
        if hit.size and not (kernel_on.all() and chain_on.all()):
            kernel_on[w[hit]] = True
            chain_on[chain[hit]] = True
            chain_on[kern.chain[back]] = True
            prefix, rows = paths, np.unique(row[hit])
            while prefix.below is not None:
                kernel_on[prefix.end[rows]] = True
                chain_on[prefix.chain[rows]] = True
                prefix, rows = prefix.below, np.unique(prefix.parent[rows])
            kernel_on[prefix.end[rows]] = True
        if left < 0:
            return left
        go = np.flatnonzero(length <= max_len - 2)
        if go.size:
            parent = row[go]
            stack.append(_Paths(
                paths, parent, w[go], chain[go], paths.root[parent], lead[go], length[go], paths.seen[parent] | bit[go]
            ))
    return left


# -- the admissibility check ----------------------------------------------------


def check_admissible(
    h: Graph,
    consts: AdmissibilityConstants,
    set_budget: int = 2_000_000,
    cycle_budget: int = CYCLE_BUDGET,
) -> AdmissibilityReport:
    """Evaluate the five conditions on h, under constants for its vertex
    count (ValueError otherwise); see the module docstring."""
    consts.validate()
    if check_sizes(h, consts) == 0:
        raise ValueError("graph must have at least one vertex")
    results: dict[str, ConditionResult] = {}

    # (i) and (ii): both pass exactly when rho* <= min(xi, zeta)
    if not density_exceeds(h, level_below(min(consts.xi, consts.zeta), h.n)):
        results["density_cap"] = results["small_set_density"] = ConditionResult("pass")
    else:
        dens = densest_subgraph_exact(h)
        if dens.density > consts.xi:
            results["density_cap"] = ConditionResult(
                "fail", {"subset": list(dens.best_subset), "edges": dens.witness_edges}
            )
        else:
            results["density_cap"] = ConditionResult("pass")
        results["small_set_density"] = _check_small_sets(h, consts, dens, set_budget)

    degs = h.degrees
    if int(degs.max()) >= consts.degree_cap:
        v = int(degs.argmax())
        results["max_degree"] = ConditionResult("fail", {"vertex": v, "degree": int(degs[v])})
    else:
        results["max_degree"] = ConditionResult("pass")

    # one scan: (iv) looks near the cycles of length <= t, (v) counts up to cycle_len_cap
    t = consts.tiny_component_cap
    counts, completed, near = simple_cycle_counts(h, max(t, consts.cycle_len_cap), cycle_budget, collect_len=t)
    results["local_unicyclicity"] = _check_tiny_components(
        h.csr(), h.core_numbers(), t, near if completed else None, set_budget
    )
    results["cycle_counts"] = _check_cycle_counts(counts, completed, consts, cycle_budget)
    return AdmissibilityReport(conditions=results)


def _check_small_sets(h, consts, dens, set_budget) -> ConditionResult:
    if dens.density <= consts.zeta:
        return ConditionResult("pass")   # no subset of any size violates zeta
    subset = list(dens.best_subset)
    if len(subset) <= consts.small_set_cap:
        return ConditionResult("fail", {"subset": subset, "edges": h.edges_within(subset)})
    shrunk = _shrink_violator(h, subset, consts.zeta)
    if len(shrunk) <= consts.small_set_cap:
        return ConditionResult("fail", {"subset": shrunk, "edges": h.edges_within(shrunk)})
    alive = (h.core_numbers() >= math.floor(consts.zeta) + 1).tolist()
    return _first_dense_set(h.csr(), alive, consts.small_set_cap, consts.zeta, set_budget)


def _shrink_violator(h: Graph, subset: list[int], ratio: float) -> list[int]:
    """Greedily peel to an inclusion-minimal set with edges > ratio * size:
    remove the first member, in (global degree, id) order, whose removal
    keeps the ratio exceeded, and start over.  A removal keeps it when the
    member's in-set degree is at most a bound set by the edge count and
    size, so one lazy heap of order positions per in-set degree finds it."""
    num, den = Fraction(ratio).as_integer_ratio()
    starts, columns = (rows.tolist() for rows in h.csr())
    ids = np.unique(np.asarray(subset, dtype=np.int64))
    order = ids[np.argsort(h.degrees[ids], kind="stable")].tolist()   # by (global degree, id)
    position = {v: i for i, v in enumerate(order)}
    din = {v: sum(w in position for w in columns[starts[v]:starts[v + 1]]) for v in order}   # members only
    edges, size = sum(din.values()) // 2, len(order)
    heaps = [[] for _ in range(max(din.values(), default=0) + 1)]
    for i, v in enumerate(order):
        heaps[din[v]].append(i)   # ascending positions already form a heap
    while True:
        # (edges - din[v]) * den > num * (size - 1) holds exactly when din[v] <= bound
        bound = (edges * den - num * (size - 1) - 1) // den
        tops = []
        for d, heap in enumerate(heaps[: max(bound + 1, 0)]):
            while heap and din.get(order[heap[0]]) != d:   # removed, or its in-set degree dropped
                heapq.heappop(heap)
            tops.extend(heap[:1])
        if not tops:
            return sorted(din)
        v = order[min(tops)]
        edges, size = edges - din.pop(v), size - 1
        for w in columns[starts[v]:starts[v + 1]]:
            if w in din:
                din[w] -= 1
                heapq.heappush(heaps[din[w]], position[w])


def _first_dense_set(
    csr: tuple[np.ndarray, np.ndarray], alive: list[bool], cap: int, ratio: float, set_budget: int
) -> ConditionResult:
    """Fail on the first connected set of at most cap alive vertices of csr
    with more than ratio * size edges; undecided when set_budget sets were
    enumerated without one, pass otherwise.  Every inclusion-minimal such
    set has minimum degree above ratio inside it, so an alive mask that
    holds the (floor(ratio) + 1)-core loses none."""
    num, den = Fraction(ratio).as_integer_ratio()
    budget = [set_budget]
    try:
        for sub, edges in _connected_sets(csr, alive, cap, budget):
            if edges * den > num * len(sub):
                return ConditionResult("fail", {"subset": list(sub), "edges": edges})
    except BudgetExceeded:
        return ConditionResult("undecided", {"stage": "connected_sets", "budget": set_budget})
    return ConditionResult("pass")


def _check_tiny_components(
    csr: tuple[np.ndarray, np.ndarray],
    core: np.ndarray,
    t: int,
    near: set[int] | None,
    set_budget: int,
) -> ConditionResult:
    """Condition (iv): no connected set of at most t vertices of csr, with
    core numbers core, has more edges than vertices.  near holds every vertex on a cycle of length
    <= t, or is None when the cycle scan that collects them ran out of
    budget.  With it, the enumeration runs over the 2-core vertices within
    max(0, t - 6) hops of near; without it, over the whole 2-core.  The
    module docstring says why the smaller region loses no
    inclusion-minimal violator."""
    if near is None:
        return _first_dense_set(csr, (core >= 2).tolist(), t, 1, set_budget)
    region = _bfs(csr, near, max(0, t - 6), within=set(np.flatnonzero(core >= 2).tolist()))
    return _first_dense_set(csr, [v in region for v in range(core.size)], t, 1, set_budget)


def _check_cycle_counts(counts, completed, consts, cycle_budget) -> ConditionResult:
    """Fail at the first length whose count exceeds its cap.  When the
    enumeration was cut short the witness count is a lower bound on the
    true count, which still proves the violation."""
    for k in range(3, consts.cycle_len_cap + 1):
        cap = consts.cycle_count_cap(k)
        if counts.get(k, 0) > cap:
            return ConditionResult("fail", {"length": k, "count": counts[k], "cap": cap})
    if not completed:
        return ConditionResult("undecided", {"stage": "cycle_paths", "budget": cycle_budget})
    return ConditionResult("pass")


# -- good sets -------------------------------------------------------------------


@dataclass(frozen=True)
class GoodSetResult:
    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


def _short_cycle_vertices(h: Graph, c_big: int) -> set[int]:
    if c_big < 3:
        return set()
    _, completed, verts = simple_cycle_counts(h, c_big, collect_len=c_big)
    if not completed:
        raise BudgetExceeded("cycle enumeration for good sets ran out of budget")
    return verts


def is_good_set(h: Graph, a: set[int], c_big: int) -> GoodSetResult:
    """True iff members of a are pairwise farther than 2C+2 apart and
    farther than C from every cycle of length <= C."""
    a_sorted = vertex_set(h.n, a).tolist()
    near_cycles = _bfs(h.csr(), _short_cycle_vertices(h, c_big), c_big)
    for v in a_sorted:
        if v in near_cycles:
            return GoodSetResult(False, {"vertex": v, "reason": "within C of a short cycle"})
    taken: set[int] = set()
    for v in a_sorted:
        hit = taken.intersection(_bfs(h.csr(), [v], 2 * c_big + 2))
        if hit:
            return GoodSetResult(False, {"pair": [min(hit), v], "reason": "closer than 2C+2"})
        taken.add(v)
    return GoodSetResult(True)


def find_good_set(h: Graph, b: set[int], k_target: int, c_big: int) -> tuple[int, ...]:
    """Greedy good subset of b: drop vertices near short cycles, then add
    candidates in ascending id whose (2C+2)-ball avoids the current set.
    Returns the first k_target vertices found, or the maximal set if the
    greedy runs out (a shortfall, not an error); k_target is an integer
    >= 0, not a bool."""
    if isinstance(k_target, bool) or not isinstance(k_target, numbers.Integral) or k_target < 0:
        raise ValueError(f"k_target must be an integer >= 0, got {k_target!r}")
    candidates = vertex_set(h.n, b).tolist()
    if k_target == 0:
        return ()
    blocked = _bfs(h.csr(), _short_cycle_vertices(h, c_big), c_big)
    chosen: list[int] = []
    covered: set[int] = set()
    for v in candidates:
        if v in blocked or v in covered:
            continue
        chosen.append(v)
        if len(chosen) == k_target:
            break
        covered.update(_bfs(h.csr(), [v], 2 * c_big + 2))
    return tuple(chosen)
