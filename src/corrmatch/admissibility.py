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

Conditions (i) and (ii) first ask the flow solver one question: with
x = min(xi, zeta) and gamma = (floor(x n) - 1) / n, is any vertex set
denser than gamma?  One max-flow on the ceil(gamma)-core answers it
(density.density_exceeds).  "No" proves rho* <= gamma <= x - 1/n, so both
conditions pass, and the 1/n margin keeps their float comparisons on the
same side.  On "yes", or when gamma <= 0, the exact maximizer decides (i),
and (ii) fails on it or on its greedy shrink when either is small enough.

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
within t - 6 hops of a cycle.  So the scan covers the 2-core vertices
within max(0, t - 6) hops of a vertex on a cycle of length <= t, read off
the cycle scan of condition (v), and it falls back to the whole 2-core
when that scan ran out of budget or stops short of length t
(t > cycle_len_cap).

Condition (v) and the short-cycle vertices behind good sets come from one
cycle scan, which counts cycles on the contracted 2-core: every maximal
chain of core-degree-2 vertices becomes one weighted edge between kernel
vertices (core degree >= 3), so its search runs over the kernel and not
over every core vertex.  It carries a budget of kernel steps in the same
way.  check_admissible runs it once, sharing the graph's adjacency view and
core peel between (iv) and (v).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import densest_subgraph_exact, density_exceeds
from .graphs import Graph

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

    @property
    def good_set_size(self) -> int:
        """K = floor(n^beta), the good-set size used by the truncation."""
        return math.floor(self.n**self.beta)


def default_constants(alpha: float, rho_hat: float, n: int) -> AdmissibilityConstants:
    """Instantiate the constants from (alpha, estimated density level, n).

    xi is the midpoint of rho_hat and 1/alpha; zeta is the coarsest grid
    value below 1/alpha (near-1 choices are asymptotically valid but void
    the small-set condition's slack at desk scale); beta the midpoint of
    its feasible interval; C the smallest integer allowed; delta1 half its
    cap.  Raises when rho_hat >= 1/alpha, which signals the regime above
    the recovery threshold where no truncation constants exist.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if rho_hat < 1.0:
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
        """Re-evaluate every failure witness against its condition."""
        for name, res in self.conditions.items():
            if res.status != "fail":
                continue
            w = res.witness
            if name == "density_cap":
                sub = w["subset"]
                if not h.edges_within(sub) > consts.xi * len(sub):
                    return False
            elif name == "small_set_density":
                sub = w["subset"]
                if len(sub) > consts.small_set_cap:
                    return False
                if not h.edges_within(sub) > consts.zeta * len(sub):
                    return False
            elif name == "max_degree":
                if not h.degree(w["vertex"]) >= consts.degree_cap:
                    return False
            elif name == "local_unicyclicity":
                sub = w["subset"]
                if not 0 < len(sub) <= consts.tiny_component_cap:
                    return False
                vset = set(sub)
                if len(_bfs(h.adjacency(), sub[:1], within=vset)) != len(vset):
                    return False   # not connected
                if not h.edges_within(sub) > len(sub):
                    return False
            elif name == "cycle_counts":
                # either count is a lower bound when its enumeration was cut short
                k = w["length"]
                counts, _ = simple_cycle_counts(h, k)
                if not counts.get(k, 0) >= w["count"] > consts.cycle_count_cap(k):
                    return False
        return True


# -- enumeration machinery ----------------------------------------------------


def _bfs(adj: tuple[tuple[int, ...], ...], sources, depth: int | None = None, within=None) -> dict[int, int]:
    """Hop distances from sources, up to depth (unbounded when None), along
    paths whose vertices past the sources all lie in within (any when None)."""
    dist = {s: 0 for s in sources}
    frontier = list(dist)
    d = 0
    while frontier and (depth is None or d < depth):
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist and (within is None or w in within):
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def _connected_sets(adj: tuple[tuple[int, ...], ...], alive: list[bool], max_size: int, budget: list[int]):
    """Yield (set, edge count) for every connected vertex set of size <=
    max_size within the alive mask, each set exactly once (ESU-style growth
    from each root).

    cover[w] counts the current members adjacent to w.  ESU bans from the
    extension every alive vertex above the root that already neighbours the
    set, which is every such w with cover[w] > 0 (members past the root
    included), so a neighbour of a new member is fresh exactly when it is
    alive, above the root and uncovered.  A joining vertex u adds cover[u]
    edges to the set."""
    cover = [0] * len(adj)

    def grow(root: int, sub: list[int], ext: list[int], edges: int):
        for i, u in enumerate(ext):
            budget[0] -= 1
            if budget[0] < 0:
                raise BudgetExceeded
            sub.append(u)
            grown = edges + cover[u]
            yield tuple(sub), grown
            if len(sub) < max_size:
                fresh = [w for w in adj[u] if alive[w] and w > root and not cover[w]]
                for w in adj[u]:
                    cover[w] += 1
                yield from grow(root, sub, ext[i + 1:] + fresh, grown)
                for w in adj[u]:
                    cover[w] -= 1
            sub.pop()

    for root in range(len(adj)):
        if alive[root]:
            yield from grow(root, [], [root], 0)


def _contract_core(adj: tuple[tuple[int, ...], ...], alive: list[bool], max_len: int):
    """Contract the 2-core (the alive mask) to its kernel multigraph.

    Kernel vertices are those of core degree >= 3; every other core vertex
    lies on exactly one chain, a maximal path of core-degree-2 vertices,
    which is walked once.  Returns (kadj, inner, lone): kadj[v] lists
    (w, length, chain id) for every chain of at most max_len edges between
    distinct kernel vertices v and w, inner[id] holds that chain's interior
    vertices, and lone holds the vertex lists of the cycles that are one
    chain of at most max_len edges: a chain whose two ends are the same
    kernel vertex, and a 2-core component with no kernel vertex (a ring)."""
    n = len(adj)
    nbrs = [[w for w in adj[v] if alive[w]] if alive[v] else [] for v in range(n)]
    kernel = [len(nb) >= 3 for nb in nbrs]
    walked = [False] * n
    kadj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    inner: list[list[int]] = []
    lone: list[list[int]] = []

    def walk(prev: int, cur: int) -> tuple[list[int], int]:
        """The core-degree-2 vertices from cur onwards (away from prev) up
        to the first kernel vertex or already walked vertex, and that end."""
        interior = []
        while not kernel[cur] and not walked[cur]:
            walked[cur] = True
            interior.append(cur)
            a, b = nbrs[cur]
            prev, cur = cur, (b if a == prev else a)
        return interior, cur

    for u in range(n):
        if not kernel[u]:
            continue
        for w in nbrs[u]:
            if kernel[w]:
                if u > w:
                    continue   # a one-edge chain, taken from its lower end
                interior, end = [], w
            elif walked[w]:
                continue       # walked from its other end
            else:
                interior, end = walk(u, w)
            if len(interior) >= max_len:
                continue       # longer than max_len edges
            if end == u:
                lone.append([u] + interior)
            else:
                kadj[u].append((end, len(interior) + 1, len(inner)))
                kadj[end].append((u, len(interior) + 1, len(inner)))
                inner.append(interior)
    for v in range(n):
        if nbrs[v] and not walked[v] and not kernel[v]:
            ring, _ = walk(nbrs[v][0], v)
            if len(ring) <= max_len:
                lone.append(ring)
    return kadj, inner, lone


def _chain_distances(kadj: list[list[tuple[int, int, int]]], root: int, radius: int) -> dict[int, int]:
    """Chain-length (weighted) distances from root, up to radius, along
    chains whose kernel vertices past the root all lie above it.  Chain
    lengths are positive integers, so one bucket per distance replaces the
    heap (Dial's algorithm)."""
    dist = {root: 0}
    buckets: list[list[int]] = [[root]] + [[] for _ in range(radius)]
    for d, bucket in enumerate(buckets):
        for u in bucket:
            if dist[u] < d:
                continue   # settled at a shorter distance
            for w, length, _ in kadj[u]:
                e = d + length
                if w > root and e <= radius and e < dist.get(w, e + 1):
                    dist[w] = e
                    buckets[e].append(w)
    return dist


def simple_cycle_counts(
    h: Graph, max_len: int, budget: int = 20_000_000, collect_vertices: bool = False
) -> tuple[dict[int, int], bool] | tuple[dict[int, int], bool, set[int]]:
    """Count simple cycles per length 3..max_len.

    Returns (counts, completed); the optional third element collects all
    vertices lying on counted cycles.  See _cycle_scan for the method and
    the budget."""
    counts, completed, shortest = _cycle_scan(
        h.adjacency(), (h.core_numbers() >= 2).tolist(), max_len, budget, collect_vertices
    )
    if collect_vertices:
        return counts, completed, set(shortest)
    return counts, completed


def _lower(table: dict[int, int], keys, length: int) -> None:
    """table[k] = min(table[k], length) for each key, absent keys included."""
    for k in keys:
        if length < table.get(k, length + 1):
            table[k] = length


def _cycle_scan(
    adj: tuple[tuple[int, ...], ...], alive: list[bool], max_len: int, budget: int, collect: bool
) -> tuple[dict[int, int], bool, dict[int, int]]:
    """(counts, completed, shortest) of the simple cycles of lengths
    3..max_len in the graph adj, whose 2-core is the alive mask.  When
    collect is set, shortest maps each vertex on a counted cycle to the
    length of the shortest counted cycle through it; otherwise it is empty.

    Cycles live in the 2-core, and they are counted on its kernel
    multigraph (see ``_contract_core``): the kernel vertices are the core
    vertices of core degree >= 3, and each maximal chain of core-degree-2
    vertices between two of them becomes one edge weighted by its length
    and labelled by a chain id.  A simple cycle of the graph is a simple
    cycle of that multigraph of the same total length.  Chains longer than
    max_len lie on no counted cycle and are dropped.  A cycle that is one
    chain (a chain whose ends coincide, or a 2-core component with no
    kernel vertex) is counted directly.

    Every other cycle uses at least two chains and is counted once, rooted
    at its least kernel vertex r.  The depth-first search from r walks
    chains through kernel vertices > r, none twice.  On reaching a kernel
    vertex w it closes a cycle through each chain from w to r whose id
    exceeds the id of the first chain taken, the dedup rule: it drops the
    reverse traversal of each cycle and any return along the first chain,
    so r's largest-id chain is never taken first.

    The search is pruned by the distance back to r.  Let dist be the
    chain-length distance from r over r and the kernel vertices > r.  A
    chain of length L from a path of length d to a kernel vertex w is
    followed only if d + L + dist(w) <= max_len: the path returns to r
    inside that subgraph, so it takes at least dist(w) more edges.  The
    cycles it closes at w are counted then, and w is pushed to go on only
    if d + L <= max_len - 2, since going on takes two chains or more.
    Every kernel vertex of a counted cycle splits it into two paths to r,
    one of length at most max_len // 2, so the distances stop at that
    radius.  The pruning is exact: the counts and the shortest lengths are
    those of an unpruned search over all simple cycles.

    ``budget`` caps the kernel DFS steps (one per kernel vertex pushed or
    popped); cycles that are one chain take none.  When it runs out,
    completed is False, the counts are lower bounds and shortest covers
    the cycles counted so far.
    """
    kadj, inner, lone = _contract_core(adj, alive, max_len)
    counts = {k: 0 for k in range(3, max_len + 1)}
    shortest: dict[int, int] = {}     # kernel vertex -> shortest counted cycle through it
    chain_shortest: dict[int, int] = {}   # chain id -> the same, for the chains
    for cycle in lone:
        counts[len(cycle)] += 1
        if collect:
            _lower(shortest, cycle, len(cycle))
    limit = max_len - 2
    steps = budget
    completed = True
    try:
        for root in range(len(adj)):
            if sum(w > root for w, _, _ in kadj[root]) < 2:
                continue   # root is the least kernel vertex of no cycle
            # the longest path length at which each kernel vertex may be reached
            reach = {v: max_len - d for v, d in _chain_distances(kadj, root, max_len // 2).items()}
            del reach[root]
            closers: dict[int, list[tuple[int, int]]] = {}   # w -> (length, id) of w-root chains
            for w, length, cid in kadj[root]:
                if w in reach:
                    closers.setdefault(w, []).append((length, cid))
            top = max((cid for chains in closers.values() for _, cid in chains), default=-1)
            # iterative DFS over simple kernel paths from root; a frame is
            # (path length, chains left to try), and used holds the path's
            # chain ids
            stack = [(0, iter([c for c in kadj[root] if c[0] in reach and c[2] != top]))]
            path = [root]
            used: list[int] = []
            in_path = {root}
            while stack:
                steps -= 1
                if steps < 0:
                    raise BudgetExceeded
                d, chains = stack[-1]
                for w, length, cid in chains:
                    d_w = d + length
                    if d_w > reach[w] or w in in_path:
                        continue
                    if w in closers:
                        first = used[0] if used else cid
                        for back, last in closers[w]:
                            length = d_w + back
                            if last > first and length <= max_len:
                                counts[length] += 1
                                if collect:
                                    _lower(shortest, (*path, w), length)
                                    _lower(chain_shortest, (*used, cid, last), length)
                    if d_w <= limit:   # the way on takes two chains or more
                        path.append(w)
                        used.append(cid)
                        in_path.add(w)
                        stack.append((d_w, iter([c for c in kadj[w] if c[0] in reach])))
                        break
                else:
                    stack.pop()
                    if used:
                        used.pop()
                        in_path.remove(path.pop())
    except BudgetExceeded:
        completed = False
    for cid, length in chain_shortest.items():
        for v in inner[cid]:   # an interior vertex lies on its chain only
            shortest[v] = length
    return counts, completed, shortest


# -- the admissibility check ----------------------------------------------------


def check_admissible(
    h: Graph,
    consts: AdmissibilityConstants,
    set_budget: int = 2_000_000,
    cycle_budget: int = 20_000_000,
) -> AdmissibilityReport:
    """Evaluate the five conditions on h; see the module docstring."""
    consts.validate()
    if h.n == 0:
        raise ValueError("graph must have at least one vertex")
    results: dict[str, ConditionResult] = {}

    # (i) and (ii): rho* <= (floor(x n) - 1) / n <= x - 1/n passes both,
    # with room for their float comparisons
    x = min(consts.xi, consts.zeta)
    gamma = Fraction(math.floor(x * h.n) - 1, h.n)
    if gamma > 0 and not density_exceeds(h, gamma):
        results["density_cap"] = results["small_set_density"] = ConditionResult("pass")
    else:
        dens = densest_subgraph_exact(h)
        size = len(dens.best_subset)
        if dens.witness_edges > consts.xi * size:
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

    adj = h.adjacency()
    core = h.core_numbers()
    t, max_len = consts.tiny_component_cap, consts.cycle_len_cap
    # the shortest cycles are needed for (iv) only if the scan reaches length t
    counts, completed, shortest = _cycle_scan(adj, (core >= 2).tolist(), max_len, cycle_budget, t <= max_len)
    near = shortest if completed and t <= max_len else None
    results["local_unicyclicity"] = _check_tiny_components(adj, core, t, near, set_budget)
    results["cycle_counts"] = _check_cycle_counts(counts, completed, consts, cycle_budget)
    return AdmissibilityReport(conditions=results)


def _check_small_sets(h, consts, dens, set_budget) -> ConditionResult:
    if float(dens.density) <= consts.zeta:
        return ConditionResult("pass")   # no subset of any size violates zeta
    subset = list(dens.best_subset)
    if len(subset) <= consts.small_set_cap:
        return ConditionResult("fail", {"subset": subset, "edges": h.edges_within(subset)})
    shrunk = _shrink_violator(h, subset, consts.zeta)
    if len(shrunk) <= consts.small_set_cap:
        return ConditionResult("fail", {"subset": shrunk, "edges": h.edges_within(shrunk)})
    alive = (h.core_numbers() >= math.floor(consts.zeta) + 1).tolist()
    return _first_dense_set(h.adjacency(), alive, consts.small_set_cap, consts.zeta, set_budget)


def _shrink_violator(h: Graph, subset: list[int], ratio: float) -> list[int]:
    """Greedily peel to an inclusion-minimal set with edges > ratio * size:
    remove the first member, in (global degree, id) order, whose removal
    keeps the ratio exceeded, and start over.  In-set degrees make a trial
    O(1)."""
    current = set(subset)
    din = {v: sum(w in current for w in h.neighbors(v)) for v in current}
    edges = sum(din.values()) // 2
    order = sorted(current, key=lambda u: (h.degree(u), u))
    while True:
        size = len(current) - 1
        v = next((v for v in order if v in current and edges - din[v] > ratio * size), None)
        if v is None:
            return sorted(current)
        current.remove(v)
        edges -= din[v]
        for w in h.neighbors(v):
            if w in current:
                din[w] -= 1


def _first_dense_set(
    adj: tuple[tuple[int, ...], ...], alive: list[bool], cap: int, ratio: float, set_budget: int
) -> ConditionResult:
    """Fail on the first connected set of at most cap alive vertices with
    more than ratio * size edges; undecided when set_budget sets were
    enumerated without one, pass otherwise.  Every inclusion-minimal such
    set has minimum degree above ratio inside it, so an alive mask that
    holds the (floor(ratio) + 1)-core loses none."""
    budget = [set_budget]
    try:
        for sub, edges in _connected_sets(adj, alive, cap, budget):
            if edges > ratio * len(sub):
                return ConditionResult("fail", {"subset": list(sub), "edges": edges})
    except BudgetExceeded:
        return ConditionResult("undecided", {"stage": "connected_sets", "budget": set_budget})
    return ConditionResult("pass")


def _check_tiny_components(
    adj: tuple[tuple[int, ...], ...],
    core: np.ndarray,
    t: int,
    shortest: dict[int, int] | None,
    set_budget: int,
) -> ConditionResult:
    """Condition (iv): no connected set of at most t vertices has more
    edges than vertices.  shortest maps every vertex on a cycle of length
    <= t to the length of its shortest cycle, or is None when the cycle
    scan did not cover length t.  With it, the enumeration runs over the
    2-core vertices within max(0, t - 6) hops of such a vertex; without
    it, over the whole 2-core.  The module docstring says why the smaller
    region loses no inclusion-minimal violator."""
    if shortest is None:
        return _first_dense_set(adj, (core >= 2).tolist(), t, 1, set_budget)
    seeds = [v for v, length in shortest.items() if length <= t]
    region = _bfs(adj, seeds, max(0, t - 6), within=set(np.flatnonzero(core >= 2).tolist()))
    return _first_dense_set(adj, [v in region for v in range(len(adj))], t, 1, set_budget)


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
    _, completed, verts = simple_cycle_counts(h, c_big, collect_vertices=True)
    if not completed:
        raise BudgetExceeded("cycle enumeration for good sets ran out of budget")
    return verts


def is_good_set(h: Graph, a: set[int], c_big: int) -> GoodSetResult:
    """True iff members of a are pairwise farther than 2C+2 apart and
    farther than C from every cycle of length <= C."""
    adj = h.adjacency()
    a_sorted = sorted(int(v) for v in a)
    near_cycles = _bfs(adj, _short_cycle_vertices(h, c_big), c_big)
    for v in a_sorted:
        if v in near_cycles:
            return GoodSetResult(False, {"vertex": v, "reason": "within C of a short cycle"})
    taken: set[int] = set()
    for v in a_sorted:
        hit = taken.intersection(_bfs(adj, [v], 2 * c_big + 2))
        if hit:
            return GoodSetResult(False, {"pair": [min(hit), v], "reason": "closer than 2C+2"})
        taken.add(v)
    return GoodSetResult(True)


def find_good_set(h: Graph, b: set[int], k_target: int, c_big: int) -> tuple[int, ...]:
    """Greedy good subset of b: drop vertices near short cycles, then add
    candidates in ascending id whose (2C+2)-ball avoids the current set.
    Returns the first k_target vertices found, or the maximal set if the
    greedy runs out (a shortfall, not an error)."""
    adj = h.adjacency()
    blocked = _bfs(adj, _short_cycle_vertices(h, c_big), c_big)
    chosen: list[int] = []
    covered: set[int] = set()
    for v in sorted(int(u) for u in b):
        if v in blocked or v in covered:
            continue
        chosen.append(v)
        if len(chosen) == k_target:
            break
        covered.update(_bfs(adj, [v], 2 * c_big + 2))
    return tuple(chosen)
