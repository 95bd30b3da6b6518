"""Exact maximum subgraph density and the empirical rho curve.

The maximizer of |E(U)|/|U| is found through the classical flow reduction
(Goldberg 1984): for a guess gamma = a/b, a network with doubled internal
arcs of capacity b and one terminal arc per vertex (source->v with
capacity b*deg(v) - 2a if that is positive, v->sink with capacity
2a - b*deg(v) if it is negative) has minimum cut
2bm - base - 2 max_U (b|E(U)| - a|U|), base = sum_v min(b*deg(v), 2a), so
one max-flow (solved from the sink end, see _cut_side) decides whether
any subgraph beats gamma and exhibits a better one when it exists: the
maximal source side of the minimum cut, the union of all maximizers of
|E(U)| - gamma|U|, which one BFS over the residual graph finds.  Guesses
are refined Newton-style (each new guess is the density actually attained
by the last witness), which keeps all capacities integral and small; the
attainable densities are rationals with denominator <= n, so the loop
terminates at the exact optimum.

Three facts cut the work without touching exactness.  The first guess
gamma_0 is the best density among the whole graph and its k-cores, read
off one vectorised core peel; every guess is an attained density, so
gamma_0 <= rho*.  Each flow runs on the ceil(gamma)-core only: a
maximizer U of |E(U)| - gamma|U| loses by dropping any vertex, so every
vertex has at least gamma neighbours in U and U lies in that core.  And
the maximizers at a larger gamma lie inside those at a smaller one (the
parametric min cuts nest, Gallo, Grigoriadis & Tarjan 1989), so each
Newton step after the first runs inside the last witness, the maximal
maximizer at the last guess.  The flow at
gamma = rho* ends the loop; its maximal source side is the union of all
densest subsets (the maximal densest subgraph, unique because densest
sets are closed under union), and that is the reported maximizer.  When
only "rho* <= gamma?" is asked, density_exceeds answers with at most one
flow, at gamma on the ceil(gamma)-core, and with none at gamma <= 1
(see there).  A float level x is taken at its exact value (17 edges on 10
vertices exceed xi = (1.4 + 2)/2, whose float lies below 17/10), and
"rho* <= x?" is one such call at level_below(x, n).

rho(lambda), the large-n limit of the maximum density of G(n, lambda/n),
has no usable closed form; harness.run_rho_curve estimates it by Monte
Carlo over exact solves, and this module fits the curve's monotone
envelope and inverts it (rho_inverse).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, maximum_flow

from .graphs import Graph, check_real

__all__ = [
    "DensityResult",
    "RhoCurve",
    "LambdaStarEstimate",
    "densest_subgraph_exact",
    "density_exceeds",
    "level_below",
    "rho_inverse",
    "isotonic_fit",
]


@dataclass(frozen=True)
class DensityResult:
    """A certified maximizer of the edge-vertex ratio."""

    best_subset: tuple[int, ...]
    density: Fraction
    witness_edges: int

    def __post_init__(self) -> None:
        if not self.best_subset:
            raise ValueError("maximizer must be nonempty")


def _cut_side(n: int, edges: np.ndarray, gamma: Fraction) -> tuple[bool, np.ndarray, int]:
    """One integer max-flow on the reduction network of the graph with
    vertices [0, n) and the (m, 2) edge array `edges`, at gamma = a/b.

    The network has doubled internal arcs of capacity b and one terminal
    arc per vertex: source->v with capacity b*deg(v) - 2a when that is
    positive, v->sink with capacity 2a - b*deg(v) when it is negative, none
    when it is 0.  Its cuts are the textbook network's (source->v capacity
    b*deg(v), v->sink capacity 2a) less the same constant
    base = sum_v min(b*deg(v), 2a), so both networks have the same minimum
    cuts and the same minimal and maximal source sides.  The solver runs on
    the reversed network, from the sink to the source, which has the same
    maximum flow value: from that end, where the many low-degree vertices
    (b*deg(v) < 2a) hang, scipy's Dinic solver took 10-25% less time on
    the flows of sparse G(n, c/n) draws (n from 1e3 to 3e4).

    Every terminal arc comes with a zero-capacity reverse, as each internal
    arc already has, so the flow matrix scipy returns has the network's own
    structure (checked on every call) and the residual capacities are
    written over the flow values, one entry per arc.  The residual graph
    of the reversed network is the transpose of the forward one: the
    vertices the sink reaches in it are those that reach the sink in the
    forward residual graph, so one BFS from the sink finds the maximal
    source side for both outcomes.

    Returns (improved, side, side_edges), side the maximal source side:
    the union of all maximizers of b|E(U)| - a|U|.  When some U makes that
    positive (improved), side is such a U, so its density exceeds gamma;
    otherwise, at gamma = rho*, it is the maximal densest subgraph.  Its
    edge count, read off the edge arrays, is checked against the cut
    identity 2(b|E(U)| - a|U|) = 2bm - base - flow_value.
    """
    m = len(edges)
    a, b = gamma.numerator, gamma.denominator
    src, dst = n, n + 1
    deg = np.bincount(edges.ravel(), minlength=n)
    excess = b * deg - 2 * a
    base = int(np.minimum(b * deg, 2 * a).sum())
    out, into = np.flatnonzero(excess > 0), np.flatnonzero(excess < 0)
    terminal = np.concatenate([np.full(out.size, src), into])
    ends = np.concatenate([out, np.full(into.size, dst)])
    rows = np.concatenate([terminal, edges[:, 0], edges[:, 1], ends])
    cols = np.concatenate([ends, edges[:, 1], edges[:, 0], terminal])
    caps = np.concatenate([
        excess[out], -excess[into], np.full(2 * m, b, dtype=np.int64), np.zeros(terminal.size, dtype=np.int64)
    ])
    if caps.size and caps.max() >= 2**31:
        raise OverflowError("capacities exceed the 32-bit flow solver range")
    # every arc reversed: the solver runs from the sink to the source
    graph = csr_matrix(
        (caps.astype(np.int32), (cols, rows)), shape=(n + 2, n + 2)
    )
    result = maximum_flow(graph, dst, src)
    residual = result.flow
    if not (np.array_equal(residual.indptr, graph.indptr) and np.array_equal(residual.indices, graph.indices)):
        raise AssertionError("the flow matrix does not share the network's structure")
    np.subtract(graph.data, residual.data, out=residual.data)   # capacity - flow, at least 0
    residual.eliminate_zeros()
    cut = base + int(result.flow_value)
    improved = cut < 2 * b * m
    reach = breadth_first_order(residual, dst, directed=True, return_predecessors=False)
    side = np.ones(n, dtype=bool)
    side[reach[reach < n]] = False
    side_edges = int(np.count_nonzero(side[edges[:, 0]] & side[edges[:, 1]]))
    if 2 * (b * side_edges - a * int(side.sum())) != 2 * b * m - cut:
        raise AssertionError("witness edge count disagrees with the minimum cut")
    return improved, np.flatnonzero(side), side_edges


@lru_cache(maxsize=4)
def _vertex_ids(n: int) -> tuple[int, ...]:
    """One shared int object per vertex of an n-vertex graph.  A maximizer
    of G(n, lambda/n) holds a constant fraction of the vertices; building
    best_subset from this table stores a pointer per member instead of a
    fresh int object, which makes a held result about 4x smaller."""
    return tuple(range(n))


def _edge_cores(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Core numbers, the (m, 2) edge array and, per edge, the largest k
    whose k-core holds it."""
    core = g.core_numbers()
    edges = g.edge_array()
    return core, edges, np.minimum(core[edges[:, 0]], core[edges[:, 1]])


def _best_core_density(core: np.ndarray, edge_core: np.ndarray) -> Fraction:
    """The best density among the whole graph and its k-cores, which is
    attained and so at most rho*."""
    # vertex and edge counts of the k-cores, k = 0 .. max core
    core_sizes = np.cumsum(np.bincount(core)[::-1])[::-1]
    core_edges = np.cumsum(np.bincount(edge_core, minlength=core_sizes.size)[::-1])[::-1]
    return max(Fraction(int(e), int(v)) for e, v in zip(core_edges, core_sizes))


def _core_cut(core, edges, edge_core, gamma: Fraction, within=None):
    """_cut_side at gamma on the ceil(gamma)-core, which holds every
    maximizer of |E(U)| - gamma|U| (a member v has deg_U(v) >= gamma, or
    dropping it would gain), intersected with the vertex mask `within` when
    one is given.  Returns the kept vertex ids with the
    (improved, side, side_edges) of the flow, side in local ids."""
    k = math.ceil(gamma)
    keep = core >= k
    kept = edge_core >= k
    if within is not None:
        keep &= within
        kept &= within[edges[:, 0]] & within[edges[:, 1]]
    verts = np.flatnonzero(keep)
    local = np.cumsum(keep) - 1
    return (verts, *_cut_side(verts.size, local[edges.compress(kept, axis=0)], gamma))


def level_below(x: float, n: int) -> Fraction:
    """The largest fraction with denominator <= n at most x (at x's exact
    value), n >= 1: every density of an n-vertex graph is one, so a
    density_exceeds call here decides "rho* <= x" both ways.  Clamping x
    to [-1, n] changes no answer and keeps the integers small.  The
    nearest such fraction c/d is the level if it is at most x; otherwise
    its lower neighbour of order n is, (b c - 1)/d over the largest
    b <= n with b c = 1 (mod d).  x is any finite real (`check_real`)."""
    check_real("x", x)
    x = min(max(Fraction(x if isinstance(x, numbers.Rational) else float(x)), Fraction(-1)), Fraction(n))
    near = x.limit_denominator(n)
    if near <= x:
        return near
    c, d = near.numerator, near.denominator
    b = pow(c, -1, d)
    b += (n - b) // d * d
    return Fraction((b * c - 1) // d, b)


def density_exceeds(g: Graph, gamma: Fraction | int) -> bool:
    """Whether some nonempty vertex set U of g has more than gamma * |U|
    edges, for an int or a Fraction gamma (any rational but a bool; a
    float x is asked at level_below(x, n)).  At gamma <= 1 no flow is run:
    a component with more edges than vertices has rho* > 1 >= gamma, and
    otherwise _at_most_one_cycle gives rho* in closed form.  Above 1 a
    k-core denser than gamma answers yes, an empty ceil(gamma)-core
    answers no, and otherwise one max-flow on that core decides.  No
    proves rho* <= gamma without solving for rho*."""
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Rational):
        raise ValueError(
            f"gamma must be an int or a Fraction, not {type(gamma).__name__}; take a float x at level_below(x, n)"
        )
    gamma = Fraction(gamma)
    if gamma <= 1:   # n = 0 answers no
        return g.n > 0 and ((res := _at_most_one_cycle(g)) is None or res.density > gamma)
    core, edges, edge_core = _edge_cores(g)
    if _best_core_density(core, edge_core) > gamma:
        return True
    if not (core >= math.ceil(gamma)).any():
        return False
    return _core_cut(core, edges, edge_core, gamma)[1]


def densest_subgraph_exact(g: Graph) -> DensityResult:
    """Exact maximizer of |E(U)|/|U| over nonempty U, as a rational: the
    maximal densest subgraph, the union of all densest subsets.

    The Newton loop starts at gamma_0, the best density among the whole
    graph and its k-cores (from `Graph.core_numbers`).  Every flow at
    gamma returns the maximal maximizer A of f_gamma(U) = |E(U)| - gamma|U|,
    the union of all maximizers (one BFS, see _cut_side).  When the flow
    improves, f_gamma(A) > 0, so A is strictly denser than gamma; the next
    guess gamma' is A's density, and its flow runs on G[A] intersected
    with the ceil(gamma')-core only.  The terminating flow, at
    gamma = rho*, returns the maximal densest subgraph (densest sets are
    closed under union).  Continuing from the maximal maximizer rather
    than the least one can take a step more, but stays exact: the nesting
    below holds for every maximizer U of f_gamma, the union included.

    Both restrictions are exact.  A vertex v of a maximizer U of f_gamma
    has deg_U(v) >= gamma, or dropping it would gain, so U lies in the
    ceil(gamma)-core.  And for gamma < gamma', every maximizer W of
    f_gamma' lies inside every maximizer U of f_gamma (the empty set
    counts): |E(.)| is supermodular, |E(U | W)| + |E(U & W)| >=
    |E(U)| + |E(W)|, and |U | W| = |U| + |W - U|, |U & W| = |W| - |W - U|,
    so f_gamma(U | W) + f_gamma'(U & W) >= f_gamma(U) + f_gamma'(W) +
    (gamma' - gamma)|W - U|; the left side is at most
    f_gamma(U) + f_gamma'(W) by maximality, so W - U is empty.  Hence the
    maximizers of f_gamma' over subsets of A are exactly its maximizers
    over all of G, with the same union.

    Graphs whose components each have at most one cycle skip the flows:
    their maximizer has a closed form (_at_most_one_cycle), which a graph
    with m <= n edges is checked for by one connected-components pass.  A
    long path, which no core restriction shrinks, would otherwise take
    minutes of flows.

    Edgeless graphs report density 0 on the singleton {0}.  Distinct
    attainable densities differ by at least 1/(n(n-1)), and every Newton
    step strictly improves the attained value, so the loop is finite.
    """
    if g.n == 0:
        raise ValueError("graph must have at least one vertex")
    if g.edge_count == 0:
        return DensityResult(best_subset=(0,), density=Fraction(0), witness_edges=0)
    res = _at_most_one_cycle(g)
    return _newton(g) if res is None else res


def _at_most_one_cycle(g: Graph) -> DensityResult | None:
    """The maximal densest subgraph in closed form when no component of g
    (with at least one edge) has more edges than vertices, else None.

    Then every component is a tree (m_c = v_c - 1) or unicyclic
    (m_c = v_c), and so is every component of an induced subgraph.  If some
    component is unicyclic, rho* = 1: a subset attains it only if each of
    its components is unicyclic, so it lies in the union of the unicyclic
    components, which attains it too.  Otherwise g is a forest, a subset
    of size k in one tree has at most k - 1 edges, and
    rho* = (V - 1)/V for the largest tree size V, attained exactly by
    unions of whole trees of size V."""
    if g.edge_count > g.n:   # some component has more edges than vertices
        return None
    n, edges = g.n, g.edge_array()
    ncomp, label = connected_components(
        csr_matrix((np.ones(len(edges), dtype=np.int8), (edges[:, 0], edges[:, 1])), shape=(n, n)),
        directed=False,
    )
    verts = np.bincount(label, minlength=ncomp)
    arcs = np.bincount(label[edges[:, 0]], minlength=ncomp)
    if (arcs > verts).any():
        return None
    chosen = arcs == verts
    if chosen.any():
        density = Fraction(1)
    else:
        chosen = verts == verts.max()
        density = Fraction(int(verts.max()) - 1, int(verts.max()))
    ids = _vertex_ids(n)
    return DensityResult(
        best_subset=tuple(map(ids.__getitem__, np.flatnonzero(chosen[label]).tolist())),
        density=density,
        witness_edges=int(arcs[chosen].sum()),
    )


def _newton(g: Graph) -> DensityResult:
    """The Newton/flow route of densest_subgraph_exact, for any graph with
    at least one edge."""
    core, edges, edge_core = _edge_cores(g)
    val = _best_core_density(core, edge_core)
    within = None
    for _ in range(2 * g.n * g.n + 8):
        verts, improved, side, side_edges = _core_cut(core, edges, edge_core, val, within)
        if not improved:
            if side.size == 0 or Fraction(side_edges, side.size) != val:
                raise AssertionError("maximal source side is not a densest subgraph")
            ids = _vertex_ids(g.n)
            return DensityResult(
                best_subset=tuple(map(ids.__getitem__, verts[side].tolist())),
                density=val,
                witness_edges=side_edges,
            )
        cand = Fraction(side_edges, side.size)
        if cand <= val:
            raise AssertionError("flow witness failed to improve the density")
        val = cand
        within = np.zeros(g.n, dtype=bool)
        within[verts[side]] = True
    raise AssertionError("density refinement did not terminate")


# -- the rho curve ------------------------------------------------------------


@dataclass(frozen=True)
class RhoCurve:
    """rho estimates over a lambda grid, with uncertainty."""

    lambda_grid: tuple[float, ...]
    rho_hat: tuple[float, ...]
    stderr: tuple[float, ...]
    size_q05: tuple[float, ...]
    size_q50: tuple[float, ...]
    n_used: int

    def __post_init__(self) -> None:
        k = len(self.lambda_grid)
        if not k:
            raise ValueError("empty grid")
        if any(len(t) != k for t in (self.rho_hat, self.stderr, self.size_q05, self.size_q50)):
            raise ValueError("curve columns must share the grid length")
        if list(self.lambda_grid) != sorted(self.lambda_grid):
            raise ValueError("grid must be sorted")

    def isotonic(self) -> np.ndarray:
        return isotonic_fit(np.asarray(self.rho_hat))


def isotonic_fit(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit: the closest non-decreasing sequence."""
    blocks: list[tuple[float, int]] = []   # (mean, count) per pooled block
    for v in values:
        blocks.append((float(v), 1))
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append(((v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2))
    return np.repeat([v for v, _ in blocks], [w for _, w in blocks])


_STDERR_BAND = 2.0   # half-width of rho_inverse's interval, in stderrs


@dataclass(frozen=True)
class LambdaStarEstimate:
    """Inverted threshold estimate with a stderr-band interval."""

    lambda_star: float
    lo: float
    hi: float


def _invert_monotone(grid: np.ndarray, values: np.ndarray, target: float) -> float:
    """Leftmost lambda where the piecewise-linear interpolant of the
    non-decreasing values reaches target, for target <= values[-1]: on the
    segment that ends at the first knot at or above target."""
    k = int(np.searchsorted(values, target, side="left"))
    if k == 0:
        return float(grid[0])
    x0, x1, y0, y1 = grid[k - 1], grid[k], values[k - 1], values[k]
    return float(x0 + (target - y0) / (y1 - y0) * (x1 - x0))


def rho_inverse(target: float, curve: RhoCurve) -> LambdaStarEstimate:
    """lambda* estimate: invert the isotonic rho curve at `target`.

    The interval comes from inverting the curve shifted by +-2 stderr
    (_STDERR_BAND); targets outside the observed isotonic range are refused
    rather than extrapolated.
    """
    grid = np.asarray(curve.lambda_grid)
    iso = curve.isotonic()
    if not (iso[0] <= target <= iso[-1]):
        raise ValueError(
            f"target {target} outside the observed rho range [{iso[0]}, {iso[-1]}]; refusing to extrapolate"
        )
    se = np.asarray(curve.stderr)
    center = _invert_monotone(grid, iso, target)
    upper_curve = isotonic_fit(np.asarray(curve.rho_hat) + _STDERR_BAND * se)
    lower_curve = isotonic_fit(np.asarray(curve.rho_hat) - _STDERR_BAND * se)
    lo = _invert_monotone(grid, upper_curve, target) if target <= upper_curve[-1] else float(grid[-1])
    hi = _invert_monotone(grid, lower_curve, target) if target <= lower_curve[-1] else float(grid[-1])
    return LambdaStarEstimate(lambda_star=center, lo=min(lo, hi), hi=max(lo, hi))

