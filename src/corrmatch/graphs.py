"""Graphs, vertex matchings, and the correlated generative law.

Two n-vertex graphs are produced by independently keeping each edge of a
common parent G(n, p) with probability s.  One copy lives on V, the other
is relabeled through a hidden uniform bijection pi*.  Marginally each copy
is G(n, ps); edge pairs (G_e, Gbar at the pi*-image of e) are correlated
through the shared parent indicator.

Vertices of both sides are indices [0, n); a Bijection carries the
distinction between V and the matched side.  Every entry point reads its
inputs by two rules: a vertex count n is an integer in [0, isqrt(2**63)]
(`_count`), and vertex ids are integer arrays of one shape, with entries in
[0, n) (`_ids`), 1-D for the graph builders and Bijection.  Anything else
raises ValueError.  Package-wide, the parts of a pair share one n through
`check_sizes`, and vertex sets are read through `vertex_set`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import stream

__all__ = [
    "Graph",
    "Bijection",
    "ModelParams",
    "CorrelatedSample",
    "check_sizes",
    "vertex_set",
    "pair_pmf",
    "sample_correlated",
    "sample_independent",
    "sample_er",
    "intersection_graph",
    "overlap",
    "relabel",
]


_N_MAX = math.isqrt(2**63)   # the largest n with every pair key u*n + v below 2**63
_BOOLS = {bool, np.bool_}


def _pack(n: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    return us.astype(np.int64) * n + vs.astype(np.int64)


def _int_ids(values, out_of_range: str) -> np.ndarray:
    """values as an int64 array, with no copy when they already are one.
    A float, bool or other non-integer entry raises ValueError instead of
    being truncated (a bool also among the ints of a sequence, which numpy
    reads as 0 or 1); an integer past int64 raises ValueError(out_of_range).
    Unsigned entries past int64 wrap to negatives, which `_ids` refuses."""
    if not isinstance(values, np.ndarray) and not _BOOLS.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
        raise ValueError("vertex ids must be integers, got a bool")
    arr = np.asarray(values)
    if arr.dtype.kind == "O":   # Python ints past int64, or mixed objects
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in arr.flat):
            raise ValueError("vertex ids must be integers")
        try:
            return arr.astype(np.int64)
        except OverflowError:
            raise ValueError(out_of_range) from None
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _count(n) -> int:
    """n as an int if it is an integer in [0, _N_MAX] (no bool), else ValueError."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > _N_MAX:
        raise ValueError(f"vertex count {n} exceeds {_N_MAX}, the most whose pair keys fit in an int64")
    return int(n)


def _ids(n: int, out_of_range: str, *arrays, ndim: int | None = None) -> list[np.ndarray]:
    """The arrays through `_int_ids`, all of one shape (of ndim axes if given),
    else ValueError; an entry outside [0, n) raises ValueError(out_of_range)."""
    ids = [_int_ids(a, out_of_range) for a in arrays]
    shapes = [a.shape for a in ids]
    if shapes.count(shapes[0]) != len(shapes) or ndim not in (None, len(shapes[0])):
        raise ValueError(f"vertex ids must share one {'' if ndim is None else f'{ndim}-D '}shape, got {shapes}")
    for a in ids:
        if a.size and (a.min() < 0 or a.max() >= n):
            raise ValueError(out_of_range)
    return ids


class Graph:
    """Simple undirected graph on n labeled vertices, in O(n + m) memory.

    Edges are canonical unordered pairs (u, v) with u < v, stored as a
    sorted array of private keys u*n + v (hence n <= _N_MAX), which the
    vector query `has_edges` searches and `intersection_graph` merges; a
    build sorts them only when they arrive out of order.  The one
    neighbour layout, the compressed sparse rows `csr()` (one sort of the
    2m directed keys), is built on first use; the degrees, the peels,
    `neighbors` and every walk over the graph read it.  A graph read only
    through its keys, such as the two sides of a correlated pair that
    `intersection_graph` compares, never sorts its rows.  Instances are
    immutable.
    """

    __slots__ = ("n", "_packed", "_offsets", "_columns", "_degrees", "_core")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        arr = _int_ids(list(edges) or np.empty((0, 2), dtype=np.int64), "edge endpoint out of range")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be vertex pairs")
        self._build(n, arr[:, 0], arr[:, 1])

    @classmethod
    def from_arrays(cls, n: int, us: np.ndarray, vs: np.ndarray) -> "Graph":
        """Build from 1-D endpoint arrays of one length; pairs must be distinct."""
        g = cls.__new__(cls)
        g._build(n, us, vs)
        return g

    def _build(self, n: int, us, vs) -> None:
        """Check n and the endpoints, then keep the canonical pair keys,
        ascending.  Keys that arrive strictly ascending (as from `sample_er`
        or `intersection_graph`) are distinct already; any others are
        sorted and checked for a repeat."""
        self.n = n = _count(n)
        us, vs = _ids(n, "edge endpoint out of range", us, vs, ndim=1)
        lo, hi = np.minimum(us, vs), np.maximum(us, vs)
        if (lo == hi).any():
            raise ValueError("self-loops are not allowed")
        keys = _pack(n, lo, hi)   # a fresh array: the caller's stay theirs
        if not (keys[1:] > keys[:-1]).all():
            keys.sort()
            if (keys[1:] == keys[:-1]).any():
                raise ValueError("duplicate edge")
        keys.flags.writeable = False
        self._packed = keys
        self._offsets = self._columns = self._degrees = self._core = None

    # -- basic queries ----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return int(self._packed.size)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(p // self.n), int(p % self.n)) for p in self._packed)

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 array of canonical edges in sorted order."""
        if self._packed.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.column_stack([self._packed // self.n, self._packed % self.n])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.has_edges(u, v))

    def has_edges(self, us, vs) -> np.ndarray:
        """Vector has_edge over endpoint arrays of one shape: a bool array of
        that shape, True where (us[i], vs[i]) is an edge, in either order,
        and False where the two endpoints are equal."""
        us, vs = _ids(self.n, "vertex out of range", us, vs)
        keys = _pack(self.n, np.minimum(us, vs), np.maximum(us, vs))
        if self._packed.size == 0:
            return np.zeros(np.shape(keys), dtype=bool)
        return self._packed.take(self._packed.searchsorted(keys), mode="clip") == keys

    def degree(self, u: int) -> int:
        (u,) = _ids(self.n, "vertex out of range", u, ndim=0)
        return int(self.degrees[u])

    @property
    def degrees(self) -> np.ndarray:
        """Every vertex's degree, as a read-only array."""
        self.csr()
        return self._degrees

    def neighbors(self, u: int) -> list[int]:
        """u's neighbours in ascending order, as a fresh list."""
        (u,) = _ids(self.n, "vertex out of range", u, ndim=0)
        offsets, columns = self.csr()
        return columns[offsets[u]:offsets[u + 1]].tolist()

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Compressed sparse rows (offsets, columns): vertex v's neighbours,
        ascending, are columns[offsets[v]:offsets[v + 1]].  The graph is
        immutable, so the rows are built on the first call, by one sort of
        the 2m directed keys, and later calls return the same read-only
        arrays."""
        if self._columns is None:
            n = self.n
            lo, hi = np.divmod(self._packed, n)
            keys = np.sort(np.concatenate([self._packed, _pack(n, hi, lo)]))
            self._degrees = np.bincount(keys // n, minlength=n)
            self._offsets = np.concatenate([[0], np.cumsum(self._degrees)])
            self._columns = keys % n
            for arr in (self._degrees, self._offsets, self._columns):
                arr.flags.writeable = False
        return self._offsets, self._columns

    def core_numbers(self) -> np.ndarray:
        """Each vertex's core number: the largest k such that the k-core,
        the maximal subgraph of minimum degree >= k, contains it.  The
        k-core's vertex mask is therefore `core_numbers() >= k`.

        Peels in vectorised rounds.  Level k starts at the least remaining
        degree; each round removes every remaining vertex of degree <= k at
        once, and the next round looks only at the neighbours whose degree
        just fell.  Each vertex is removed once and each arc is followed
        once, so the work is O(n + m) numpy element operations, O(n) more per
        level and a few numpy calls per round; a long chain costs one round
        per vertex peeled from each of its ends.  The graph is immutable, so
        the peel runs once and later calls return the same read-only array.
        """
        if self._core is not None:
            return self._core
        n = self.n
        starts, columns = self.csr()
        degree, core = self._degrees.copy(), np.zeros(n, dtype=np.int64)
        alive = np.ones(n, dtype=bool)
        left = n
        while left:
            k = int(degree[alive].min())
            batch = np.flatnonzero(alive & (degree <= k))
            while batch.size:
                alive[batch] = False
                core[batch] = k
                left -= batch.size
                lens = self._degrees[batch]
                ends = np.cumsum(lens)
                arcs = np.arange(ends[-1]) + np.repeat(starts[batch] - ends + lens, lens)
                hit = columns[arcs]
                hit, drops = np.unique(hit[alive[hit]], return_counts=True)
                degree[hit] -= drops
                batch = hit[degree[hit] <= k]
        core.flags.writeable = False
        self._core = core
        return core

    def edges_within(self, vertices: Iterable[int]) -> int:
        """Number of edges with both endpoints in the given vertex set."""
        (members,) = _ids(self.n, "vertex out of range", list(vertices), ndim=1)
        inside = np.zeros(self.n, dtype=bool)
        inside[members] = True
        return int(np.count_nonzero(inside[self.edge_array()].all(axis=1)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._packed.shape == other._packed.shape
            and bool(np.all(self._packed == other._packed))
        )

    def __hash__(self) -> int:
        return hash((self.n, self._packed.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Edge-list format: 'n m' header, then one 'u v' line per edge."""
        lines = [f"{self.n} {self.edge_count}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Graph":
        if not isinstance(text, str):
            raise ValueError(f"edge list must be a string, got {type(text).__name__}")
        rows = [line.split() for line in text.strip().splitlines() if line.strip()]
        if not rows or len(rows[0]) != 2:
            raise ValueError("malformed header; expected 'n m'")
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise ValueError(f"header promises {m} edges, found {len(rows) - 1}")
        for r in rows[1:]:
            if len(r) != 2:
                raise ValueError(f"malformed edge row {' '.join(r)!r}; expected 'u v'")
        ends = [[int(r[i]) for r in rows[1:]] for i in (0, 1)]
        return cls.from_arrays(n, *ends)   # refuses a repeated edge


class Bijection:
    """A matching between two n-vertex index sets, with its inverse."""

    __slots__ = ("n", "forward", "inverse")

    def __init__(self, forward: Sequence[int] | np.ndarray):
        (fwd,) = _ids(np.size(forward), "image out of range", forward, ndim=1)
        fwd, n = fwd.copy(), fwd.size   # a copy: the caller's array stays writeable
        inv = np.full(n, -1, dtype=np.int64)
        inv[fwd] = np.arange(n, dtype=np.int64)
        if (inv < 0).any():
            raise ValueError("not a permutation")
        fwd.flags.writeable = False
        inv.flags.writeable = False
        self.n = int(n)
        self.forward = fwd
        self.inverse = inv

    @classmethod
    def identity(cls, n: int) -> "Bijection":
        return cls(np.arange(_count(n), dtype=np.int64))

    @classmethod
    def uniform(cls, n: int, rng: np.random.Generator) -> "Bijection":
        return cls(rng.permutation(_count(n)))

    def invert(self) -> "Bijection":
        return Bijection(self.inverse)

    def map_edge(self, u: int, v: int) -> tuple[int, int]:
        u, v = _ids(self.n, "vertex out of range", u, v, ndim=0)
        a, b = int(self.forward[u]), int(self.forward[v])
        return (a, b) if a < b else (b, a)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bijection) and self.n == other.n and bool(np.all(self.forward == other.forward))

    def __hash__(self) -> int:
        return hash(self.forward.tobytes())

    def __repr__(self) -> str:
        return f"Bijection({self.forward.tolist()})"


def check_real(name: str, value) -> None:
    """Refuse a value that is not a real number (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def check_p_s(p: float, s: float) -> None:
    """Refuse a p or s that is not a real number (a bool is not one), a parent
    edge probability p outside (0, 1) or a subsampling one s outside (0, 1]."""
    check_real("p", p)
    check_real("s", s)
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    if not (0.0 < s <= 1.0):
        raise ValueError("s must lie in (0, 1]")


def check_sizes(*parts) -> int:
    """The one vertex count n of the graphs, matchings, params and posterior
    tables given (anything with an `n`); ValueError when they disagree."""
    sizes = [part.n for part in parts]
    if sizes.count(sizes[0]) != len(sizes):
        raise ValueError(f"size mismatch: vertex counts {sizes}")
    return sizes[0]


def vertex_set(n: int, vertices: Iterable[int]) -> np.ndarray:
    """The distinct ids among vertices, ascending, as an int64 array; an id
    that is not an integer in [0, n) raises ValueError, as in `_ids`."""
    return np.unique(_ids(n, "vertex out of range", list(vertices), ndim=1)[0])


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, p, s) of the correlated pair model.

    lam = n * p * s^2 is the mean degree of the intersection graph under the
    true matching.
    """

    n: int
    p: float
    s: float

    def __post_init__(self) -> None:
        if _count(self.n) < 2:
            raise ValueError("n must be at least 2")
        check_p_s(self.p, self.s)

    @property
    def lam(self) -> float:
        return self.n * self.p * self.s**2


@dataclass(frozen=True)
class CorrelatedSample:
    """One draw (pi*, G, Gbar) from the correlated law."""

    params: ModelParams
    pi_star: Bijection
    g: Graph
    g_bar: Graph

    def __post_init__(self) -> None:
        check_sizes(self.params, self.g, self.g_bar, self.pi_star)


# -- sampling -------------------------------------------------------------


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _decode_pairs(n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Linear pair index -> (u, v), u < v, lexicographic order, for
    ascending indices idx (as _sample_distinct returns them): the indices
    with left endpoint u are a run, counted by searching idx for the n
    row starts instead of searching the row starts once per index."""
    u_grid = np.arange(n, dtype=np.int64)
    starts = u_grid * n - u_grid * (u_grid + 1) // 2   # first index with left endpoint u
    us = np.repeat(u_grid, np.diff(np.searchsorted(idx, starts), append=idx.size))
    vs = idx - starts[us] + us + 1
    return us, vs


def _first_appearances(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(the distinct values of draws, which are non-negative, ascending; the
    position where each first appears).  One sort of the keys
    value << shift | position, the position in the low shift bits, when
    every value fits in the 63 - shift bits above them, else one stable
    argsort."""
    size = draws.size
    shift = (size - 1).bit_length()
    if int(draws.max()) >> (63 - shift) == 0:
        keys = draws << shift
        keys |= np.arange(size)
        keys.sort()
        pos = keys & ((1 << shift) - 1)
        values = np.right_shift(keys, shift, out=keys)
    else:
        pos = np.argsort(draws, kind="stable")
        values = draws[pos]
    head = np.ones(size, dtype=bool)
    head[1:] = values[1:] != values[:-1]
    return values[head], pos[head]


def _sample_distinct(rng: np.random.Generator, universe: int, m: int) -> np.ndarray:
    """The first m distinct values of a uniform draw sequence over
    [0, universe) (a uniform m-subset), ascending."""
    if m > universe:
        raise ValueError("cannot sample more indices than the universe holds")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    if 2 * m > universe:
        return np.sort(rng.permutation(universe)[:m]).astype(np.int64)
    draws = np.empty(0, dtype=np.int64)
    while True:
        batch = rng.integers(0, universe, size=max(16, int(1.2 * (m + 8))), dtype=np.int64)
        draws = np.concatenate([draws, batch])
        values, first = _first_appearances(draws)
        if values.size >= m:
            return values.compress(first <= np.partition(first, m - 1)[m - 1])


def sample_er(n: int, q: float, rng: np.random.Generator) -> Graph:
    """One G(n, q) draw: binomial edge count, then a uniform edge set."""
    n = _count(n)
    check_real("edge probability", q)
    if not (0.0 <= q <= 1.0):
        raise ValueError("edge probability must lie in [0, 1]")
    total = _pair_count(n)
    m = int(rng.binomial(total, q)) if total else 0
    idx = _sample_distinct(rng, total, m)
    us, vs = _decode_pairs(n, idx)
    return Graph.from_arrays(n, us, vs)


def pair_pmf(p: float, s: float) -> np.ndarray:
    """Joint law of a matched pair as a 2x2 array: entry [x][y] is
    P(G_e = x, Gbar at the pi*-image of e = y).  Each copy keeps the shared
    parent edge with probability s, so q11 = p s^2, q10 = q01 = ps(1 - s)
    and q00 = 1 - 2ps + ps^2."""
    check_p_s(p, s)
    ps = p * s
    q10 = ps * (1.0 - s)
    return np.array([[1.0 - 2.0 * ps + p * s * s, q10], [q10, p * s * s]])


def sample_correlated(params: ModelParams, seed: int, replicate: int = 0) -> CorrelatedSample:
    """Draw (pi*, G, Gbar): G_e = I_e J_e and Gbar at the pi*-image of e is
    I_e Jbar_e, with I ~ Bern(p) on the parent pairs and J, Jbar ~ Bern(s)
    independent subsampling masks."""
    rng = stream(seed, replicate)
    n = params.n
    pi_star = Bijection.uniform(n, rng)
    total = _pair_count(n)
    parent_m = int(rng.binomial(total, params.p))
    parent_idx = _sample_distinct(rng, total, parent_m)
    keep_g = rng.random(parent_m) < params.s
    keep_gbar = rng.random(parent_m) < params.s
    us, vs = _decode_pairs(n, parent_idx)
    g = Graph.from_arrays(n, us.compress(keep_g), vs.compress(keep_g))
    bus, bvs = pi_star.forward[us.compress(keep_gbar)], pi_star.forward[vs.compress(keep_gbar)]
    g_bar = Graph.from_arrays(n, bus, bvs)
    return CorrelatedSample(params=params, pi_star=pi_star, g=g, g_bar=g_bar)


def sample_independent(params: ModelParams, seed: int, replicate: int = 0) -> tuple[Graph, Graph]:
    """Two independent G(n, ps) draws (the null law for detection)."""
    rng = stream(seed, replicate)
    q = params.p * params.s
    return sample_er(params.n, q, rng), sample_er(params.n, q, rng)


# -- elementary operations -------------------------------------------------


def intersection_graph(g: Graph, g_bar: Graph, pi: Bijection) -> Graph:
    """Graph on V keeping (u,v) iff (u,v) is in g and (pi u, pi v) is in g_bar.

    A sorted merge of the two key arrays: g_bar's edges are mapped back
    through pi's inverse, their keys sorted once and looked up in g's sorted
    keys, so the common keys come out ascending."""
    n = check_sizes(g, g_bar, pi)
    if g.edge_count == 0 or g_bar.edge_count == 0:
        return Graph(n)
    a, b = np.divmod(g_bar._packed, n)
    xs, ys = pi.inverse[a], pi.inverse[b]
    back = np.sort(_pack(n, np.minimum(xs, ys), np.maximum(xs, ys)))
    both = back.compress(g._packed.take(g._packed.searchsorted(back), mode="clip") == back)
    return Graph.from_arrays(n, *np.divmod(both, n))


def overlap(pi1: Bijection, pi2: Bijection) -> int:
    """Number of vertices on which the two matchings agree."""
    check_sizes(pi1, pi2)
    return int(np.count_nonzero(pi1.forward == pi2.forward))


def relabel(g: Graph, pi: Bijection) -> Graph:
    """Image of g under pi; edge count is preserved."""
    n = check_sizes(g, pi)
    arr = g.edge_array()
    return Graph.from_arrays(n, pi.forward[arr[:, 0]], pi.forward[arr[:, 1]])
