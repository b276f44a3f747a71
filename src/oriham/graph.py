"""Oriented-graph core.

An oriented graph is a digraph with no self-loops and no 2-cycles: between
any two vertices there is at most one arc, in at most one direction.  Graphs
are immutable once built; operations that look mutating return fresh values.

Adjacency is stored dually, as per-vertex out-bitsets and in-bitsets packed
into Python ints, so the neighbourhood intersections used heavily by the
gadget enumerations are word-parallel.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

MAX_VERTICES = 4096


class GraphError(Exception):
    """Base class for graph construction and validation errors."""


class SelfLoopError(GraphError):
    """An arc (v, v) was requested."""


class TwoCycleError(GraphError):
    """An arc (u, v) was requested while (v, u) is already present."""


class OutOfRangeError(GraphError):
    """A vertex id lies outside [0, n)."""


class InvalidPathError(GraphError):
    """A vertex sequence is not a directed path in the graph."""


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def nth_bit(mask: int, k: int) -> int:
    """Position of the set bit of rank ``k`` (0-based, ascending) in
    ``mask``, found by binary search on prefix popcounts; ``k`` must be
    below ``mask.bit_count()``."""
    lo, hi = 0, mask.bit_length()  # bits below lo: <= k set; below hi: > k
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask & ((1 << mid) - 1)).bit_count() > k:
            hi = mid
        else:
            lo = mid
    return lo


def augment(root, prefs, owner: dict) -> int | None:
    """Kuhn's augmenting step, iterative, from the unmatched left node
    ``root``: a left node tries the first unvisited right node (a bit) of
    its ``prefs`` masks, in order and each ascending, and descends into its
    owner.  A free one flips the path into ``owner`` (right -> left) and
    returns None; else the mask of visited right nodes, all owned, returns."""
    seen, lefts, rights = 0, [root], []  # rights[i] leads lefts[i] to lefts[i + 1]
    while lefts:
        for mask in prefs[lefts[-1]]:
            if fresh := mask & ~seen:
                break
        else:
            lefts.pop()
            del rights[-1:]
            continue
        low = fresh & -fresh
        seen |= low
        rights.append(low.bit_length() - 1)
        if rights[-1] not in owner:
            for left, right in zip(lefts, rights):
                owner[right] = left
            return None
        lefts.append(owner[rights[-1]])
    return seen


class OrientedGraph:
    """Immutable oriented graph on vertex ids 0..n-1."""

    __slots__ = ("n", "arc_count", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        _check_order(n)
        out = [0] * n
        inn = [0] * n
        count = 0
        for u, v in arcs:
            count += _insert_arc(out, inn, n, u, v)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arc_count", count)
        object.__setattr__(self, "_out", tuple(out))
        object.__setattr__(self, "_in", tuple(inn))

    def __setattr__(self, name, value):
        raise AttributeError("OrientedGraph is immutable")

    # -- construction ------------------------------------------------------

    def add_arc(self, u: int, v: int) -> "OrientedGraph":
        """Return a new graph with arc (u, v) added.

        All prior arcs are preserved.  Raises SelfLoopError, TwoCycleError
        or OutOfRangeError when the arc would break the oriented invariant.
        """
        out = list(self._out)
        inn = list(self._in)
        added = _insert_arc(out, inn, self.n, u, v)
        return OrientedGraph._from_bits(self.n, out, inn, self.arc_count + added)

    @classmethod
    def from_adjacency(cls, adj) -> "OrientedGraph":
        """The graph with an arc u->v for each nonzero ``adj[u, v]``.  Raises
        OutOfRangeError above MAX_VERTICES, SelfLoopError for a nonzero
        diagonal, TwoCycleError for a pair set both ways and GraphError for
        a matrix that is not square."""
        adj = np.asarray(adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise GraphError(f"adjacency matrix of shape {adj.shape} is not square")
        _check_order(len(adj))  # before the boolean copy is allocated
        adj = adj != 0
        both = adj & adj.T  # the diagonal, and each 2-cycle twice
        if both.any():
            loops = np.flatnonzero(both.diagonal())
            if loops.size:
                raise SelfLoopError(f"self-loop ({loops[0]}, {loops[0]}) rejected")
            u, v = np.argwhere(both)[0]
            raise TwoCycleError(f"arcs ({u}, {v}) and ({v}, {u}) form a 2-cycle")
        return cls._from_bits(len(adj), _rows_to_bits(adj), _rows_to_bits(adj.T),
                              int(np.count_nonzero(adj)))

    @classmethod
    def _from_bits(cls, n: int, out: list[int], inn: list[int],
                   arc_count: int) -> "OrientedGraph":
        """Wrap adjacency bitsets that ``_insert_arc`` already validated,
        without inserting the arcs again."""
        _check_order(n)
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "arc_count", arc_count)
        object.__setattr__(g, "_out", tuple(out))
        object.__setattr__(g, "_in", tuple(inn))
        return g

    # -- queries -----------------------------------------------------------

    def check_vertex(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise OutOfRangeError(f"vertex {v} outside [0, {self.n})")
        return v

    def has_arc(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        return bool(self._out[u] >> v & 1)

    def out_bits(self, v: int) -> int:
        return self._out[self.check_vertex(v)]

    def in_bits(self, v: int) -> int:
        return self._in[self.check_vertex(v)]

    def non_out_bits(self, x: int) -> int:
        """Bit set of the vertices y != x with no arc x->y: the partners
        of ``x`` in the non-arc pairs (x, y) that the degree conditions
        and the connector searches range over."""
        return self.full_mask() & ~self.out_bits(x) & ~(1 << x)

    def out_degree(self, v: int) -> int:
        return self.out_bits(v).bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_bits(v).bit_count()

    def degrees(self, v: int) -> tuple[int, int]:
        """(out-degree, in-degree) of ``v``."""
        return self.out_degree(v), self.in_degree(v)

    def min_semidegree(self) -> int:
        """min over all vertices of both out- and in-degree (0 for n=0)."""
        return min(map(int.bit_count, self._out + self._in), default=0)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in iter_bits(self._out[u])]

    def adjacency_matrix(self) -> np.ndarray:
        """n x n uint8 matrix with entry [u, v] = 1 exactly for arcs u->v."""
        width = (self.n + 7) // 8
        raw = b"".join(bits.to_bytes(width, "little") for bits in self._out)
        rows = np.frombuffer(raw, np.uint8).reshape(self.n, width)
        return np.unpackbits(rows, axis=1, count=self.n, bitorder="little")

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- arc counting over vertex sets --------------------------------------

    def count_arcs_between(self, xs: Iterable[int], ys: Iterable[int]) -> int:
        """Number of arcs from ``xs`` to ``ys`` (sets may overlap)."""
        ymask = mask_of(self.check_vertex(y) for y in ys)
        return sum((self._out[self.check_vertex(x)] & ymask).bit_count() for x in xs)

    def count_arcs_within(self, xs: Iterable[int]) -> int:
        """Number of arcs with both ends in ``xs``."""
        xset = list(xs)
        return self.count_arcs_between(xset, xset)

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, OrientedGraph)
                and self.n == other.n and self._out == other._out)

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, arcs={self.arc_count})"


def _rows_to_bits(adj: np.ndarray) -> list[int]:
    """Bitsets of a boolean matrix's rows: bit j of row i is adj[i, j]."""
    packed = np.packbits(adj, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _check_order(n: int) -> None:
    if n < 0 or n > MAX_VERTICES:
        raise OutOfRangeError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _insert_arc(out: list[int], inn: list[int], n: int, u: int, v: int) -> int:
    if not (0 <= u < n):
        raise OutOfRangeError(f"vertex {u} outside [0, {n})")
    if not (0 <= v < n):
        raise OutOfRangeError(f"vertex {v} outside [0, {n})")
    if u == v:
        raise SelfLoopError(f"self-loop ({u}, {v}) rejected")
    if out[v] >> u & 1:
        raise TwoCycleError(f"arc ({u}, {v}) would close a 2-cycle with ({v}, {u})")
    if out[u] >> v & 1:
        return 0  # already present
    out[u] |= 1 << v
    inn[v] |= 1 << u
    return 1


# -- paths and cycles ---------------------------------------------------------


@dataclass(frozen=True)
class DiPath:
    """A directed path given as its vertex sequence."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidPathError("path repeats a vertex")

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def validate(self, g: OrientedGraph) -> None:
        if not self.vertices:
            raise InvalidPathError("empty path")
        for v in self.vertices:
            g.check_vertex(v)
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not g.has_arc(a, b):
                raise InvalidPathError(f"missing arc ({a}, {b})")


@dataclass(frozen=True)
class DiCycle:
    """A directed cycle given by one traversal order (closing arc implied)."""

    vertices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def is_valid_in(self, g: OrientedGraph) -> bool:
        vs = self.vertices
        if not vs or len(set(vs)) != len(vs):
            return False
        if any(not (0 <= v < g.n) for v in vs):
            return False
        # every id is in range now, so the bitsets are read directly
        out = g._out
        return all(out[a] >> b & 1 for a, b in zip(vs, vs[1:] + vs[:1]))


def verify_hamilton_cycle(g: OrientedGraph, cycle: "DiCycle | Iterable[int]") -> bool:
    """True iff ``cycle`` visits every vertex exactly once along arcs of ``g``.

    Malformed inputs (repeats, bad ids, non-integer ids, wrong length)
    yield False, never an exception.  Integer-like ids such as numpy
    integers are read through ``operator.index``.  The verdict is invariant
    under rotation of the sequence.
    """
    try:
        vs = tuple(map(operator.index,
                       cycle.vertices if isinstance(cycle, DiCycle) else cycle))
    except TypeError:
        return False
    return len(vs) == g.n and DiCycle(vs).is_valid_in(g)


# -- vertex partitions ---------------------------------------------------------


@dataclass(frozen=True)
class Partition4:
    """Four pairwise-disjoint vertex classes A, B, C, D (any may be empty)."""

    A: frozenset[int]
    B: frozenset[int]
    C: frozenset[int]
    D: frozenset[int]

    @classmethod
    def of(cls, a: Iterable[int], b: Iterable[int],
           c: Iterable[int], d: Iterable[int]) -> "Partition4":
        return cls(frozenset(a), frozenset(b), frozenset(c), frozenset(d))

    def __post_init__(self):
        sets = [self.A, self.B, self.C, self.D]
        if sum(len(s) for s in sets) != len(frozenset().union(*sets)):
            raise ValueError("partition classes overlap")

    def classes(self) -> dict[str, frozenset[int]]:
        return {"A": self.A, "B": self.B, "C": self.C, "D": self.D}

    def support(self) -> frozenset[int]:
        return self.A | self.B | self.C | self.D

    def covers(self, g: OrientedGraph) -> bool:
        return self.support() == frozenset(range(g.n))

    def sizes(self) -> dict[str, int]:
        return {label: len(xs) for label, xs in self.classes().items()}


# -- connectivity --------------------------------------------------------------


def strongly_connected(g: OrientedGraph) -> bool:
    """True iff every vertex reaches every other along arcs (n >= 1)."""
    if g.n == 0:
        raise OutOfRangeError("connectivity undefined on the empty graph")
    if g.n == 1:
        return True
    full = g.full_mask()

    def closure(adj) -> int:
        seen = 1
        frontier = 1
        while frontier:
            grown = 0
            for v in iter_bits(frontier):
                grown |= adj[v]
            frontier = grown & ~seen
            seen |= grown
        return seen

    return closure(g._out) == full and closure(g._in) == full
