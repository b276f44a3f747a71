"""Oriented-graph core.

An oriented graph is a digraph with no self-loops and no 2-cycles: between
any two vertices there is at most one arc, in at most one direction.  Graphs
are immutable once built; operations that look mutating return fresh values.

Adjacency is stored dually, as per-vertex out-bitsets and in-bitsets packed
into Python ints, so the neighbourhood intersections used heavily by the
gadget enumerations are word-parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


class EndpointsNotInSameClassError(GraphError):
    """Path contraction requires both endpoints in one partition class."""


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


class OrientedGraph:
    """Immutable oriented graph on vertex ids 0..n-1."""

    __slots__ = ("n", "arc_count", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_VERTICES:
            raise OutOfRangeError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
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

    @classmethod
    def empty(cls, n: int) -> "OrientedGraph":
        return cls(n)

    def add_arc(self, u: int, v: int) -> "OrientedGraph":
        """Return a new graph with arc (u, v) added.

        All prior arcs are preserved.  Raises SelfLoopError, TwoCycleError
        or OutOfRangeError when the arc would break the oriented invariant.
        """
        out = list(self._out)
        inn = list(self._in)
        added = _insert_arc(out, inn, self.n, u, v)
        g = object.__new__(OrientedGraph)
        object.__setattr__(g, "n", self.n)
        object.__setattr__(g, "arc_count", self.arc_count + added)
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

    def out_neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.out_bits(v))

    def in_neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.in_bits(v))

    def out_degree(self, v: int) -> int:
        return self.out_bits(v).bit_count()

    def in_degree(self, v: int) -> int:
        return self.in_bits(v).bit_count()

    def degrees(self, v: int) -> tuple[int, int]:
        """(out-degree, in-degree) of ``v``."""
        return self.out_degree(v), self.in_degree(v)

    def min_semidegree(self) -> int:
        """min over all vertices of both out- and in-degree (0 for n=0)."""
        if self.n == 0:
            return 0
        return min(min(o.bit_count() for o in self._out),
                   min(i.bit_count() for i in self._in))

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs sorted lexicographically."""
        return [(u, v) for u in range(self.n) for v in iter_bits(self._out[u])]

    def vertices(self) -> range:
        return range(self.n)

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

    def is_valid_in(self, g: OrientedGraph) -> bool:
        try:
            self.validate(g)
        except GraphError:
            return False
        return True

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
        return all(g.has_arc(a, b)
                   for a, b in zip(vs, vs[1:] + vs[:1]))


def verify_hamilton_cycle(g: OrientedGraph, cycle: "DiCycle | Iterable[int]") -> bool:
    """True iff ``cycle`` visits every vertex exactly once along arcs of ``g``.

    Malformed inputs (repeats, bad ids, wrong length) yield False, never an
    exception.  The verdict is invariant under rotation of the sequence.
    """
    vs = tuple(cycle.vertices if isinstance(cycle, DiCycle) else cycle)
    if len(vs) != g.n or g.n == 0:
        return False
    return DiCycle(vs).is_valid_in(g) if len(set(vs)) == len(vs) else False


# -- vertex partitions ---------------------------------------------------------

CLASS_LABELS = ("A", "B", "C", "D")


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

    def class_of(self, v: int) -> str:
        for label, xs in self.classes().items():
            if v in xs:
                return label
        raise KeyError(f"vertex {v} not in any class")

    def nonempty_labels(self) -> list[str]:
        return [label for label in CLASS_LABELS if self.classes()[label]]

    def covers(self, g: OrientedGraph) -> bool:
        return self.support() == frozenset(range(g.n))

    def sizes(self) -> dict[str, int]:
        return {label: len(xs) for label, xs in self.classes().items()}


# -- path contraction ----------------------------------------------------------


@dataclass(frozen=True)
class ContractionResult:
    """Outcome of contracting a path into a single fresh vertex.

    ``old_to_new`` maps every surviving original vertex id to its id in the
    contracted graph; ``new_vertex`` is the fresh id replacing the path and
    ``contracted`` records the original path for lifting cycles back.
    """

    graph: OrientedGraph
    partition: Partition4
    new_vertex: int
    old_to_new: dict[int, int]
    contracted: tuple[int, ...]

    def lift_cycle(self, cycle: "DiCycle | Iterable[int]") -> list[int]:
        """Map a cycle of the contracted graph back to original vertex ids.

        The fresh vertex expands to the full contracted path; every other
        vertex maps through the inverse of ``old_to_new``.
        """
        vs = tuple(cycle.vertices if isinstance(cycle, DiCycle) else cycle)
        back = {new: old for old, new in self.old_to_new.items()}
        lifted: list[int] = []
        for v in vs:
            if v == self.new_vertex:
                lifted.extend(self.contracted)
            else:
                lifted.append(back[v])
        return lifted


def contract_path(g: OrientedGraph, part: Partition4, path: DiPath) -> ContractionResult:
    """Contract a directed path whose endpoints share a partition class.

    The path is removed and replaced by one fresh vertex p placed in the
    endpoints' class.  p inherits the in-neighbours of the path's first
    vertex lying in the cyclically previous nonempty class, and the
    out-neighbours of the last vertex lying in the cyclically next nonempty
    class; the cyclic order runs through the nonempty classes of
    (A, B, C, D).  All other vertices keep their arcs.  Ids are re-packed
    densely; the fresh vertex takes the largest id.
    """
    path.validate(g)
    if not part.support() <= frozenset(range(g.n)):
        raise OutOfRangeError("partition mentions vertices outside the graph")
    first, last = path.start, path.end
    label = part.class_of(first)
    if part.class_of(last) != label:
        raise EndpointsNotInSameClassError(
            f"endpoints {first} ({label}) and {last} ({part.class_of(last)}) differ")

    order = part.nonempty_labels()
    idx = order.index(label)
    next_label = order[(idx + 1) % len(order)]
    prev_label = order[(idx - 1) % len(order)]

    removed = set(path.vertices)
    survivors = [v for v in range(g.n) if v not in removed]
    old_to_new = {old: i for i, old in enumerate(survivors)}
    p_new = len(survivors)
    n_new = p_new + 1

    arcs: list[tuple[int, int]] = []
    for u in survivors:
        for v in iter_bits(g.out_bits(u)):
            if v not in removed:
                arcs.append((old_to_new[u], old_to_new[v]))
    out_targets = (set(iter_bits(g.out_bits(last))) & part.classes()[next_label]) - removed
    in_sources = (set(iter_bits(g.in_bits(first))) & part.classes()[prev_label]) - removed
    arcs.extend((p_new, old_to_new[v]) for v in out_targets)
    arcs.extend((old_to_new[v], p_new) for v in in_sources)

    new_classes = {
        lab: frozenset(old_to_new[v] for v in xs if v not in removed)
        for lab, xs in part.classes().items()
    }
    new_classes[label] = new_classes[label] | {p_new}
    new_part = Partition4(new_classes["A"], new_classes["B"],
                          new_classes["C"], new_classes["D"])
    return ContractionResult(
        graph=OrientedGraph(n_new, arcs),
        partition=new_part,
        new_vertex=p_new,
        old_to_new=old_to_new,
        contracted=tuple(path.vertices),
    )


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
