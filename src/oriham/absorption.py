"""Connector and absorber machinery.

Three gadget layers, all defined by explicit arc patterns:

* A k-connector of an ordered pair (u, v) is a directed path on exactly k
  vertices (k in {1, 2, 3}) that u can enter and that exits to v.
* A strong absorber of (u, v) is a pair (w, z) with arcs w->z, w->u, v->z.
  If the path edge w->z lies on a host path, the segment u..v (or a single
  vertex u = v) can be spliced in between w and z.
* A weak absorber of (u, v) is a quadruple (w, w', z', z) with arcs w->w',
  w->u, z'->z, v->z such that the inner pair (w', z') is itself strongly
  absorbable.  Splicing u..v between w and z displaces the segment
  w'..z', which is then re-absorbed through a strong gadget of (w', z')
  (the double step).

On top of these sit vertex-disjoint family selection, a reservoir of
connectors for stitching paths together, and absorbing paths whose gadget
registry can swallow leftover vertices after a path cover.  Families are
chosen by one deterministic rule, a round-robin sweep that keeps each
candidate tuple disjoint from those kept before; the paper's random
thinning is not run, since its keep probability is close to zero at every
graph size the package accepts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat

import numpy as np

from .graph import (DiPath, InvalidPathError, OrientedGraph, augment, iter_bits,
                    mask_of, nth_bit)
from .seeds import rng_for

Pair = tuple[int, int]

# Absorbing-path constants: ALPHA1 * n^2 strong absorbers make a vertex
# strongly absorbable, ALPHA2 * n^4 weak ones weakly absorbable; each vertex
# offers ABSORB_PER_PAIR_CAP candidates of its kind to the family selection,
# at most WEAK_TARGET weak gadgets are kept, and each weak enumeration probes
# at most WEAK_BUDGET prefixes.
ALPHA1 = Fraction(1, 4096)
ALPHA2 = Fraction(1, 1 << 22)
WEAK_TARGET = 2
ABSORB_PER_PAIR_CAP = 12
WEAK_BUDGET = 100_000


class NoConnectorAvailableError(LookupError):
    def __init__(self, x: int, y: int, consumed: int):
        super().__init__(f"no connector for ({x}, {y}) in unused reservoir "
                         f"({consumed} vertices already consumed)")
        self.pair = (x, y)


class StitchFailureError(RuntimeError):
    """A registry gadget is not laid out on its absorbing path (a bug)."""


class CapacityExhaustedError(RuntimeError):
    def __init__(self, unplaced: Sequence[int]):
        super().__init__(f"no free compatible gadget for vertices {sorted(unplaced)}")
        self.unplaced = tuple(sorted(unplaced))


class VertexNotAbsorbableError(ValueError):
    def __init__(self, v: int):
        super().__init__(f"vertex {v} is served by no gadget in the registry")
        self.vertex = v


# -- connectors ----------------------------------------------------------------


def _connector_blocks(g: OrientedGraph, x: int, y: int, k: int,
                      pool: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """The k-connectors x -> w1 -> ... -> wk -> y whose internal vertices
    lie in the bitmask ``pool`` (which excludes x and y), as blocks
    (prefix, last) in ascending lexicographic order: a block stands for the
    tuples prefix + (w,) for each w in the nonzero bitmask ``last``.

    The vertices come out distinct with no exclusion mask: an oriented
    graph has no loops, and w1 -> w2 keeps w1 out of N+(w2)."""
    out = g._out
    into_y = g._in[y] & pool
    if k == 1:
        if last := out[x] & into_y:
            yield (), last
    elif k == 2:
        for w1 in iter_bits(out[x] & pool):
            if last := out[w1] & into_y:
                yield (w1,), last
    else:
        for w1 in iter_bits(out[x] & pool):
            for w2 in iter_bits(out[w1] & pool):
                if last := out[w2] & into_y:
                    yield (w1, w2), last


def _block_tuples(prefix: tuple[int, ...], last: int) -> Iterator[tuple[int, ...]]:
    """The connector tuples of one block, ascending."""
    return zip(*map(repeat, prefix), iter_bits(last))


def _first_connector(g: OrientedGraph, x: int, y: int, k: int,
                     pool: int) -> tuple[int, ...] | None:
    """The lexicographically first k-connector of (x, y) inside ``pool``."""
    for prefix, last in _connector_blocks(g, x, y, k, pool):
        return (*prefix, (last & -last).bit_length() - 1)
    return None


def _capped(found: Iterable, cap: int | None) -> list:
    """The first ``cap`` items of the lazy ``found`` (all for None); a cap
    below 1 raises ValueError."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    return list(islice(found, cap))


def enumerate_connectors(g: OrientedGraph, u: int, v: int, k: int,
                         cap: int | None = None) -> list[tuple[int, ...]]:
    """All k-connectors of (u, v) in ascending lexicographic order.

    Connector vertices are distinct and avoid u and v.  ``cap`` truncates
    the enumeration after that many tuples; a cap below 1 raises
    ValueError.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    g.check_vertex(u)
    g.check_vertex(v)
    blocks = _connector_blocks(g, u, v, k, g.full_mask() & ~mask_of((u, v)))
    return _capped((t for block in blocks for t in _block_tuples(*block)), cap)


def _connector_within(g: OrientedGraph, x: int, y: int,
                      pool: int) -> tuple[int, ...] | None:
    """Smallest internal vertex tuple joining x to y inside ``pool`` (a
    bitmask excluding x and y), lexicographically first at that size, or
    None.  Zero internals means the arc itself."""
    if g.has_arc(x, y):
        return ()
    for k in (1, 2, 3):
        inner = _first_connector(g, x, y, k, pool)
        if inner is not None:
            return inner
    return None


@dataclass(frozen=True, eq=False)
class ConnectivityProfile:
    """Smallest usable connector size per ordered non-adjacent pair.

    ``k[u, v]`` is that size (1, 2 or 3) and ``count[u, v]`` the number of
    connectors of that size, both n x n arrays that read 0 on arcs, on the
    diagonal and on the unconnectable pairs.  Profiles compare by value.
    """

    k: np.ndarray
    count: np.ndarray
    unconnectable: tuple[Pair, ...]

    @cached_property
    def best(self) -> dict[Pair, tuple[int, int]]:
        """pair -> (k, count at that k) for every connectable pair."""
        u, v = np.nonzero(self.k)
        return dict(zip(zip(u.tolist(), v.tolist()),
                        zip(self.k[u, v].tolist(), self.count[u, v].tolist())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConnectivityProfile):
            return NotImplemented
        return (np.array_equal(self.k, other.k)
                and np.array_equal(self.count, other.count)
                and self.unconnectable == other.unconnectable)


_PROFILE_BLOCK = 1 << 20  # entries of one row block of the walk counts


def _packed(rows: Sequence[int], words: int) -> np.ndarray:
    """Bitset rows as a (len(rows), words) array of uint64 words, low
    vertex ids first."""
    raw = b"".join(bits.to_bytes(8 * words, "little") for bits in rows)
    return np.frombuffer(raw, "<u8").reshape(len(rows), words)


def connectivity_profile(g: OrientedGraph) -> ConnectivityProfile:
    """For every ordered pair (u, v) with no arc u->v, the smallest
    k in {1, 2, 3} admitting a connector, with the count at that k;
    pairs with none at any k are flagged.

    The counts are entries of A^2, A^3 and A^4 for the adjacency matrix A:
    on such a pair every walk u -> w1 .. wk -> v with k <= 3 is a
    k-connector, since an oriented graph has no loops, no 2-cycles and
    here no arc u->v.  A^2[u, v] is the popcount of out(u) & in(v) over
    packed words.  Rows of A^3 and A^4 are float64 products, formed only
    for the rows that still hold a pair with no shorter connector; entries
    stay below n^3 < 2^53, so they are exact.  Rows go in blocks, so memory
    stays bounded at n = 4096.
    """
    n = g.n
    words = max(1, -(-n // 64))
    out, inn = _packed(g._out, words), _packed(g._in, words)
    adj = g.adjacency_matrix()
    pending = adj == 0  # non-arc pairs with no connector found yet
    np.fill_diagonal(pending, False)
    k = np.zeros((n, n), np.uint8)
    count = np.zeros((n, n), np.int64)
    a = None
    step = max(1, _PROFILE_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        rows = np.arange(lo, min(lo + step, n))
        walks = np.zeros((len(rows), n))
        for j in range(words):
            walks += np.bitwise_count(out[rows, j, None] & inn[:, j])
        for size in (1, 2, 3):
            hit = pending[rows] & (walks > 0)
            r, v = np.nonzero(hit)
            k[rows[r], v] = size
            count[rows[r], v] = walks[r, v]
            pending[rows[r], v] = False
            live = pending[rows].any(axis=1)
            if size == 3 or not live.any():
                break
            if a is None:
                a = adj.astype(np.float64)
            rows, walks = rows[live], walks[live] @ a
    u, v = np.nonzero(pending)
    return ConnectivityProfile(k, count, tuple(zip(u.tolist(), v.tolist())))


# -- strong absorbers ----------------------------------------------------------


def _strong_rows(out: Sequence[int], inn: Sequence[int], u: int, v: int,
                 avoid: int = 0) -> Iterator[tuple[int, int]]:
    """The strong absorbers (w, z) of (u, v) with w and z outside {u, v}
    and the bitmask ``avoid``, one row per in-neighbour w of u, ascending:
    w and its (possibly empty) bitmask N+(w) & N+(v) of z.  z needs no
    check against w, since an oriented graph has no loops."""
    ex = ~(1 << u | 1 << v | avoid)
    from_v = out[v] & ex
    for w in iter_bits(inn[u] & ex):
        yield w, out[w] & from_v


def enumerate_strong_absorbers(g: OrientedGraph, u: int, v: int,
                               cap: int | None = None) -> list[Pair]:
    """Ordered pairs (w, z) with arcs w->z, w->u, v->z, both outside
    {u, v}, ascending lexicographic.  u = v is the single-vertex case."""
    g.check_vertex(u)
    g.check_vertex(v)
    return _capped((pair for w, zs in _strong_rows(g._out, g._in, u, v)
                    for pair in zip(repeat(w), iter_bits(zs))), cap)


def _strong_count(out: Sequence[int], inn: Sequence[int], u: int, v: int,
                  stop: float) -> int:
    """Strong absorbers of (u, v), counted one row of ``_strong_rows`` at
    a time until the total reaches ``stop``."""
    total = 0
    for _, zs in _strong_rows(out, inn, u, v):
        if total >= stop:
            break
        total += zs.bit_count()
    return total


def _strong_need(n: int, alpha1: Fraction) -> int:
    """ceil(alpha1 * n^2), the fewest strong absorbers that make a pair
    alpha1-strongly absorbable, in integer arithmetic."""
    if alpha1 < 0:
        raise ValueError(f"alpha1 must not be negative, got {alpha1}")
    num, den = alpha1.as_integer_ratio()
    return -(-num * n * n // den)


def count_strong_absorbers(g: OrientedGraph, u: int, v: int) -> int:
    """Number of strong absorbers of (u, v): the pairs (w, z) outside
    {u, v} with arcs w->z, w->u and v->z that ``enumerate_strong_absorbers``
    lists."""
    g.check_vertex(u)
    g.check_vertex(v)
    return _strong_count(g._out, g._in, u, v, math.inf)


class _StrongDraw(Sequence):
    """Read-only draw: item i is the pair of the i-th sampled rank, placed
    when read by bisecting the prefix popcounts for w, then ``nth_bit``."""

    __slots__ = ("ranks", "ws", "zsets", "starts")

    def __init__(self, ranks: list[int], ws: list[int], zsets: list[int],
                 starts: list[int]):
        self.ranks, self.ws, self.zsets, self.starts = ranks, ws, zsets, starts

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.ranks)))]
        rank = self.ranks[i]
        j = bisect_right(self.starts, rank) - 1
        return self.ws[j], nth_bit(self.zsets[j], rank - self.starts[j])


def _draw_strong_absorbers(g: OrientedGraph, v: int, avoid: int, k: int,
                           rng: random.Random) -> Sequence[Pair]:
    """Up to k strong absorbers (w, z) of the single vertex v with w and z
    outside the bitmask ``avoid``, drawn uniformly without replacement, in
    draw order; all of them, shuffled, when fewer than k exist.

    The draw is ``rng.sample`` over ranks in the ascending lexicographic
    list of such pairs, made here in full; the list is never built, and a
    rank becomes its pair only when the returned sequence is indexed.
    """
    ws, zsets = [], []  # int lists, not (w, zs) tuples the collector tracks
    for w, zs in _strong_rows(g._out, g._in, v, v, avoid):
        ws.append(w)
        zsets.append(zs)
    # starts[i] is the rank of ws[i]'s first pair; a w with no z shares the
    # next start, so bisecting a rank never lands on it
    starts = list(accumulate(map(int.bit_count, zsets), initial=0))
    total = starts.pop()
    return _StrongDraw(rng.sample(range(total), min(k, total)), ws, zsets, starts)


# -- weak absorbers ------------------------------------------------------------


def enumerate_weak_absorbers(g: OrientedGraph, u: int, v: int,
                             alpha1: Fraction, cap: int | None = None
                             ) -> list[tuple[int, int, int, int]]:
    """Quadruples (w, w', z', z) with arcs w->w', w->u, z'->z, v->z whose
    inner pair (w', z') is alpha1-strongly absorbable.

    All four vertices are distinct and avoid {u, v}.  Enumeration is
    ascending lexicographic; inner-pair verdicts are memoized; WEAK_BUDGET
    bounds the probed prefixes (w, w', z'), every z' outside {u, v, w, w'}
    counting as one probe, so dense instances terminate early.
    """
    g.check_vertex(u)
    g.check_vertex(v)
    return _capped(_weak_absorbers(g, u, v, alpha1), cap)


def _weak_absorbers(g: OrientedGraph, u: int, v: int,
                    alpha1: Fraction) -> Iterator[tuple[int, int, int, int]]:
    """The weak absorbers of ``enumerate_weak_absorbers``, lazily, up to
    the WEAK_BUDGET-th probe."""
    out, inn = g._out, g._in
    need = _strong_need(g.n, alpha1)
    ex = g.full_mask() & ~(1 << u | 1 << v)
    from_v = out[v] & ex
    reach = 0  # the z' with an arc into N+(v); no other z' has an exit z
    for z in iter_bits(from_v):
        reach |= inn[z]
    memo: dict[Pair, bool] = {}
    left = WEAK_BUDGET
    for w in iter_bits(inn[u] & ex):
        for wp in iter_bits(out[w] & ex):
            spare = ~(1 << w | 1 << wp)
            zps = ex & spare
            probes = zps.bit_count()
            if probes > left:  # the budget ends inside this prefix
                zps &= (1 << nth_bit(zps, left)) - 1
            left -= probes
            tails = from_v & spare
            for zp in iter_bits(zps & reach):
                if not (zs := out[zp] & tails):
                    continue
                ok = memo.get((wp, zp))
                if ok is None:
                    ok = memo[wp, zp] = _strong_count(out, inn, wp, zp, need) >= need
                if ok:
                    yield from zip(repeat(w), repeat(wp), repeat(zp), iter_bits(zs))
            if left < 0:
                return


# -- disjoint family selection ---------------------------------------------------


def select_disjoint_family(lists: Iterable[Sequence[tuple[int, ...]]],
                           limit: int) -> list[tuple[int, ...]]:
    """A pairwise vertex-disjoint family of at most ``limit`` (at least 1)
    candidate tuples, sorted.

    The candidate lists are read round-robin by rank in the order given,
    so every list's first tuple gets a look before any list's second; a
    tuple is kept when it shares no vertex with those kept before.  A
    repeated tuple is never kept twice: its first visit either kept it or
    met a kept vertex, and both block it again.  Rank 0 reads ``lists``
    lazily, one list as the walk reaches it, so an early stop leaves later
    lists unbuilt.  The paper first keeps each tuple with probability
    sigma / 2^7 divided by a falling factorial of n, which is close to
    zero at every n a graph here can have, so every tuple is offered.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    kept: list[tuple[int, ...]] = []
    used: set[int] = set()

    def by_rank():
        read = []
        for tuples in lists:
            read.append(tuples)
            yield from tuples[:1]
        for rank in range(1, max(map(len, read), default=0)):
            yield from (tuples[rank] for tuples in read if rank < len(tuples))

    for tup in map(tuple, by_rank()):
        if used.isdisjoint(tup):
            kept.append(tup)
            used.update(tup)
            if len(kept) == limit:
                break
    return sorted(kept)


# -- reservoir -------------------------------------------------------------------


# connectors kept per pair for the reservoir's family selection (eight
# times as many are scanned before the avoid/prefer filters)
RESERVOIR_PER_PAIR_CAP = 8


def _reservoir_options(g: OrientedGraph, u: int, v: int, k: int,
                       bad: int) -> list[tuple[int, ...]]:
    """A pair's reservoir candidates: the first RESERVOIR_PER_PAIR_CAP of
    its first eight times as many k-connectors that avoid the bitmask
    ``bad``.  Whole blocks count against the scan, the block holding its
    last connector is cut there, and only kept tuples are built."""
    opts: list[tuple[int, ...]] = []
    left = 8 * RESERVOIR_PER_PAIR_CAP
    for prefix, last in _connector_blocks(g, u, v, k, g.full_mask() & ~(1 << u | 1 << v)):
        size = last.bit_count()
        if size > left:
            last &= (1 << nth_bit(last, left)) - 1
        left -= size
        if not mask_of(prefix) & bad:
            opts += islice(_block_tuples(prefix, last & ~bad),
                           RESERVOIR_PER_PAIR_CAP - len(opts))
            if len(opts) == RESERVOIR_PER_PAIR_CAP:
                break
        if left <= 0:
            break
    return opts


@dataclass
class Reservoir:
    """Connector pool with single-use bookkeeping.

    Queries search all unused reservoir vertices, so any reservoir vertex
    can serve any later pair.  ``ledger`` holds consumed vertices.
    """

    vertices: frozenset[int]
    ledger: set[int] = field(default_factory=set)

    def unused(self) -> frozenset[int]:
        return self.vertices - self.ledger


def default_reservoir_size(n: int) -> int:
    return max(3, min(6, n // 10))


def build_reservoir(g: OrientedGraph, avoid: Iterable[int], *,
                    prefer: frozenset[int] | None = None) -> Reservoir:
    """Choose a small vertex set R, staged over k = 1, 2, 3, so that
    ordered non-adjacent pairs outside R can be joined through it.

    ``default_reservoir_size(n)`` is the vertex budget.  When ``prefer``
    is nonempty, R is drawn only from it; the pipeline passes the vertices
    its absorbing path can absorb, so reservoir vertices left unused stay
    absorbable.

    Stage k walks the non-arc pairs (u, v) outside ``avoid`` and earlier
    stages, ascending, that no earlier stage covers.  A pair's candidates
    are the first RESERVOIR_PER_PAIR_CAP of its first eight times as many
    k-connectors that avoid those vertices (and lie in a nonempty
    ``prefer``); ``select_disjoint_family`` keeps (budget - |R|) // k of them.
    The walk scans a pair's connectors only when it reaches the pair
    and stops once that room is full, within the first few pairs of a
    dense graph; a stage that leaves room for the next was walked in full.
    """
    budget = default_reservoir_size(g.n)
    outside = g.full_mask() & ~mask_of(prefer) if prefer else 0
    avoid_mask = mask_of(avoid)
    chosen: set[int] = set()
    covered: set[Pair] = set()

    for k in (1, 2, 3):
        room = (budget - len(chosen)) // k
        if room <= 0:
            break
        avoid_mask |= mask_of(chosen)
        walked: dict[Pair, list[tuple[int, ...]]] = {}
        # a connector starts at an out-neighbour of u and ends at an
        # in-neighbour of v inside allowed: pairs without one are skipped,
        # as their empty lists would change nothing in the selection
        bad = avoid_mask | outside
        allowed = g.full_mask() & ~bad
        heads = mask_of(v for v, bits in enumerate(g._in) if bits & allowed)

        def candidate_lists():
            for u in iter_bits(g.full_mask() & ~avoid_mask):
                if not g._out[u] & allowed:
                    continue
                for v in iter_bits(g.non_out_bits(u) & ~avoid_mask & heads):
                    if (u, v) not in covered:
                        walked[(u, v)] = opts = _reservoir_options(g, u, v, k, bad)
                        yield opts

        kept = set(select_disjoint_family(candidate_lists(), room))
        chosen.update(w for tup in kept for w in tup)
        covered.update(pair for pair, opts in walked.items()
                       if not kept.isdisjoint(opts))

    return Reservoir(frozenset(chosen))


def connect_through_reservoir(g: OrientedGraph, res: Reservoir,
                              x: int, y: int,
                              prefer_reservoir: bool = False) -> DiPath:
    """Directed path from x to y with at most 3 internal vertices, all
    drawn from the unused reservoir; internal vertices are marked used.

    A present arc x->y is returned as the 2-vertex path without touching
    the reservoir.  With ``prefer_reservoir`` a single-vertex connector is
    taken even when the direct arc exists, draining leftover reservoir
    vertices into the joined path.  Raises NoConnectorAvailableError when
    the unused part of the reservoir cannot bridge the pair.
    """
    if x in res.vertices or y in res.vertices:
        raise ValueError(f"endpoints ({x}, {y}) must lie outside the reservoir")
    avail = mask_of(res.unused())
    inner = _first_connector(g, x, y, 1, avail) if prefer_reservoir else None
    if inner is None:
        inner = _connector_within(g, x, y, avail)
    if inner is None:
        raise NoConnectorAvailableError(x, y, len(res.ledger))
    res.ledger.update(inner)
    return DiPath((x, *inner, y))


# -- absorbing path ---------------------------------------------------------------


class _Splice:
    """The splice test both gadget kinds share through their outer ends."""

    def serves(self, g: OrientedGraph, u: int, v: int) -> bool:
        """Whether the pair (u, v) -- or a single vertex u = v -- can be
        spliced between w and z."""
        return g.has_arc(self.w, u) and g.has_arc(v, self.z)


@dataclass(frozen=True)
class StrongGadget(_Splice):
    w: int
    z: int


@dataclass(frozen=True)
class WeakGadget(_Splice):
    w: int
    wp: int
    zp: int
    z: int


@dataclass(frozen=True)
class AbsorbingPath:
    """A directed path carrying a registry of single-use absorber gadgets.

    Strong gadgets (w, z) sit as consecutive path edges; weak gadgets
    (w, w', z', z) sit as w, w', <connector-only segment>, z', z.  The
    registry lists only unused gadgets: absorbing a vertex drops the
    gadgets it spends.
    """

    path: tuple[int, ...]
    strong: tuple[StrongGadget, ...] = ()
    weak: tuple[WeakGadget, ...] = ()
    gaps: tuple[int, ...] = ()
    dropped: int = 0

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.path)

    @property
    def start(self) -> int:
        return self.path[0]

    @property
    def end(self) -> int:
        return self.path[-1]

    def servable(self, g: OrientedGraph) -> frozenset[int]:
        """The vertices off the path that some strong gadget serves: the
        union of N+(w) & N-(z) over the strong gadgets (w, z), minus the
        path."""
        bits = 0
        for gad in self.strong:
            bits |= g._out[gad.w] & g._in[gad.z]
        return frozenset(iter_bits(bits & ~mask_of(self.path)))

    def validate(self, g: OrientedGraph) -> None:
        """Assert path validity and the layout of every registry gadget."""
        if self.path:
            DiPath(self.path).validate(g)
        pos = {v: i for i, v in enumerate(self.path)}
        for gad in self.strong:
            if pos.get(gad.z, -2) != pos.get(gad.w, -9) + 1:
                raise StitchFailureError(f"strong gadget {gad} not consecutive")
        for gad in self.weak:
            iw, iz = pos[gad.w], pos[gad.z]
            if self.path[iw + 1] != gad.wp or self.path[iz - 1] != gad.zp:
                raise StitchFailureError(f"weak gadget {gad} endpoints misplaced")
            if iz - iw < 3:
                raise StitchFailureError(f"weak gadget {gad} segment collapsed")


def _hosts(g: OrientedGraph, gadgets: Sequence[_Splice], u: int, v: int) -> int:
    """Bitmask of the indices of the gadgets that serve (u, v)."""
    return mask_of(i for i, gad in enumerate(gadgets) if gad.serves(g, u, v))


def default_strong_target(n: int) -> int:
    return max(4, min(14, n // 5))


def build_absorbing_path(g: OrientedGraph, *, seed: int = 0) -> AbsorbingPath:
    """Classify vertices by absorbability, select disjoint gadget families
    (weak first, then at most ``default_strong_target(n)`` strong ones from
    what remains), and stitch the gadgets into one directed path.

    A vertex is strongly absorbable when it has at least ceil(ALPHA1 * n^2)
    strong absorbers, counted until that many are found, and weakly
    absorbable when it has at least ALPHA2 * n^4 weak absorbers among those
    the enumeration budget reaches.  A weakly absorbable vertex's
    candidates are the first ABSORB_PER_PAIR_CAP of them, read off the same
    enumeration.

    Draw contract for the strong candidates: one ``random.Random``,
    ``rng_for(seed, "strong-pool")``, serves the strongly
    absorbable vertices in ascending order.  Each vertex draws
    ABSORB_PER_PAIR_CAP of its strong absorbers that avoid the weak
    family, uniformly without replacement, as ``rng.sample`` over their
    ranks in lexicographic order (all of them when fewer exist).  A
    vertex draws only when the family selection reaches it, so vertices
    after the strong family fills are never drawn, and a drawn rank is
    placed as a pair only when the selection reads it.

    Vertices with neither gadget type are reported in ``gaps`` rather than
    raised: tiny or sparse graphs legitimately have none, and callers can
    still proceed with a degenerate (possibly empty) absorbing path.
    Gadgets whose stitching finds no connector are dropped and counted,
    all of them if need be, which leaves the path empty.
    """
    n = g.n
    tw = max(1, math.ceil(ALPHA2 * n ** 4))
    need = _strong_need(n, ALPHA1)

    strong_ok: list[int] = []
    weak_candidates: list[list[tuple[int, ...]]] = []
    gaps: list[int] = []
    for v in range(n):
        if _strong_count(g._out, g._in, v, v, need) >= need:
            strong_ok.append(v)
            continue
        found = enumerate_weak_absorbers(g, v, v, ALPHA1,
                                         cap=max(tw, ABSORB_PER_PAIR_CAP))
        if len(found) >= tw:
            weak_candidates.append(found[:ABSORB_PER_PAIR_CAP])
        else:
            gaps.append(v)
    f_weak = select_disjoint_family(weak_candidates, WEAK_TARGET)

    # a uniform draw, not a lexicographic prefix: the prefix piles onto
    # low-numbered w, which starves the disjointness sweep
    pool_rng = rng_for(seed, "strong-pool")
    avoid = mask_of(w for tup in f_weak for w in tup)
    f_strong = select_disjoint_family(
        (_draw_strong_absorbers(g, v, avoid, ABSORB_PER_PAIR_CAP, pool_rng)
         for v in strong_ok),
        default_strong_target(n))

    # Stitch weak units first, then strong, chaining with connectors through
    # the free vertices: those off the path and in no unit left to lay out.
    free = g.full_mask() & ~avoid & ~mask_of(w for tup in f_strong for w in tup)
    path: list[int] = []
    laid: list[tuple[int, ...]] = []
    dropped = 0
    for tup in (*f_weak, *f_strong):
        # a weak unit lays out as w, w', <inner connector>, z', z
        inner = _connector_within(g, tup[1], tup[2], free) if len(tup) == 4 else ()
        pool = free & ~mask_of(inner or ())
        hop = (None if inner is None
               else _connector_within(g, path[-1], tup[0], pool) if path else ())
        if hop is None:  # no inner connector, or no hop from the path
            dropped += 1
            free |= mask_of(tup)
            continue
        path += (*hop, *tup[:2], *inner, *tup[2:])
        free = pool & ~mask_of(hop)
        laid.append(tup)

    result = AbsorbingPath(tuple(path),
                           tuple(StrongGadget(*tup) for tup in laid if len(tup) == 2),
                           tuple(WeakGadget(*tup) for tup in laid if len(tup) == 4),
                           tuple(gaps), dropped)
    result.validate(g)
    return result


# -- leftover absorption -----------------------------------------------------------


def absorb_vertices(g: OrientedGraph, p_abs: AbsorbingPath,
                    leftovers: Iterable[int]) -> AbsorbingPath:
    """Splice every leftover vertex into the absorbing path.

    Each vertex consumes one strong gadget (w, z) with w->v->z, or one
    weak gadget plus one strong gadget via the double step: v replaces
    the weak segment w'..z', which is re-absorbed through a strong gadget
    of the pair (w', z').  Both routes are one maximum bipartite matching.
    Its left nodes are the leftovers and the inner pair of each weak
    gadget; the inner pair starts on its own gadget and may move to a
    strong gadget serving it, which frees the weak gadget for a leftover.
    Leftovers first augment over strong gadgets alone, then the unmatched
    ones over every edge.  No augmenting path is left (Berge), so every
    leftover is placed whenever some assignment places them all.

    The result covers exactly V(path) union leftovers, keeps both
    endpoints, and passes ``validate``; its registry drops the spent
    gadgets: every matched strong gadget, and every weak gadget a leftover
    holds.  Raises VertexNotAbsorbableError when a vertex is served by no
    registry gadget at all, CapacityExhaustedError when gadgets exist but
    no assignment of them places every leftover.
    """
    todo = sorted(set(leftovers))
    if not todo:
        return p_abs
    overlap = set(todo) & set(p_abs.path)
    if overlap:
        raise ValueError(f"leftovers {sorted(overlap)} already on the path")
    for v in todo:
        g.check_vertex(v)
    # right nodes: strong gadget i is bit i and weak gadget i bit s + i, so
    # a leftover tries its strong hosts, then its weak ones, each ascending
    s = len(p_abs.strong)
    strong = {v: (_hosts(g, p_abs.strong, v, v),) for v in todo}
    edges = {v: (strong[v][0] | _hosts(g, p_abs.weak, v, v) << s,) for v in todo}
    if unserved := [v for v in todo if not edges[v][0]]:
        raise VertexNotAbsorbableError(unserved[0])
    owner: dict = {}
    for i, gad in enumerate(p_abs.weak):
        edges[("inner", i)] = (1 << (s + i), _hosts(g, p_abs.strong, gad.wp, gad.zp))
        owner[s + i] = ("inner", i)
    # inner pairs hold only weak gadgets here, so no strong-only path meets one
    for v in [v for v in todo if augment(v, strong, owner) is not None]:
        augment(v, edges, owner)
    route = {left: right for right, left in owner.items()}
    if unplaced := [v for v in todo if v not in route]:
        raise CapacityExhaustedError(unplaced)

    path = list(p_abs.path)
    for v in todo:
        i = route[v]
        insert = [v]
        if i >= s:
            gad = p_abs.weak[i - s]
            a, b = path.index(gad.w), path.index(gad.z)
            insert = path[a + 1:b]  # runs gad.wp .. gad.zp
            path[a + 1:b] = [v]
            i = route[("inner", i - s)]
        k = path.index(p_abs.strong[i].w) + 1
        path[k:k] = insert

    result = replace(
        p_abs, path=tuple(path),
        strong=tuple(gad for i, gad in enumerate(p_abs.strong) if i not in owner),
        weak=tuple(gad for i, gad in enumerate(p_abs.weak)
                   if owner[s + i] == ("inner", i)))
    if ((result.start, result.end) != (p_abs.start, p_abs.end)
            or set(result.path) != set(p_abs.path) | set(todo)):
        raise InvalidPathError(f"absorbing {todo} moved a path endpoint "
                               "or lost a vertex")
    result.validate(g)
    return result
