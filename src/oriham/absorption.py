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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .graph import DiPath, InvalidPathError, OrientedGraph, iter_bits, mask_of
from .seeds import derive_seed

Pair = tuple[int, int]


class NoConnectorAvailableError(LookupError):
    def __init__(self, x: int, y: int, used: frozenset[int]):
        super().__init__(f"no connector for ({x}, {y}) in unused reservoir "
                         f"({len(used)} vertices already consumed)")
        self.pair = (x, y)
        self.used = used


class StitchFailureError(RuntimeError):
    """Selected gadgets could not be chained into one path."""


class CapacityExhaustedError(RuntimeError):
    def __init__(self, unplaced: Sequence[int]):
        super().__init__(f"no free compatible gadget for vertices {sorted(unplaced)}")
        self.unplaced = tuple(sorted(unplaced))


class VertexNotAbsorbableError(ValueError):
    def __init__(self, v: int):
        super().__init__(f"vertex {v} is served by no gadget in the registry")
        self.vertex = v


# -- connectors ----------------------------------------------------------------


def _connectors(g: OrientedGraph, x: int, y: int, k: int, pool: int):
    """Yield the k-connectors x -> w1 -> ... -> wk -> y whose internal
    vertices lie in the bitmask ``pool`` (which excludes x and y), in
    ascending lexicographic order."""
    into_y = g.in_bits(y) & pool
    if k == 1:
        for w in iter_bits(g.out_bits(x) & into_y):
            yield (w,)
    elif k == 2:
        for w1 in iter_bits(g.out_bits(x) & pool):
            for w2 in iter_bits(g.out_bits(w1) & into_y & ~(1 << w1)):
                yield (w1, w2)
    else:
        for w1 in iter_bits(g.out_bits(x) & pool):
            for w2 in iter_bits(g.out_bits(w1) & pool & ~(1 << w1)):
                for w3 in iter_bits(g.out_bits(w2) & into_y & ~(1 << w1 | 1 << w2)):
                    yield (w1, w2, w3)


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")


def enumerate_connectors(g: OrientedGraph, u: int, v: int, k: int,
                         cap: int | None = None) -> list[tuple[int, ...]]:
    """All k-connectors of (u, v) in ascending lexicographic order.

    Connector vertices are distinct and avoid u and v.  ``cap`` truncates
    the enumeration after that many tuples; a cap below 1 raises
    ValueError.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2 or 3, got {k}")
    _check_cap(cap)
    g.check_vertex(u)
    g.check_vertex(v)
    found = _connectors(g, u, v, k, g.full_mask() & ~mask_of((u, v)))
    return list(islice(found, cap))


def _connector_within(g: OrientedGraph, x: int, y: int,
                      pool: int) -> tuple[int, ...] | None:
    """Smallest internal vertex tuple joining x to y inside ``pool`` (a
    bitmask excluding x and y), lexicographically first at that size, or
    None.  Zero internals means the arc itself."""
    if g.has_arc(x, y):
        return ()
    for k in (1, 2, 3):
        inner = next(_connectors(g, x, y, k, pool), None)
        if inner is not None:
            return inner
    return None


@dataclass(frozen=True)
class ConnectivityProfile:
    """Smallest usable connector size per ordered non-adjacent pair."""

    best: dict[Pair, tuple[int, int]]  # pair -> (k, count at that k)
    unconnectable: tuple[Pair, ...]

    def to_json_dict(self) -> dict:
        return {
            "pairs": {f"{u},{v}": {"k": k, "count": c}
                      for (u, v), (k, c) in sorted(self.best.items())},
            "unconnectable": [list(p) for p in self.unconnectable],
        }


_PROFILE_BLOCK = 1 << 20  # entries of one row block of the walk counts


def connectivity_profile(g: OrientedGraph) -> ConnectivityProfile:
    """For every ordered pair (u, v) with no arc u->v, the smallest
    k in {1, 2, 3} admitting a connector, with the count at that k;
    pairs with none at any k are flagged.

    The counts are entries of A^2, A^3 and A^4 for the adjacency matrix A:
    on such a pair every walk u -> w1 .. wk -> v with k <= 3 is a
    k-connector, since an oriented graph has no loops, no 2-cycles and
    here no arc u->v.  Entries stay below n^3 < 2^53, so float64 products
    are exact.  Rows go in blocks, so memory stays bounded at n = 4096.
    """
    n = g.n
    adj = g.adjacency_matrix()
    a = adj.astype(np.float64)
    best: dict[Pair, tuple[int, int]] = {}
    dead: list[Pair] = []
    step = max(1, _PROFILE_BLOCK // max(n, 1))
    for lo in range(0, n, step):
        w2 = a[lo:lo + step] @ a
        w3 = w2 @ a
        w4 = w3 @ a
        non_arc = adj[lo:lo + step] == 0
        non_arc[np.arange(len(non_arc)), np.arange(lo, lo + len(non_arc))] = False
        u, v = np.nonzero(non_arc)
        walks = np.stack([w2[u, v], w3[u, v], w4[u, v]])
        k = (walks > 0).argmax(axis=0)
        count = walks[k, np.arange(len(k))].astype(np.int64)
        live = count > 0
        u += lo
        best.update(zip(zip(u[live].tolist(), v[live].tolist()),
                        zip((k[live] + 1).tolist(), count[live].tolist())))
        dead.extend(zip(u[~live].tolist(), v[~live].tolist()))
    return ConnectivityProfile(best, tuple(dead))


# -- strong absorbers ----------------------------------------------------------


def enumerate_strong_absorbers(g: OrientedGraph, u: int, v: int,
                               cap: int | None = None) -> list[Pair]:
    """Ordered pairs (w, z) with arcs w->z, w->u, v->z, both outside
    {u, v}, ascending lexicographic.  u = v is the single-vertex case."""
    _check_cap(cap)
    g.check_vertex(u)
    g.check_vertex(v)
    ex = ~mask_of((u, v))
    found: list[Pair] = []
    for w in iter_bits(g.in_bits(u) & ex):
        zs = g.out_bits(w) & g.out_bits(v) & ex & ~(1 << w)
        for z in iter_bits(zs):
            found.append((w, z))
            if cap is not None and len(found) >= cap:
                return found
    return found


def count_strong_absorbers(g: OrientedGraph, u: int, v: int) -> int:
    ex = ~mask_of((u, v))
    total = 0
    for w in iter_bits(g.in_bits(u) & ex):
        total += (g.out_bits(w) & g.out_bits(v) & ex & ~(1 << w)).bit_count()
    return total


def is_strongly_absorbable(g: OrientedGraph, u: int, v: int,
                           alpha1: Fraction) -> tuple[bool, int]:
    """Whether (u, v) has at least alpha1 * n^2 strong absorbers; the
    certified count rides along."""
    count = count_strong_absorbers(g, u, v)
    return count >= Fraction(alpha1) * g.n * g.n, count


# -- weak absorbers ------------------------------------------------------------


def enumerate_weak_absorbers(g: OrientedGraph, u: int, v: int,
                             alpha1: Fraction, cap: int | None = None,
                             budget: int = 100_000) -> list[tuple[int, int, int, int]]:
    """Quadruples (w, w', z', z) with arcs w->w', w->u, z'->z, v->z whose
    inner pair (w', z') is alpha1-strongly absorbable.

    All four vertices are distinct and avoid {u, v}.  Enumeration is
    ascending lexicographic; inner-pair verdicts are memoized; ``budget``
    bounds the probed prefixes so dense instances terminate early.
    """
    _check_cap(cap)
    g.check_vertex(u)
    g.check_vertex(v)
    ex = ~mask_of((u, v))
    memo: dict[Pair, bool] = {}

    def inner_ok(wp: int, zp: int) -> bool:
        key = (wp, zp)
        if key not in memo:
            memo[key] = is_strongly_absorbable(g, wp, zp, alpha1)[0]
        return memo[key]

    found: list[tuple[int, int, int, int]] = []
    work = 0
    for w in iter_bits(g.in_bits(u) & ex):
        for wp in iter_bits(g.out_bits(w) & ex & ~(1 << w)):
            for zp in iter_bits(g.full_mask() & ex & ~mask_of((w, wp))):
                work += 1
                if work > budget:
                    return found
                zs = g.out_bits(zp) & g.out_bits(v) & ex & ~mask_of((w, wp, zp))
                if not zs or not inner_ok(wp, zp):
                    continue
                for z in iter_bits(zs):
                    found.append((w, wp, zp, z))
                    if cap is not None and len(found) >= cap:
                        return found
    return found


# -- disjoint family selection ---------------------------------------------------


def _disjoint_sweep(lists: Iterable[Sequence[tuple[int, ...]]],
                    limit: int | None) -> list[tuple[int, ...]]:
    """The family selection rule: walk the candidate lists round-robin by
    rank and keep each tuple that is disjoint from all kept before, until
    ``limit`` are kept.  A repeated tuple is never kept twice: its first
    visit either kept it or met a kept vertex, and both block it again.
    Rank 0 reads ``lists`` lazily, one list as the walk reaches it, so an
    early stop leaves later lists unbuilt."""
    kept: list[tuple[int, ...]] = []
    used: set[int] = set()

    def by_rank():
        read = []
        for tuples in lists:
            read.append(tuples)
            yield from tuples[:1]
        for rank in range(1, max(map(len, read), default=0)):
            yield from (tuples[rank] for tuples in read if rank < len(tuples))

    for tup in map(tuple, by_rank() if limit is None or limit > 0 else ()):
        if used.isdisjoint(tup):
            kept.append(tup)
            used.update(tup)
            if len(kept) == limit:
                break
    return kept


def select_disjoint_family(candidates: dict[Pair, Sequence[tuple[int, ...]]],
                           limit: int | None) -> list[tuple[int, ...]]:
    """A pairwise vertex-disjoint family of at most ``limit`` candidate
    tuples, sorted.

    Pairs are taken in ascending order and their lists read round-robin by
    rank, so every pair's first tuple gets a look before any pair's second;
    a tuple is kept when it shares no vertex with those kept before.  The
    paper first keeps each tuple with probability sigma / 2^7 divided by a
    falling factorial of n, which is close to zero at every n a graph here
    can have, so every tuple is offered.
    """
    return sorted(_disjoint_sweep((candidates[pair] for pair in sorted(candidates)),
                                  limit))


# -- reservoir -------------------------------------------------------------------


# connectors kept per pair for the reservoir's family selection (eight
# times as many are enumerated before the avoid/prefer filters)
RESERVOIR_PER_PAIR_CAP = 8


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
                    target_size: int | None = None,
                    prefer: frozenset[int] | None = None) -> Reservoir:
    """Choose a small vertex set R, staged over k = 1, 2, 3, so that
    ordered non-adjacent pairs outside R can be joined through it.

    ``target_size`` is the vertex budget (default
    ``default_reservoir_size(n)``).  When ``prefer`` is nonempty, R is
    drawn only from it; the pipeline passes the vertices its absorbing
    path can absorb, so reservoir vertices left unused stay absorbable.

    Stage k walks the non-arc pairs (u, v) outside ``avoid`` and earlier
    stages, ascending, that no earlier stage covers.  A pair's candidates
    are the first RESERVOIR_PER_PAIR_CAP of its first eight times as many
    k-connectors that avoid those vertices (and lie in a nonempty
    ``prefer``); ``_disjoint_sweep`` keeps (budget - |R|) // k of them.
    The walk enumerates a pair's connectors only when it reaches the pair
    and stops once that room is full, within the first few pairs of a
    dense graph; a stage that leaves room for the next was walked in full.
    """
    budget = target_size if target_size is not None else default_reservoir_size(g.n)
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

        def candidate_lists():
            for u in iter_bits(g.full_mask() & ~avoid_mask):
                for v in iter_bits(g.non_out_bits(u) & ~avoid_mask):
                    if (u, v) not in covered:
                        opts = [tup for tup in enumerate_connectors(
                                    g, u, v, k, cap=8 * RESERVOIR_PER_PAIR_CAP)
                                if not mask_of(tup) & (avoid_mask | outside)]
                        walked[(u, v)] = opts[:RESERVOIR_PER_PAIR_CAP]
                        yield walked[(u, v)]

        kept = set(_disjoint_sweep(candidate_lists(), room))
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
    inner = next(_connectors(g, x, y, 1, avail), None) if prefer_reservoir else None
    if inner is None:
        inner = _connector_within(g, x, y, avail)
    if inner is None:
        raise NoConnectorAvailableError(x, y, frozenset(res.ledger))
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
    (w, w', z', z) sit as w, w', <connector-only segment>, z', z.  Used
    gadgets are tracked by registry index so rewrites stay idempotent.
    """

    path: tuple[int, ...]
    strong: tuple[StrongGadget, ...] = ()
    weak: tuple[WeakGadget, ...] = ()
    used_strong: frozenset[int] = frozenset()
    used_weak: frozenset[int] = frozenset()
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

    def free_strong(self) -> list[int]:
        return [i for i in range(len(self.strong)) if i not in self.used_strong]

    def free_weak(self) -> list[int]:
        return [i for i in range(len(self.weak)) if i not in self.used_weak]

    def capacity(self) -> int:
        return len(self.free_strong())

    def validate(self, g: OrientedGraph) -> None:
        """Assert path validity and the layout of every unused gadget."""
        if self.path:
            DiPath(self.path).validate(g)
        pos = {v: i for i, v in enumerate(self.path)}
        for i in self.free_strong():
            gad = self.strong[i]
            if pos.get(gad.z, -2) != pos.get(gad.w, -9) + 1:
                raise StitchFailureError(f"strong gadget {gad} not consecutive")
        for i in self.free_weak():
            gad = self.weak[i]
            iw, iz = pos[gad.w], pos[gad.z]
            if self.path[iw + 1] != gad.wp or self.path[iz - 1] != gad.zp:
                raise StitchFailureError(f"weak gadget {gad} endpoints misplaced")
            if iz - iw < 3:
                raise StitchFailureError(f"weak gadget {gad} segment collapsed")


# Absorbing-path constants: ALPHA1 * n^2 strong absorbers make a vertex
# strongly absorbable, ALPHA2 * n^4 weak ones weakly absorbable; at most
# WEAK_TARGET weak gadgets are kept, from ABSORB_PER_PAIR_CAP candidates per
# vertex, and each weak enumeration probes at most WEAK_BUDGET prefixes.
ALPHA1 = Fraction(1, 4096)
ALPHA2 = Fraction(1, 1 << 22)
WEAK_TARGET = 2
ABSORB_PER_PAIR_CAP = 12
WEAK_BUDGET = 100_000


def default_strong_target(n: int) -> int:
    return max(4, min(14, n // 5))


def build_absorbing_path(g: OrientedGraph, *, strong_target: int | None = None,
                         seed: int = 0) -> AbsorbingPath:
    """Classify vertices by absorbability, select disjoint gadget families
    (weak first, then at most ``strong_target`` strong ones from what
    remains, default ``default_strong_target(n)``), and stitch the gadgets
    into one directed path.

    A vertex is strongly absorbable when ``is_strongly_absorbable`` says so
    at ALPHA1, and weakly absorbable when it has at least ALPHA2 * n^4 weak
    absorbers among those the enumeration budget reaches.

    Vertices with neither gadget type are reported in ``gaps`` rather than
    raised: tiny or sparse graphs legitimately have none, and callers can
    still proceed with a degenerate (possibly empty) absorbing path.
    Gadgets whose stitching finds no connector are dropped and counted.
    """
    n = g.n
    tw = max(1, math.ceil(ALPHA2 * n ** 4))

    strong_ok: list[int] = []
    weak_only: list[int] = []
    gaps: list[int] = []
    for v in range(n):
        if is_strongly_absorbable(g, v, v, ALPHA1)[0]:
            strong_ok.append(v)
        elif len(enumerate_weak_absorbers(g, v, v, ALPHA1, cap=tw,
                                          budget=WEAK_BUDGET)) >= tw:
            weak_only.append(v)
        else:
            gaps.append(v)

    weak_candidates = {
        (v, v): enumerate_weak_absorbers(g, v, v, ALPHA1, cap=ABSORB_PER_PAIR_CAP,
                                         budget=WEAK_BUDGET)
        for v in weak_only
    }
    f_weak = select_disjoint_family(weak_candidates, WEAK_TARGET)

    if strong_target is None:
        strong_target = default_strong_target(n)
    taken = {w for tup in f_weak for w in tup}
    # shuffle each pool before capping: the lexicographic enumeration piles
    # onto low-numbered vertices, which starves the disjointness sweep
    pool_rng = random.Random(derive_seed(seed, "strong-pool"))
    strong_candidates: dict[Pair, list[tuple[int, ...]]] = {}
    for v in strong_ok:
        opts = [tup for tup in enumerate_strong_absorbers(
                    g, v, v, cap=8 * ABSORB_PER_PAIR_CAP)
                if taken.isdisjoint(tup)]
        pool_rng.shuffle(opts)
        strong_candidates[(v, v)] = opts[:ABSORB_PER_PAIR_CAP]
    f_strong = select_disjoint_family(strong_candidates, strong_target)

    # Stitch weak units first, then strong, chaining with free connectors.
    units: list[tuple[str, tuple[int, ...]]] = (
        [("weak", tup) for tup in f_weak] + [("strong", tup) for tup in f_strong])
    reserved = taken | {w for tup in f_strong for w in tup}
    path: list[int] = []
    strong_gadgets: list[StrongGadget] = []
    weak_gadgets: list[WeakGadget] = []
    dropped = 0

    for kind, tup in units:
        free_pool = mask_of(set(range(n)) - reserved - set(path))
        if kind == "weak":
            w, wp, zp, z = tup
            inner = _connector_within(g, wp, zp, free_pool)
            if inner is None:
                dropped += 1
                reserved.difference_update(tup)
                continue
            segment = [w, wp, *inner, zp, z]
        else:
            segment = list(tup)
        free_pool &= ~mask_of(segment)
        if path:
            hop = _connector_within(g, path[-1], segment[0], free_pool)
            if hop is None:
                dropped += 1
                reserved.difference_update(tup)
                continue
            path.extend(hop)
        path.extend(segment)
        if kind == "weak":
            weak_gadgets.append(WeakGadget(*tup))
        else:
            strong_gadgets.append(StrongGadget(*tup))

    if units and not path:
        raise StitchFailureError(
            f"none of the {len(units)} selected gadgets could be stitched")
    result = AbsorbingPath(tuple(path), tuple(strong_gadgets), tuple(weak_gadgets),
                           frozenset(), frozenset(), tuple(gaps), dropped)
    result.validate(g)
    return result


# -- leftover absorption -----------------------------------------------------------


def _max_bipartite_matching(lefts: Sequence[int],
                            edges: dict[int, list[int]]) -> dict[int, int]:
    """Kuhn's augmenting-path matching; returns left -> right assignment."""
    match_right: dict[int, int] = {}

    def try_assign(v: int, banned: set[int]) -> bool:
        for r in edges.get(v, ()):
            if r in banned:
                continue
            banned.add(r)
            if r not in match_right or try_assign(match_right[r], banned):
                match_right[r] = v
                return True
        return False

    for v in lefts:
        try_assign(v, set())
    return {v: r for r, v in match_right.items()}


def absorb_vertices(g: OrientedGraph, p_abs: AbsorbingPath,
                    leftovers: Iterable[int]) -> AbsorbingPath:
    """Splice every leftover vertex into the absorbing path.

    Each vertex consumes one unused strong gadget (w, z) with w->v->z, or
    failing that one weak gadget plus one strong gadget via the double
    step: v replaces the weak segment w'..z', which is immediately
    re-absorbed through a strong gadget of the pair (w', z').  Assignment
    maximizes a bipartite matching before falling back to weak routes.

    The result covers exactly V(path) union leftovers, keeps both
    endpoints, and is arc-valid.  Raises VertexNotAbsorbableError when a
    vertex is served by no registry gadget at all, CapacityExhaustedError
    when gadgets exist but too few remain unused.
    """
    todo = sorted(set(leftovers))
    if not todo:
        return p_abs
    overlap = set(todo) & set(p_abs.path)
    if overlap:
        raise ValueError(f"leftovers {sorted(overlap)} already on the path")
    for v in todo:
        g.check_vertex(v)

    free_s = p_abs.free_strong()
    free_w = p_abs.free_weak()
    for v in todo:
        if not any(gad.serves(g, v, v) for gad in p_abs.strong + p_abs.weak):
            raise VertexNotAbsorbableError(v)

    edges = {v: [i for i in free_s if p_abs.strong[i].serves(g, v, v)] for v in todo}
    matching = _max_bipartite_matching(todo, edges)

    plan_strong: dict[int, int] = dict(matching)
    plan_weak: dict[int, tuple[int, int]] = {}
    spent_strong = set(plan_strong.values())
    spent_weak: set[int] = set()
    unplaced: list[int] = []
    for v in todo:
        if v in plan_strong:
            continue
        placed = False
        for wi in free_w:
            if wi in spent_weak or not p_abs.weak[wi].serves(g, v, v):
                continue
            gad = p_abs.weak[wi]
            for si in free_s:
                if si in spent_strong:
                    continue
                if p_abs.strong[si].serves(g, gad.wp, gad.zp):
                    plan_weak[v] = (wi, si)
                    spent_weak.add(wi)
                    spent_strong.add(si)
                    placed = True
                    break
            if placed:
                break
        if not placed:
            unplaced.append(v)
    if unplaced:
        raise CapacityExhaustedError(unplaced)

    path = list(p_abs.path)
    for v, (wi, si) in sorted(plan_weak.items()):
        gad = p_abs.weak[wi]
        i = path.index(gad.w)
        j = path.index(gad.z)
        displaced = path[i + 1:j]  # runs gad.wp .. gad.zp
        path[i + 1:j] = [v]
        host = p_abs.strong[si]
        k = path.index(host.w)
        path[k + 1:k + 1] = displaced
    for v, si in sorted(plan_strong.items()):
        gad = p_abs.strong[si]
        i = path.index(gad.w)
        path.insert(i + 1, v)

    result = AbsorbingPath(tuple(path), p_abs.strong, p_abs.weak,
                           p_abs.used_strong | spent_strong,
                           p_abs.used_weak | spent_weak,
                           p_abs.gaps, p_abs.dropped)
    if ((result.start, result.end) != (p_abs.start, p_abs.end)
            or set(result.path) != set(p_abs.path) | set(todo)):
        raise InvalidPathError(f"absorbing {todo} moved a path endpoint "
                               "or lost a vertex")
    DiPath(result.path).validate(g)
    return result
