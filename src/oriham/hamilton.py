"""Hamilton-cycle solvers.

Two exact solvers (factorial-time search and bitmask dynamic programming,
each up to a fixed graph size), a checked Hall-set test that shows at any
size that a graph has no cycle factor, and a heuristic pipeline that builds
an absorbing path, a connector reservoir and a greedy path cover, stitches
everything into one cycle and absorbs the leftovers.  Exact solvers decide;
the heuristic only ever answers "cycle found" (with a verified certificate)
or "not found" (with the first failing stage), never "none exists".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .absorption import (AbsorbingPath, CapacityExhaustedError,
                         NoConnectorAvailableError, VertexNotAbsorbableError,
                         absorb_vertices, build_absorbing_path,
                         build_reservoir, connect_through_reservoir)
from .graph import (DiCycle, DiPath, OrientedGraph, augment, iter_bits,
                    mask_of, nth_bit, verify_hamilton_cycle)
from .seeds import derive_seed, rng_for


class TooLargeError(ValueError):
    """The instance exceeds the exact solver's size cap."""


class CertificateError(RuntimeError):
    """A solver assembled a cycle that fails verification or breaks the
    invariant its assembly relies on (a solver bug)."""


@dataclass(frozen=True)
class StageRecord:
    stage: str
    ok: bool
    detail: dict

    def to_json_dict(self) -> dict:
        return {"stage": self.stage, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class HamiltonResult:
    verdict: str  # "cycle_found" | "none_exists" | "not_found"
    certificate: DiCycle | None = None
    trace: tuple[StageRecord, ...] = ()

    @property
    def found(self) -> bool:
        return self.verdict == "cycle_found"

    def first_failure(self) -> str | None:
        for rec in self.trace:
            if not rec.ok:
                return rec.stage
        return None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": (None if self.certificate is None
                            else list(self.certificate.vertices)),
            "trace": [rec.to_json_dict() for rec in self.trace],
        }


# -- exact solvers ----------------------------------------------------------------


BRUTE_MAX_N = 10  # exact_brute's size cap
DP_MAX_N = 24  # exact_dp's size cap; the sweeps skip larger graphs


def exact_brute(g: OrientedGraph) -> HamiltonResult:
    """Depth-first search over all cycles anchored at vertex 0, visiting
    out-neighbours in ascending order; returns the lexicographically first
    Hamilton cycle or decides none exists, for n <= BRUTE_MAX_N."""
    if g.n > BRUTE_MAX_N:
        raise TooLargeError(f"n = {g.n} exceeds brute-force cap {BRUTE_MAX_N}")
    n = g.n
    if n == 0:
        return HamiltonResult("none_exists")
    order = [0]

    def dfs(v: int, visited: int) -> bool:
        if len(order) == n:
            return g.has_arc(v, 0)
        for w in iter_bits(g.out_bits(v) & ~visited):
            order.append(w)
            if dfs(w, visited | (1 << w)):
                return True
            order.pop()
        return False

    if dfs(0, 1):
        cycle = DiCycle(tuple(order))
        if not verify_hamilton_cycle(g, cycle):
            raise CertificateError(f"brute-force cycle {order} fails verification")
        return HamiltonResult("cycle_found", cycle)
    return HamiltonResult("none_exists")


_ENDS = np.uint32  # endpoint sets: one bit per vertex, so n <= 32


def _endpoint_table(g: OrientedGraph) -> np.ndarray:
    """Held-Karp table of paths that start at vertex 0.

    For every vertex set ``mask`` containing 0, entry ``mask >> 1`` is the
    bit set of the vertices v such that some path from 0 visits exactly
    ``mask`` and ends at v (sets without vertex 0 are not stored).  Filled
    in pull form one popcount layer at a time: v ends a path through S when
    some end of a path through S - {v} is an in-neighbour of v.
    """
    m = g.n - 1
    dp = np.zeros(1 << m, _ENDS)
    dp[0] = 1
    counts = np.zeros(1, np.uint8)  # popcount of every stored set
    for _ in range(m):
        counts = np.concatenate([counts, counts + 1])
    for k in range(1, m + 1):
        layer = np.flatnonzero(counts == k)
        ends = np.zeros(layer.size, _ENDS)
        for i in range(m):
            # sets lacking vertex i+1 read the next layer, which is still zero
            ends |= np.minimum(dp[layer ^ (1 << i)] & g.in_bits(i + 1), 1) << (i + 1)
        dp[layer] = ends
    return dp


def exact_dp(g: OrientedGraph) -> HamiltonResult:
    """Held-Karp reachability over (visited set, endpoint) states anchored
    at vertex 0, with certificate reconstruction on success.

    The table holds 2**(n-1) uint32 endpoint sets, so n above DP_MAX_N
    raises TooLargeError first.  Time and peak process RSS (about 32 MB of
    it interpreter and numpy) on one core of a shared Xeon host, numpy
    2.4: 0.05 s / 38 MB at n = 20, 0.25 s / 53 MB at 22, 1.8 s / 114 MB at 24.
    """
    n = g.n
    if n > DP_MAX_N:
        raise TooLargeError(f"n = {n} exceeds subset-DP cap {DP_MAX_N}")
    if n == 0:
        return HamiltonResult("none_exists")
    dp = _endpoint_table(g)

    full = (1 << n) - 1
    closing = int(dp[full >> 1]) & g.in_bits(0)
    if n == 1 or not closing:
        return HamiltonResult("none_exists")
    v = next(iter_bits(closing))
    order = [0] * n
    mask = full
    for pos in range(n - 1, 0, -1):
        order[pos] = v
        mask ^= 1 << v
        v = next(iter_bits(int(dp[mask >> 1]) & g.in_bits(v)))
    cycle = DiCycle(tuple(order))
    if v != 0 or not verify_hamilton_cycle(g, cycle):
        raise CertificateError(f"subset-DP walk-back {order} ends at {v}, "
                               "or fails verification")
    return HamiltonResult("cycle_found", cycle)


def hall_witness(g: OrientedGraph) -> tuple[list[int], int] | None:
    """(S, |N+(S)|) for a set S of fewer than |S| out-neighbours, so no
    cycle factor (tails matched to heads along arcs) and no Hamilton cycle;
    None if G has one.  Each tail, ascending, takes its lowest free head;
    S is the first unmatched tail that cannot augment, with the owners of
    the heads it visited.  CertificateError unless |N+(S)| < |S|."""
    owner: dict[int, int] = {}
    free = (1 << g.n) - 1
    for v, out in enumerate(g._out):
        if low := out & free & -(out & free):
            free ^= low
            owner[low.bit_length() - 1] = v
    prefs, matched = [(out,) for out in g._out], set(owner.values())
    for v in range(g.n):
        if v not in matched and (heads := augment(v, prefs, owner)) is not None:
            hall = sorted({v, *(owner[h] for h in iter_bits(heads))})
            members = mask_of(hall)  # N+(S) recounted from the in-bitsets
            if (size := sum(inn & members != 0 for inn in g._in)) >= len(hall):
                raise CertificateError(f"Hall set {hall} has {size} out-neighbours")
            return hall, size
    return None


# -- greedy path cover --------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    paths: tuple[DiPath, ...]
    uncovered: frozenset[int]
    truncated: bool


def greedy_path_cover(g: OrientedGraph, avoid: frozenset[int] | set[int],
                      seed: int = 0) -> CoverResult:
    """Cover V(G) minus ``avoid`` by few vertex-disjoint directed paths.

    Paths grow by tail/head extension plus insertion between consecutive
    path vertices.  Covers needing more than MAX_PATHS paths are
    truncated to the longest MAX_PATHS and flagged.

    Every random pick (a path's start, a tail or head extension) is one
    ``rng.randrange(k)`` over its k candidates, indexing them in ascending
    vertex order (``_pick_bit``), from the stream ``rng_for(seed, "cover",
    0)``; insertion is deterministic.  That draw contract fixes the cover a
    seed produces.
    """
    rem = g.full_mask() & ~mask_of(map(g.check_vertex, avoid))
    out, inn = g._out, g._in
    rng = rng_for(seed, "cover", 0)
    paths: list[list[int]] = []
    while rem:
        start = _pick_bit(rem, rng)
        rem ^= 1 << start
        path = [start]
        on_path = 1 << start
        # vertices with an arc from / to some path vertex
        from_path, to_path = out[start], inn[start]
        while True:
            if opts := out[path[-1]] & rem:
                w = _pick_bit(opts, rng)
                path.append(w)
            elif opts := inn[path[0]] & rem:
                w = _pick_bit(opts, rng)
                path.insert(0, w)
            else:
                # insert the smallest w with arcs path[i] -> w -> path[i + 1],
                # at the smallest such i; stop when there is none
                body = on_path ^ 1 << path[-1]
                pos = {p: i for i, p in enumerate(path)}
                for w in iter_bits(rem & from_path & to_path):
                    succ = out[w]
                    spots = [pos[p] for p in iter_bits(inn[w] & body)
                             if succ >> path[pos[p] + 1] & 1]
                    if spots:
                        path.insert(min(spots) + 1, w)
                        break
                else:
                    break
            rem ^= 1 << w
            on_path |= 1 << w
            from_path |= out[w]
            to_path |= inn[w]
        paths.append(path)

    truncated = len(paths) > MAX_PATHS
    uncovered: list[int] = []  # each vertex is on a path until truncation drops it
    if truncated:
        keep = set(map(tuple, sorted(paths, key=len, reverse=True)[:MAX_PATHS]))
        uncovered = [v for p in paths if tuple(p) not in keep for v in p]
        paths = [p for p in paths if tuple(p) in keep]
    return CoverResult(tuple(DiPath(tuple(p)) for p in paths),
                       frozenset(uncovered), truncated)


def _pick_bit(mask: int, rng) -> int:
    """The set bit of rank ``rng.randrange(popcount)`` in ascending order:
    the same single draw ``rng.choice`` makes over the sorted bit list."""
    return nth_bit(mask, rng.randrange(mask.bit_count()))


# -- absorption pipeline ---------------------------------------------------------------


# Pipeline constants: the cover keeps at most MAX_PATHS paths; cover, stitch
# and absorb are tried together up to STITCH_ATTEMPTS times, and the first
# attempt that absorbs its leftovers wins.
MAX_PATHS = 12
STITCH_ATTEMPTS = 12


def find_hamilton_absorption(g: OrientedGraph, seed: int = 0) -> HamiltonResult:
    """Heuristic Hamilton-cycle search by absorption.

    Stages: build an absorbing path and reserve connectors, then make up
    to STITCH_ATTEMPTS attempts of three steps each: cover the rest with
    few paths, stitch everything cyclically through the reservoir, and
    absorb the unused reservoir vertices and uncovered vertices into the
    absorbing path.  The first attempt that absorbs is verified and
    returned.  A failure reports the first failing stage in the trace:
    ``stitch`` when no attempt stitched, else ``absorb`` from the last
    attempt that stitched.  The verdict is never "none_exists".  Below
    semidegree (3n - 4) / 8, a G with no cycle factor fails first at
    ``cover``, reason "no cycle factor", with a checked ``hall_witness``
    set S (``hall_set``) and |N+(S)| (``out_neighbourhood``).
    """
    trace: list[StageRecord] = []

    def fail(stage: str, detail: dict) -> HamiltonResult:
        trace.append(StageRecord(stage, False, detail))
        return HamiltonResult("not_found", None, tuple(trace))

    if g.n == 0:
        return fail("cover", {"reason": "empty graph"})
    # from semidegree (3n - 4) / 8 up, large oriented graphs are Hamiltonian
    # (Keevash, Kuhn and Osthus 2009), so there the test only costs time
    if 8 * g.min_semidegree() < 3 * g.n - 4 and (witness := hall_witness(g)):
        return fail("cover", {"reason": "no cycle factor", "hall_set": witness[0],
                              "out_neighbourhood": witness[1]})

    p_abs = build_absorbing_path(g, seed=derive_seed(seed, "absorb"))
    trace.append(StageRecord("absorbing_path", True, {
        "vertices": len(p_abs.path),
        "strong_gadgets": len(p_abs.strong),
        "weak_gadgets": len(p_abs.weak),
        "classification_gaps": len(p_abs.gaps),
        "dropped_gadgets": p_abs.dropped,
    }))

    # reservoir, preferring vertices the registry can absorb later
    servable = p_abs.servable(g)
    res = build_reservoir(g, p_abs.vertex_set(), prefer=servable)
    trace.append(StageRecord("reservoir", True, {
        "vertices": len(res.vertices),
        "servable_share": len(res.vertices & servable),
    }))

    # each attempt rerolls the cover (fresh path endpoints) and the stitch
    # order; odd attempts drain leftover reservoir vertices into junction
    # links to shrink the absorb load
    excluded = p_abs.vertex_set() | res.vertices
    last = None  # (cover and stitch records, absorb failure) of the last stitch
    for attempt in range(STITCH_ATTEMPTS):
        cover = greedy_path_cover(g, excluded, derive_seed(seed, "cover", attempt))
        stitched = _attempt_stitch(g, p_abs, cover.paths, mask_of(res.vertices),
                                   rng_for(seed, "stitch", attempt),
                                   drain=attempt % 2 == 1)
        if stitched is None:
            continue
        seq, free = stitched
        done = (_cover_record(cover), StageRecord("stitch", True, {
            "reservoir_used": len(res.vertices) - free.bit_count()}))
        leftovers = sorted({*iter_bits(free), *cover.uncovered})
        try:
            grown = absorb_vertices(g, p_abs, leftovers)
        except (CapacityExhaustedError, VertexNotAbsorbableError) as exc:
            last = done, {"leftovers": len(leftovers), "reason": str(exc)}
            continue
        trace.extend(done)
        if tuple(seq[:len(p_abs.path)]) != p_abs.path:
            raise CertificateError("stitched sequence does not start with "
                                   "the absorbing path")
        trace.append(StageRecord("absorb", True, {"absorbed": len(leftovers)}))
        cycle = DiCycle(tuple(grown.path) + tuple(seq[len(p_abs.path):]))
        if not verify_hamilton_cycle(g, cycle):
            return fail("close", {"reason": "assembled sequence failed verification"})
        trace.append(StageRecord("close", True, {"length": len(cycle.vertices)}))
        return HamiltonResult("cycle_found", cycle, tuple(trace))

    if last is None:
        trace.append(_cover_record(cover))
        return fail("stitch", {
            "attempts": STITCH_ATTEMPTS,
            "units": len(cover.paths) + (1 if p_abs.path else 0),
        })
    trace.extend(last[0])
    return fail("absorb", last[1])


def _cover_record(cover: CoverResult) -> StageRecord:
    return StageRecord("cover", True, {
        "paths": len(cover.paths),
        "uncovered": len(cover.uncovered),
        "truncated": cover.truncated,
    })


def _attempt_stitch(g: OrientedGraph, p_abs: AbsorbingPath,
                    paths: Sequence[DiPath], free: int,
                    rng, drain: bool = False) -> tuple[list[int], int] | None:
    """One stitching attempt: order the cover paths (direct-arc greedy,
    choices drawn from ``rng``), then join consecutive units and close the
    cycle through the bitmask ``free`` of reservoir vertices, each spent at
    most once; returns the sequence and the vertices left free.  ``drain``
    routes junctions through the reservoir even where direct arcs exist."""
    units: list[list[int]] = []
    if p_abs.path:
        units.append(list(p_abs.path))
    pool = [list(p.vertices) for p in paths]
    if not units:
        if not pool:
            return None
        units.append(pool.pop(0))
    while pool:
        tail = units[-1][-1]
        direct = [p for p in pool if g.has_arc(tail, p[0])]
        choice = rng.choice(direct or pool)
        pool.remove(choice)
        units.append(choice)

    seq: list[int] = []
    try:
        for i, unit in enumerate(units):
            seq.extend(unit)
            nxt = units[(i + 1) % len(units)]
            if unit[-1] == nxt[0]:  # single one-vertex unit cannot close
                return None
            inner = connect_through_reservoir(g, free, unit[-1], nxt[0],
                                              prefer_reservoir=drain).vertices[1:-1]
            seq.extend(inner)
            free &= ~mask_of(inner)
    except NoConnectorAvailableError:
        return None
    if len(seq) != len(set(seq)):
        raise CertificateError(f"stitched sequence {seq} repeats a vertex")
    return seq, free
