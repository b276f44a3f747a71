"""Hamilton-cycle solvers.

Two exact solvers (factorial-time search for tiny graphs, bitmask dynamic
programming up to a configurable cap) and a heuristic pipeline that builds
an absorbing path, a connector reservoir and a greedy path cover, stitches
everything into one cycle and absorbs the leftovers.  Exact solvers decide;
the heuristic only ever answers "cycle found" (with a verified certificate)
or "not found" (with the first failing stage), never "none exists".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .absorption import (AbsorbingPath, CapacityExhaustedError,
                         NoConnectorAvailableError, Reservoir,
                         StitchFailureError, VertexNotAbsorbableError,
                         absorb_vertices, build_absorbing_path, build_reservoir,
                         connect_through_reservoir)
from .graph import (DiCycle, DiPath, OrientedGraph, iter_bits, mask_of,
                    verify_hamilton_cycle)
from .seeds import derive_seed, rng_for


class TooLargeError(ValueError):
    """The instance exceeds the solver's configured size cap."""


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


def exact_brute(g: OrientedGraph, max_n: int = 10) -> HamiltonResult:
    """Depth-first search over all cycles anchored at vertex 0, visiting
    out-neighbours in ascending order; returns the lexicographically first
    Hamilton cycle or decides none exists."""
    if g.n > max_n:
        raise TooLargeError(f"n = {g.n} exceeds brute-force cap {max_n}")
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


_ENDS = np.uint32  # endpoint sets: one bit per vertex


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


def exact_dp(g: OrientedGraph, max_n: int = 24) -> HamiltonResult:
    """Held-Karp reachability over (visited set, endpoint) states anchored
    at vertex 0, with certificate reconstruction on success.

    The table holds 2**(n-1) uint32 endpoint sets, so n is capped at 32
    whatever ``max_n`` says.  Time and peak process RSS (about 32 MB of it
    interpreter and numpy) on one core of a shared Xeon host, numpy 2.4:
    0.05 s / 38 MB at n = 20, 0.25 s / 53 MB at 22, 1.8 s / 114 MB at 24.
    """
    n = g.n
    cap = min(max_n, np.iinfo(_ENDS).bits)
    if n > cap:
        raise TooLargeError(f"n = {n} exceeds subset-DP cap {cap} "
                            f"(max_n = {max_n}, 32-bit endpoint sets)")
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


# -- greedy path cover --------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    paths: tuple[DiPath, ...]
    uncovered: frozenset[int]
    pool_size: int
    truncated: bool

    def covered_fraction(self) -> Fraction:
        if self.pool_size == 0:
            return Fraction(1)
        return Fraction(self.pool_size - len(self.uncovered), self.pool_size)


def greedy_path_cover(g: OrientedGraph, avoid: frozenset[int] | set[int],
                      max_paths: int, seed: int = 0,
                      restarts: int = 8) -> CoverResult:
    """Cover V(G) minus ``avoid`` by few vertex-disjoint directed paths.

    Each seeded restart grows paths by tail/head extension plus insertion
    between consecutive path vertices; the cover with fewest paths wins.
    Covers needing more than ``max_paths`` paths are truncated to the
    longest ones and flagged.
    """
    pool = [v for v in range(g.n) if v not in avoid]
    if not pool:
        return CoverResult((), frozenset(), 0, False)

    def attempt(rng) -> list[list[int]]:
        remaining = set(pool)
        paths: list[list[int]] = []
        while remaining:
            start = rng.choice(sorted(remaining))
            remaining.remove(start)
            path = [start]
            while True:
                opts = g.out_bits(path[-1]) & mask_of(remaining)
                if opts:
                    w = _pick_bit(opts, rng)
                    path.append(w)
                    remaining.remove(w)
                    continue
                opts = g.in_bits(path[0]) & mask_of(remaining)
                if opts:
                    w = _pick_bit(opts, rng)
                    path.insert(0, w)
                    remaining.remove(w)
                    continue
                inserted = False
                for v in sorted(remaining):
                    spots = [i for i in range(len(path) - 1)
                             if g.has_arc(path[i], v) and g.has_arc(v, path[i + 1])]
                    if spots:
                        path.insert(spots[0] + 1, v)
                        remaining.remove(v)
                        inserted = True
                        break
                if not inserted:
                    break
            paths.append(path)
        return paths

    best = min((attempt(rng_for(seed, "cover", r)) for r in range(max(1, restarts))),
               key=len)

    truncated = len(best) > max_paths
    if truncated:
        keep = set(map(tuple, sorted(best, key=len, reverse=True)[:max_paths]))
        kept = [p for p in best if tuple(p) in keep]
    else:
        kept = best
    covered = {v for p in kept for v in p}
    return CoverResult(tuple(DiPath(tuple(p)) for p in kept),
                       frozenset(pool) - covered, len(pool), truncated)


def _pick_bit(mask: int, rng) -> int:
    return rng.choice(list(iter_bits(mask)))


# -- absorption pipeline ---------------------------------------------------------------


# Pipeline constants: the cover keeps at most MAX_PATHS paths and its first
# build takes the best of COVER_RESTARTS seeded attempts; stitching is tried
# STITCH_ATTEMPTS times; at most LEFTOVER_RATIO * |absorbing path| leftovers
# are handed to the absorb stage.  Graphs above PIPELINE_MAX_N vertices
# are refused.
MAX_PATHS = 12
COVER_RESTARTS = 8
STITCH_ATTEMPTS = 12
LEFTOVER_RATIO = Fraction(1, 4)
PIPELINE_MAX_N = 512


def find_hamilton_absorption(g: OrientedGraph, seed: int = 0) -> HamiltonResult:
    """Heuristic Hamilton-cycle search by absorption.

    Stages: build an absorbing path, reserve connectors, cover the rest
    with few paths, stitch everything cyclically through the reservoir,
    absorb unused reservoir vertices and uncovered vertices into the
    absorbing path, then verify.  A failure reports the first failing
    stage in the trace; the verdict is never "none_exists".
    """
    if g.n > PIPELINE_MAX_N:
        raise TooLargeError(f"n = {g.n} exceeds pipeline cap {PIPELINE_MAX_N}")
    trace: list[StageRecord] = []

    def fail(stage: str, detail: dict) -> HamiltonResult:
        trace.append(StageRecord(stage, False, detail))
        return HamiltonResult("not_found", None, tuple(trace))

    if g.n == 0:
        return fail("cover", {"reason": "empty graph"})

    # absorbing path
    try:
        p_abs = build_absorbing_path(g, seed=derive_seed(seed, "absorb"))
        note = {}
    except StitchFailureError as exc:
        p_abs = AbsorbingPath(())
        note = {"stitch_degraded": str(exc)}
    trace.append(StageRecord("absorbing_path", True, {
        "vertices": len(p_abs.path),
        "strong_gadgets": len(p_abs.strong),
        "weak_gadgets": len(p_abs.weak),
        "classification_gaps": len(p_abs.gaps),
        "dropped_gadgets": p_abs.dropped,
        **note,
    }))

    # reservoir, preferring vertices the registry can absorb later
    servable = frozenset(
        v for v in range(g.n)
        if v not in p_abs.vertex_set()
        and any(p_abs.strong[i].serves(g, v, v) for i in p_abs.free_strong()))
    res = build_reservoir(g, p_abs.vertex_set(), prefer=servable)
    trace.append(StageRecord("reservoir", True, {
        "vertices": len(res.vertices),
        "servable_share": len(res.vertices & servable),
    }))

    # path cover and cyclic stitching, retried jointly: each retry rerolls
    # the cover (fresh path endpoints) and odd attempts drain leftover
    # reservoir vertices into junction links to shrink the absorb load
    excluded = p_abs.vertex_set() | res.vertices
    cover = greedy_path_cover(g, excluded, MAX_PATHS,
                              derive_seed(seed, "cover", 0), COVER_RESTARTS)
    best = None
    for attempt in range(STITCH_ATTEMPTS):
        if attempt:
            cover = greedy_path_cover(g, excluded, MAX_PATHS,
                                      derive_seed(seed, "cover", attempt), 1)
        rng = None if attempt == 0 else rng_for(seed, "stitch", attempt)
        stitched = _attempt_stitch(g, p_abs, cover.paths, res, rng,
                                   drain=attempt % 2 == 1)
        if stitched is None:
            continue
        seq, used = stitched
        left = sorted((res.vertices - used) | cover.uncovered)
        if best is None or len(left) < len(best[0]):
            best = (left, seq, used, cover)
        if not left:
            break
    if best is not None:
        leftovers, cycle_seq, used_reservoir, cover = best
    trace.append(StageRecord("cover", True, {
        "paths": len(cover.paths),
        "uncovered": len(cover.uncovered),
        "truncated": cover.truncated,
    }))
    if best is None:
        return fail("stitch", {
            "attempts": STITCH_ATTEMPTS,
            "units": len(cover.paths) + (1 if p_abs.path else 0),
        })
    trace.append(StageRecord("stitch", True, {
        "reservoir_used": len(used_reservoir),
    }))

    # absorb unused reservoir and uncovered vertices
    limit = max(1, int(LEFTOVER_RATIO * len(p_abs.path)))
    if len(leftovers) > limit:
        return fail("absorb", {"leftovers": len(leftovers), "limit": limit})
    if leftovers:
        try:
            grown = absorb_vertices(g, p_abs, leftovers)
        except (CapacityExhaustedError, VertexNotAbsorbableError) as exc:
            return fail("absorb", {"leftovers": len(leftovers), "reason": str(exc)})
        if tuple(cycle_seq[:len(p_abs.path)]) != p_abs.path:
            raise CertificateError("stitched sequence does not start with "
                                   "the absorbing path")
        cycle_seq = list(grown.path) + cycle_seq[len(p_abs.path):]
        trace.append(StageRecord("absorb", True, {"absorbed": len(leftovers)}))
    else:
        trace.append(StageRecord("absorb", True, {"absorbed": 0}))

    cycle = DiCycle(tuple(cycle_seq))
    if not verify_hamilton_cycle(g, cycle):
        return fail("close", {"reason": "assembled sequence failed verification"})
    trace.append(StageRecord("close", True, {"length": len(cycle_seq)}))
    return HamiltonResult("cycle_found", cycle, tuple(trace))


def _attempt_stitch(g: OrientedGraph, p_abs: AbsorbingPath,
                    paths: Sequence[DiPath], res: Reservoir,
                    rng, drain: bool = False) -> tuple[list[int], frozenset[int]] | None:
    """One stitching attempt: order the cover paths (direct-arc greedy,
    randomized on retries), then join consecutive units and close the
    cycle through a fresh reservoir ledger.  ``drain`` routes junctions
    through the reservoir even where direct arcs exist."""
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
        bucket = direct or pool
        choice = bucket[0] if rng is None else rng.choice(bucket)
        pool.remove(choice)
        units.append(choice)

    scratch = Reservoir(res.vertices)
    seq: list[int] = []
    try:
        for i, unit in enumerate(units):
            seq.extend(unit)
            nxt = units[(i + 1) % len(units)]
            if unit[-1] == nxt[0]:  # single one-vertex unit cannot close
                return None
            link = connect_through_reservoir(g, scratch, unit[-1], nxt[0],
                                             prefer_reservoir=drain)
            seq.extend(link.vertices[1:-1])
    except NoConnectorAvailableError:
        return None
    if len(seq) != len(set(seq)):
        raise CertificateError(f"stitched sequence {seq} repeats a vertex")
    return seq, frozenset(scratch.ledger)
