"""Seeded random instance generators used by tests and sweeps."""

from __future__ import annotations

from .extremal import near_regular_tournament
from .graph import OrientedGraph
from .seeds import rng_for


def random_oriented(n: int, arc_prob: float, seed: int) -> OrientedGraph:
    """Each unordered pair carries an arc with probability ``arc_prob``,
    oriented uniformly at random."""
    rng = rng_for(seed, "oriented", n)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < arc_prob:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)


def random_min_semidegree(n: int, bound: int, seed: int,
                          flips: int | None = None) -> OrientedGraph:
    """Random-looking tournament with min semidegree kept >= ``bound``.

    Starts from the near-regular circulant (semidegree floor((n-1)/2)) and
    applies seeded arc reversals, each accepted only when both touched
    degrees stay at or above the bound.
    """
    if bound > (n - 1) // 2:
        raise ValueError(f"bound {bound} unattainable: tournaments cap at {(n - 1) // 2}")
    base = near_regular_tournament(n, None)
    out = [base.out_bits(v) for v in range(n)]
    inn = [base.in_bits(v) for v in range(n)]
    rng = rng_for(seed, "min-semidegree", n, bound)
    for _ in range(flips if flips is not None else 8 * n * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        if not (out[u] >> v) & 1:
            u, v = v, u
            if not (out[u] >> v) & 1:
                continue
        # reverse u->v to v->u when degrees allow
        if out[u].bit_count() - 1 < bound or inn[v].bit_count() - 1 < bound:
            continue
        out[u] &= ~(1 << v)
        inn[v] &= ~(1 << u)
        out[v] |= 1 << u
        inn[u] |= 1 << v
    # each flip moves one arc, so the bitsets stay an oriented graph
    return OrientedGraph._from_bits(n, out, inn, base.arc_count)
