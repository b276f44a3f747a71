"""Seeded random instance generators used by tests and sweeps."""

from __future__ import annotations

import random
from itertools import chain
from typing import Iterator

import numpy as np

from .extremal import near_regular_tournament
from .graph import OrientedGraph, _check_order
from .seeds import rng_for

# 32-bit Mersenne Twister words that _randrange_chunks draws at a time
_DRAW_CHUNK = 1 << 13


def random_oriented(n: int, arc_prob: float, seed: int) -> OrientedGraph:
    """Each unordered pair carries an arc with probability ``arc_prob``,
    oriented uniformly at random."""
    _check_order(n)
    rng = rng_for(seed, "oriented", n)
    adj = np.zeros((n, n), bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < arc_prob:
                adj[(u, v) if rng.random() < 0.5 else (v, u)] = True
    return OrientedGraph.from_adjacency(adj)


def _randrange_chunks(rng: random.Random, n: int,
                      count: int) -> Iterator[np.ndarray]:
    """The values of ``count`` successive ``rng.randrange(n)`` calls, in
    chunks drawn from ``_DRAW_CHUNK`` words each; ``rng`` ends up past the
    last whole chunk.

    CPython's ``randrange(n)`` takes one 32-bit Mersenne Twister word per
    try, keeps its top ``n.bit_length()`` bits (``getrandbits``) and tries
    again while they read n or more.  ``rng.getrandbits(32 * k)`` is the
    next k words, the first drawn least significant.
    """
    if count > 0 and n <= 0:
        raise ValueError("empty range for randrange()")
    shift = 32 - n.bit_length()
    while count > 0:
        words = rng.getrandbits(32 * _DRAW_CHUNK).to_bytes(4 * _DRAW_CHUNK, "little")
        values = np.frombuffer(words, np.uint32) >> shift
        values = values[values < n][:count]
        count -= len(values)
        yield values


def random_min_semidegree(n: int, bound: int, seed: int,
                          flips: int | None = None) -> OrientedGraph:
    """Random-looking tournament with min semidegree kept >= ``bound``.

    Starts from the near-regular circulant (semidegree floor((n-1)/2)) and
    makes ``flips`` (default 8n^2) reversal attempts.  Each draws u and v
    with ``rng.randrange(n)`` and reverses the arc between them when
    u != v and both touched degrees stay at or above the bound.

    ``_randrange_chunks`` draws in bulk and reproduces that ``randrange``
    stream exactly, so the graph is the one a draw-at-a-time loop builds.
    It draws ``_DRAW_CHUNK`` words at a time because one array of all the
    draws would raise the peak memory at n = 192 from about 1 MiB (the
    starting tournament) to about 10 MiB.
    """
    _check_order(n)
    if bound > (n - 1) // 2:
        raise ValueError(f"bound {bound} unattainable: tournaments cap at {(n - 1) // 2}")
    matrix = near_regular_tournament(n, None).adjacency_matrix()
    # rows[u][v] == 1 iff u->v; per-row bytearrays index without making ints
    rows = [bytearray(row) for row in matrix]
    # a tournament stays one under reversals: in-degree is n - 1 - out-degree
    out = matrix.sum(axis=1).tolist()
    top = n - 1 - bound
    rng = rng_for(seed, "min-semidegree", n, bound)
    count = 2 * (flips if flips is not None else 8 * n * n)
    draws = chain.from_iterable(c.tolist() for c in _randrange_chunks(rng, n, count))
    for u, v in zip(draws, draws):
        if u == v:
            continue
        if not rows[u][v]:
            u, v = v, u
        # reverse u->v to v->u when degrees allow
        if out[u] <= bound or out[v] >= top:
            continue
        rows[u][v] = 0
        rows[v][u] = 1
        out[u] -= 1
        out[v] += 1
    return OrientedGraph.from_adjacency(rows)
