"""Exhaustive orientation scan used by the implication suite.

Every oriented graph on n labeled vertices corresponds to a base-3 code
over the C(n,2) vertex pairs: trit 0 leaves the pair non-adjacent, 1
orients it low->high, 2 the other way.  The scan walks all codes and
counts graphs that satisfy the degree-sum threshold, and those among them
violating the semidegree consequence (integer comparisons only: the threshold
(3n-3)/4 <= min pair sum is tested as 4*minsum >= 3n-3, the consequence
n/8 <= delta as 8*delta >= n).

Codes are scanned in chunks of 3**LOW_PAIRS consecutive codes: the low
trits run through every value inside a chunk (one numpy row per code) and
the remaining high trits are fixed per chunk.
"""

import numpy as np

LOW_PAIRS = 10
EXCLUDED = 1000  # added to a pair sum over an arc: larger than any real sum


def pair_arrays(n):
    pu, pv = [], []
    for u in range(n):
        for v in range(u + 1, n):
            pu.append(u)
            pv.append(v)
    return np.array(pu, dtype=np.int64), np.array(pv, dtype=np.int64)


def _trits(count, width):
    """Base-3 digits, least significant first, of 0..count-1: (count, width)."""
    return (np.arange(count)[:, None] // 3 ** np.arange(width) % 3).astype(np.int8)


def _degrees(trits, pu, pv, n):
    """Out- and in-degree rows of the pairs' orientations, one row per code."""
    dplus = np.zeros((len(trits), n), np.int16)
    dminus = np.zeros((len(trits), n), np.int16)
    for t in range(trits.shape[1]):
        fwd, bwd = trits[:, t] == 1, trits[:, t] == 2
        dplus[:, pu[t]] += fwd
        dminus[:, pv[t]] += fwd
        dplus[:, pv[t]] += bwd
        dminus[:, pu[t]] += bwd
    return dplus, dminus


def implication_counts(n):
    """Numbers of n-vertex oriented graphs meeting the pair-sum threshold,
    and of those among them that miss the semidegree bound. Exhaustive over
    all 3^C(n,2) codes."""
    pu, pv = pair_arrays(n)
    k = min(len(pu), LOW_PAIRS)
    lo_u, lo_v, hi_u, hi_v = pu[:k], pv[:k], pu[k:], pv[k:]
    low = _trits(3 ** k, k)
    lo_plus, lo_minus = _degrees(low, lo_u, lo_v, n)
    # the ordered pair (u, v) is a non-arc unless its trit is 1, (v, u) unless 2
    lo_uv = np.where(low == 1, EXCLUDED, 0).astype(np.int16)
    lo_vu = np.where(low == 2, EXCLUDED, 0).astype(np.int16)
    ore_type = bad = 0
    for high in _trits(3 ** (len(pu) - k), len(pu) - k):
        hi_plus, hi_minus = _degrees(high[None, :], hi_u, hi_v, n)
        dplus, dminus = lo_plus + hi_plus, lo_minus + hi_minus
        uv, vu = high != 1, high != 2
        sums = np.concatenate([
            dplus[:, lo_u] + dminus[:, lo_v] + lo_uv,
            dplus[:, lo_v] + dminus[:, lo_u] + lo_vu,
            dplus[:, hi_u[uv]] + dminus[:, hi_v[uv]],
            dplus[:, hi_v[vu]] + dminus[:, hi_u[vu]],
        ], axis=1)
        minsum = sums.min(axis=1)
        delta = np.minimum(dplus.min(axis=1), dminus.min(axis=1))
        meets = 4 * minsum >= 3 * n - 3
        ore_type += np.count_nonzero(meets)
        bad += np.count_nonzero(meets & (8 * delta < n))
    return int(ore_type), int(bad)


def graph_arcs_of_code(n, code):
    """Arc list for one orientation code, mirroring the scan's decoding."""
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            tr = code % 3
            code //= 3
            if tr == 1:
                arcs.append((u, v))
            elif tr == 2:
                arcs.append((v, u))
    return arcs
