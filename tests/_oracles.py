"""Slow reference implementations used to cross-check the library.

Everything here is written as plain nested loops over vertex tuples so the
logic is independently auditable. Nothing imports from oriham beyond the
graph container itself.
"""

from fractions import Fraction
from itertools import permutations


def ore_min_pair(g):
    """Smallest deg_out(x) + deg_in(y) over ordered non-arc pairs, or None."""
    best = None
    witness = None
    for x in range(g.n):
        for y in range(g.n):
            if x == y or g.has_arc(x, y):
                continue
            s = g.out_degree(x) + g.in_degree(y)
            if best is None or s < best:
                best = s
                witness = (x, y)
    return best, witness


def ore_holds(g):
    best, _ = ore_min_pair(g)
    if best is None:
        return True
    return Fraction(best) >= Fraction(3 * g.n - 3, 4)


def connectors_oracle(g, u, v, k):
    """All k-tuples of distinct inner vertices forming a u -> ... -> v path."""
    ex = {u, v}
    out = []
    for tup in permutations(sorted(set(range(g.n)) - ex), k):
        seq = (u,) + tup + (v,)
        if all(g.has_arc(seq[i], seq[i + 1]) for i in range(len(seq) - 1)):
            out.append(tup)
    return sorted(out)


def strong_absorbers_oracle(g, u, v):
    out = []
    for w in range(g.n):
        if w in (u, v):
            continue
        for z in range(g.n):
            if z in (u, v) or z == w:
                continue
            if g.has_arc(w, z) and g.has_arc(w, u) and g.has_arc(v, z):
                out.append((w, z))
    return sorted(out)


def weak_absorbers_oracle(g, u, v, alpha1):
    """Quadruples (w, wp, zp, z) whose inner pair is strongly absorbable."""
    threshold = alpha1 * g.n * g.n
    inner_ok = {}
    out = []
    for w, wp, zp, z in permutations(range(g.n), 4):
        if u in (w, wp, zp, z) or v in (w, wp, zp, z):
            continue
        if not (g.has_arc(w, wp) and g.has_arc(zp, z)):
            continue
        if not (g.has_arc(w, u) and g.has_arc(v, z)):
            continue
        key = (wp, zp)
        if key not in inner_ok:
            cnt = len(strong_absorbers_oracle(g, wp, zp))
            inner_ok[key] = Fraction(cnt) >= threshold
        if inner_ok[key]:
            out.append((w, wp, zp, z))
    return sorted(out)


def endpoint_table_oracle(g):
    """Held-Karp table indexed by vertex set, in push form: entry ``mask`` is
    the bit set of ends of paths from vertex 0 that visit exactly ``mask``."""
    n = g.n
    out = [sum(1 << w for w in range(n) if g.has_arc(v, w)) for v in range(n)]
    dp = [0] * (1 << n)
    dp[1] = 1
    for mask in range(1, 1 << n, 2):
        for v in range(n):
            if dp[mask] >> v & 1:
                for w in range(n):
                    if out[v] >> w & 1 and not mask >> w & 1:
                        dp[mask | (1 << w)] |= 1 << w
    return dp
