"""Sharp four-block constructions and extremal-structure scoring.

The generator builds, for each order n >= 7, an oriented graph on classes
A, B, C, D that has no Hamilton cycle: every cycle must visit D at least as
often as B, and B is kept one vertex larger than D.  Some non-adjacent pair
sums to exactly ceil((3n-3)/4) - 1, one below the Ore-type bound, but that
is the minimum pair sum only when a = 0.  For a >= 1 the minimum is lower
(8 against 11 at n = 16, a = 1; 12 against 17 at n = 24, a = 1).

Class sizes depend on n mod 4 (k = n // 4, free parameter a = |A|):

    n = 4k:     |B| = k+1   |C| = 2k-1-a   |D| = k
    n = 4k+1:   |B| = k+1   |C| = 2k-a     |D| = k
    n = 4k+2:   |B| = k+2   |C| = 2k-1-a   |D| = k+1
    n = 4k+3:   |B| = k+2   |C| = 2k-a     |D| = k+1

Arcs: near-regular tournaments inside A and C; complete blocks A->B, B->C,
C->D, D->A; and a bipartite tournament between B and D in which every b in B
has exactly ceil(a/2) out-neighbours in D.  Extra arcs from A to C or inside
D may be added without creating a Hamilton cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import frac_json, in_degree_masks
from .graph import OrientedGraph, Partition4, _check_order, iter_bits, mask_of
from .seeds import derive_seed, rng_for


class InfeasibleParamsError(ValueError):
    """No four-block instance exists for the requested (n, a)."""


class PartitionNotCoveringError(ValueError):
    """The partition does not cover the graph's vertex set exactly."""


def sharp_bound(n: int) -> int:
    """The degree-pair sum realized by the construction's witness pair:
    one less than the Ore-type threshold rounded up."""
    return math.ceil(Fraction(3 * n - 3, 4)) - 1


@dataclass(frozen=True)
class ExtremalParams:
    n: int
    a: int
    size_b: int
    size_c: int
    size_d: int
    bound: int
    ac_extra: int = 0  # extra arcs from A to C
    d_extra: int = 0   # extra arcs inside D
    seed: int = 0

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return (self.a, self.size_b, self.size_c, self.size_d)


def table_params(n: int, a: int, *, ac_extra: int = 0, d_extra: int = 0,
                 seed: int = 0) -> ExtremalParams:
    """Resolve class sizes for order n and |A| = a, checking feasibility:
    0 <= a <= |C|, which for n >= 7 implies ceil(a/2) <= |D|."""
    if n < 7:
        raise InfeasibleParamsError(f"need n >= 7, got {n}")
    k, residue = divmod(n, 4)
    if residue == 0:
        size_b, size_c, size_d = k + 1, 2 * k - 1 - a, k
    elif residue == 1:
        size_b, size_c, size_d = k + 1, 2 * k - a, k
    elif residue == 2:
        size_b, size_c, size_d = k + 2, 2 * k - 1 - a, k + 1
    else:
        size_b, size_c, size_d = k + 2, 2 * k - a, k + 1
    if a < 0 or size_c < 0 or a > size_c:
        raise InfeasibleParamsError(f"a = {a} outside [0, |C|] for n = {n}")
    if ac_extra < 0 or d_extra < 0:
        raise InfeasibleParamsError("extra-arc counts must be nonnegative")
    return ExtremalParams(n, a, size_b, size_c, size_d, sharp_bound(n),
                          ac_extra, d_extra, seed)


def feasible_a_values(n: int) -> list[int]:
    """All a for which table_params(n, a) is feasible."""
    out = []
    for a in range(n):
        try:
            table_params(n, a)
        except InfeasibleParamsError:
            break
        out.append(a)
    return out


def near_regular_tournament(m: int, seed: int | None = None) -> OrientedGraph:
    """Tournament on m vertices with |deg+ - deg-| <= 1 everywhere.

    Odd m: circulant with out-offsets 1..(m-1)/2, fully regular.  Even m:
    the odd circulant on m+1 vertices with the last vertex deleted.  A seed
    relabels vertices (degree multiset unchanged); None keeps identity.
    """
    _check_order(m)  # keeps every offset below in int16 range
    ids = np.arange(m, dtype=np.int16)
    # u -> v iff (v - u) mod (m | 1) lies in 1..m // 2
    adj = (ids - ids[:, None] - 1) % (m | 1) < m // 2
    if seed is not None:
        relabel = list(range(m))
        rng_for(seed, "tournament", m).shuffle(relabel)
        adj[np.ix_(relabel, relabel)] = adj.copy()
    return OrientedGraph.from_adjacency(adj)


def bipartite_tournament(b_size: int, d_size: int, out_to_d: int,
                         seed: int | None = None) -> np.ndarray:
    """Orient every pair between sides B and D so that each B-vertex has
    exactly ``out_to_d`` out-neighbours in D.

    Returns the |B| x |D| boolean block whose entry [i, j] is True for the
    arc B_i -> D_j and False for D_j -> B_i.  Offsets are circulant in the
    D indices, staggered per B index; a seed shuffles the D order first
    (per-vertex counts unchanged).
    """
    if not (0 <= out_to_d <= d_size):
        raise InfeasibleParamsError(
            f"out_to_d = {out_to_d} outside [0, |D| = {d_size}]")
    order = list(range(d_size))
    if seed is not None:
        rng_for(seed, "bipartite", b_size, d_size).shuffle(order)
    block = np.zeros((b_size, d_size), bool)
    for i in range(b_size):
        block[i, [order[(i + t) % d_size] for t in range(out_to_d)]] = True
    return block


def generate_extremal(params: ExtremalParams) -> tuple[OrientedGraph, Partition4]:
    """Assemble the four-block instance for ``params``.

    Vertices are laid out in class blocks A, B, C, D in id order.  Requested
    extra arcs (A->C, inside D) are sampled without replacement from the
    available pairs, capped at availability, and never create 2-cycles.
    """
    a, size_b, size_c, size_d = params.sizes
    n = params.n
    _check_order(n)
    b0, c0, d0 = a, a + size_b, a + size_b + size_c
    A, B, C, D = slice(0, b0), slice(b0, c0), slice(c0, d0), slice(d0, n)

    adj = np.zeros((n, n), bool)
    for block, size, label in ((A, a, "A"), (C, size_c, "C")):
        inner = near_regular_tournament(size, derive_seed(params.seed, "inner", label))
        adj[block, block] = inner.adjacency_matrix()
    adj[A, B] = adj[B, C] = adj[C, D] = adj[D, A] = True
    adj[B, D] = bipartite_tournament(size_b, size_d, (a + 1) // 2, params.seed)
    adj[D, B] = ~adj[B, D].T

    if params.ac_extra:
        pool = [(x, y) for x in range(b0) for y in range(c0, d0)]
        rng_for(params.seed, "extra-ac").shuffle(pool)
        for arc in pool[:params.ac_extra]:
            adj[arc] = True
    if params.d_extra:
        pool = [(x, y) for x in range(d0, n) for y in range(x + 1, n)]
        rng = rng_for(params.seed, "extra-d")
        rng.shuffle(pool)
        for x, y in pool[:params.d_extra]:
            adj[(x, y) if rng.random() < 0.5 else (y, x)] = True

    part = Partition4.of(range(b0), range(b0, c0), range(c0, d0), range(d0, n))
    return OrientedGraph.from_adjacency(adj), part


def find_sharp_pair(g: OrientedGraph, bound: int) -> tuple[int, int] | None:
    """First ordered non-adjacent pair (x, y) with deg+(x) + deg-(y) equal
    to ``bound`` exactly, or None."""
    masks = in_degree_masks(g)
    for x in range(g.n):
        partners = g.non_out_bits(x) & masks.get(bound - g.out_degree(x), 0)
        if partners:
            return x, next(iter_bits(partners))
    return None


# -- structure scoring ---------------------------------------------------------

# Extra additive room on the three size conditions only: the construction's
# class sizes deviate from (n/2, n/4, n/4) by up to 2 purely through integer
# rounding, which the asymptotic tolerance eta*n cannot see at desk scale.
SIZE_ROUNDING_ALLOWANCE = 2

# find_extremal_partition: seeded starts tried, and passes over all vertices
# per start.
PARTITION_RESTARTS = 6
PARTITION_MOVE_BUDGET = 400


@dataclass(frozen=True)
class ExtremalityReport:
    """Per-condition slacks for the near-extremal structure test.

    Each slack is exact; the verdict is true iff every slack is
    nonnegative.  Size conditions use tolerance c_eta*eta*n (plus a fixed
    integer-rounding allowance), edge-count conditions use c_eta*eta*n^2.
    """

    eta: Fraction
    c_eta: Fraction
    slacks: dict[str, Fraction]
    verdict: bool

    def min_slack(self) -> Fraction:
        return min(self.slacks.values())

    def to_json_dict(self) -> dict:
        return {
            "eta": frac_json(self.eta),
            "c_eta": frac_json(self.c_eta),
            "slacks": {k: frac_json(v) for k, v in sorted(self.slacks.items())},
            "verdict": self.verdict,
        }


SLACK_NAMES = ("size_AC", "size_B", "size_D", "e_AB", "e_BC", "e_CD", "e_DA",
               "e_BD", "e_DB", "e_A", "e_C", "e_AC", "e_D")


def _arc_counts(g: OrientedGraph, masks: list[int]) -> list[int]:
    """E[X][Y], flattened to index 4X + Y, for the four class bitmasks."""
    e = [0] * 16
    for x, xmask in enumerate(masks):
        for v in iter_bits(xmask):
            out = g.out_bits(v)
            for y, ymask in enumerate(masks):
                e[4 * x + y] += (out & ymask).bit_count()
    return e


def _scaled_slacks(n: int, sizes: list[int], e: list[int], p: int,
                   q: int) -> tuple[int, ...]:
    """The slacks of SLACK_NAMES times s = 8q, which makes each an integer,
    from the class sizes and the arc counts E[X][Y] of ``_arc_counts``.

    Size conditions have tolerance c_eta*eta*n + SIZE_ROUNDING_ALLOWANCE and
    edge-count conditions c_eta*eta*n^2, where p/q = c_eta*eta in lowest
    terms.
    """
    a, b, c, d = sizes
    s = 8 * q
    size_tol = 8 * p * n + SIZE_ROUNDING_ALLOWANCE * s
    edge_tol = 8 * p * n * n
    return (
        size_tol - abs(s * (a + c) - 4 * q * n),
        size_tol - abs(s * b - 2 * q * n),
        size_tol - abs(s * d - 2 * q * n),
        s * e[1] - (s * a * b - edge_tol),     # A -> B
        s * e[6] - (s * b * c - edge_tol),     # B -> C
        s * e[11] - (s * c * d - edge_tol),    # C -> D
        s * e[12] - (s * a * d - edge_tol),    # D -> A
        s * e[7] - (q * a * n - edge_tol),     # B -> D
        s * e[13] - (q * c * n - edge_tol),    # D -> B
        # within-class lower bounds use the binomial count: a full tournament
        # on X carries exactly |X|(|X|-1)/2 arcs, and the n/8-order diagonal
        # term sits below what an n^2-order tolerance can absorb at small n
        s * e[0] - (4 * q * a * (a - 1) - edge_tol),    # inside A
        s * e[10] - (4 * q * c * (c - 1) - edge_tol),   # inside C
        edge_tol - s * e[2],                   # A -> C
        edge_tol - s * e[15],                  # inside D
    )


def _partition_slacks(g: OrientedGraph, part: Partition4, eta: Fraction,
                      c_eta: Fraction) -> dict[str, Fraction]:
    classes = (part.A, part.B, part.C, part.D)
    tol = c_eta * eta
    e = _arc_counts(g, [mask_of(xs) for xs in classes])
    scaled = _scaled_slacks(g.n, [len(xs) for xs in classes], e,
                            tol.numerator, tol.denominator)
    s = 8 * tol.denominator
    return {name: Fraction(x, s) for name, x in zip(SLACK_NAMES, scaled)}


def verify_partition(g: OrientedGraph, part: Partition4, eta: Fraction,
                     c_eta: Fraction = Fraction(1)) -> ExtremalityReport:
    """Score a labeled partition against the near-extremal structure
    conditions at resolution ``eta``; verdict true iff all slacks >= 0."""
    eta, c_eta = Fraction(eta), Fraction(c_eta)
    for name, tol in (("eta", eta), ("c_eta", c_eta)):
        if tol < 0:
            raise ValueError(f"{name} must not be negative, got {tol}")
    if not part.covers(g):
        raise PartitionNotCoveringError("partition must cover V(G) exactly")
    slacks = _partition_slacks(g, part, eta, c_eta)
    return ExtremalityReport(eta, c_eta, slacks,
                             all(s >= 0 for s in slacks.values()))


def find_extremal_partition(g: OrientedGraph, eta: Fraction, seed: int = 0
                            ) -> tuple[Partition4, ExtremalityReport] | None:
    """Search for a labeling that the structure test accepts at resolution
    ``eta`` with c_eta = 1 (the tolerances read only the product
    c_eta * eta, so pass that product for another c_eta).

    Heuristic: candidate starts from degree-imbalance ordering (B-like
    vertices send more than they receive, D-like the reverse) plus seeded
    perturbations, refined by single-vertex moves that maximize the minimum
    slack, then the slack sum (first improvement, v ascending, destination
    A, B, C, D).  Returns the best partition found with its report, or None
    for graphs too small to split.

    A move is scored without recounting: the search keeps the class sizes
    and the 4x4 matrix E[X][Y] of arcs from class X to class Y, and moving v
    from S to T shifts v's out- and in-neighbour counts per class (8
    popcounts per v) from row and column S to row and column T.  Slacks are
    compared exactly, as the integers of ``_scaled_slacks``; the positive
    scale keeps their order, so the moves accepted are the same.
    """
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError(f"eta must not be negative, got {eta}")
    n = g.n
    if n < 4:
        return None
    p, q = eta.numerator, eta.denominator

    def score(sizes: list[int], e: list[int]) -> tuple[int, int]:
        slacks = _scaled_slacks(n, sizes, e, p, q)
        return (min(slacks), sum(slacks))

    def degree_start(rng) -> tuple[set[int], ...]:
        jitter = {v: rng.random() for v in range(n)}
        order = sorted(range(n),
                       key=lambda v: (g.out_degree(v) - g.in_degree(v), jitter[v]))
        quarter = max(1, round(n / 4))
        d_side = set(order[:quarter])
        b_side = set(order[-quarter:])
        b_mask, d_mask = mask_of(b_side), mask_of(d_side)
        a_side, c_side = set(), set()
        for v in order[quarter:-quarter]:
            a_like = ((g.out_bits(v) & b_mask).bit_count()
                      + (g.in_bits(v) & d_mask).bit_count())
            c_like = ((g.in_bits(v) & b_mask).bit_count()
                      + (g.out_bits(v) & d_mask).bit_count())
            (a_side if a_like >= c_like else c_side).add(v)
        return a_side, b_side, c_side, d_side

    def local_search(classes: tuple[set[int], ...]) -> Partition4:
        masks = [mask_of(xs) for xs in classes]
        sizes = [len(xs) for xs in classes]
        e = _arc_counts(g, masks)
        current = score(sizes, e)
        for _ in range(PARTITION_MOVE_BUDGET):
            improved = False
            for v in range(n):
                src = next(k for k, m in enumerate(masks) if m >> v & 1)
                # v has no loop, so these counts stay valid as v moves
                out_v, in_v = g.out_bits(v), g.in_bits(v)
                outs = [(out_v & m).bit_count() for m in masks]
                ins = [(in_v & m).bit_count() for m in masks]
                for dst in range(4):
                    if dst == src:
                        continue
                    cand_e = e[:]
                    for k in range(4):
                        cand_e[4 * src + k] -= outs[k]
                        cand_e[4 * dst + k] += outs[k]
                        cand_e[4 * k + src] -= ins[k]
                        cand_e[4 * k + dst] += ins[k]
                    cand_sizes = sizes[:]
                    cand_sizes[src] -= 1
                    cand_sizes[dst] += 1
                    cand = score(cand_sizes, cand_e)
                    if cand > current:
                        e, sizes, current = cand_e, cand_sizes, cand
                        masks[src] &= ~(1 << v)
                        masks[dst] |= 1 << v
                        src = dst
                        improved = True
            if not improved:
                break
        return Partition4.of(*(iter_bits(m) for m in masks))

    best: tuple[Partition4, ExtremalityReport] | None = None
    for r in range(PARTITION_RESTARTS):
        rng = rng_for(seed, "partition-search", r)
        part = local_search(degree_start(rng))
        report = verify_partition(g, part, eta)
        if best is None or report.min_slack() > best[1].min_slack():
            best = (part, report)
        if best[1].verdict:
            break
    return best
