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

from .conditions import frac_json, non_arc_pairs
from .graph import OrientedGraph, Partition4, iter_bits, mask_of
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
    0 <= a <= |C| and ceil(a/2) <= |D|."""
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
    if (a + 1) // 2 > size_d:
        raise InfeasibleParamsError(f"ceil(a/2) exceeds |D| for (n, a) = ({n}, {a})")
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
    if m < 0:
        raise InfeasibleParamsError("negative tournament order")
    if m <= 1:
        return OrientedGraph.empty(m)
    base = m if m % 2 == 1 else m + 1
    arcs = []
    for u in range(base):
        for off in range(1, (base - 1) // 2 + 1):
            v = (u + off) % base
            if u < m and v < m:  # drops the phantom vertex when m is even
                arcs.append((u, v))
    if seed is None:
        return OrientedGraph(m, arcs)
    relabel = list(range(m))
    rng_for(seed, "tournament", m).shuffle(relabel)
    return OrientedGraph(m, [(relabel[u], relabel[v]) for u, v in arcs])


def bipartite_tournament(b_size: int, d_size: int, out_to_d: int,
                         seed: int | None = None
                         ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Orient every pair between sides B and D so that each B-vertex has
    exactly ``out_to_d`` out-neighbours in D.

    Returns (arcs B->D, arcs D->B) as (b index, d index) pairs.  Offsets are
    circulant in the D indices, staggered per B index; a seed shuffles the
    D order first (per-vertex counts unchanged).
    """
    if not (0 <= out_to_d <= d_size):
        raise InfeasibleParamsError(
            f"out_to_d = {out_to_d} outside [0, |D| = {d_size}]")
    order = list(range(d_size))
    if seed is not None:
        rng_for(seed, "bipartite", b_size, d_size).shuffle(order)
    b_to_d = []
    d_to_b = []
    for i in range(b_size):
        chosen = {order[(i + t) % d_size] for t in range(out_to_d)} if d_size else set()
        for j in range(d_size):
            if j in chosen:
                b_to_d.append((i, j))
            else:
                d_to_b.append((j, i))
    return b_to_d, d_to_b


def generate_extremal(params: ExtremalParams) -> tuple[OrientedGraph, Partition4]:
    """Assemble the four-block instance for ``params``.

    Vertices are laid out in class blocks A, B, C, D in id order.  Requested
    extra arcs (A->C, inside D) are sampled without replacement from the
    available pairs, capped at availability, and never create 2-cycles.
    """
    a, size_b, size_c, size_d = params.sizes
    n = params.n
    a_ids = list(range(a))
    b_ids = list(range(a, a + size_b))
    c_ids = list(range(a + size_b, a + size_b + size_c))
    d_ids = list(range(a + size_b + size_c, n))

    arcs: list[tuple[int, int]] = []
    for (ids, label) in ((a_ids, "A"), (c_ids, "C")):
        inner = near_regular_tournament(len(ids), derive_seed(params.seed, "inner", label))
        arcs.extend((ids[u], ids[v]) for u, v in inner.arcs())
    arcs.extend((x, y) for x in a_ids for y in b_ids)
    arcs.extend((x, y) for x in b_ids for y in c_ids)
    arcs.extend((x, y) for x in c_ids for y in d_ids)
    arcs.extend((x, y) for x in d_ids for y in a_ids)

    out_to_d = (a + 1) // 2
    b_to_d, d_to_b = bipartite_tournament(size_b, size_d, out_to_d, params.seed)
    arcs.extend((b_ids[i], d_ids[j]) for i, j in b_to_d)
    arcs.extend((d_ids[j], b_ids[i]) for j, i in d_to_b)

    if params.ac_extra:
        pool = [(x, y) for x in a_ids for y in c_ids]
        rng = rng_for(params.seed, "extra-ac")
        rng.shuffle(pool)
        arcs.extend(pool[:params.ac_extra])
    if params.d_extra:
        pool = [(x, y) for i, x in enumerate(d_ids) for y in d_ids[i + 1:]]
        rng = rng_for(params.seed, "extra-d")
        rng.shuffle(pool)
        for x, y in pool[:params.d_extra]:
            arcs.append((x, y) if rng.random() < 0.5 else (y, x))

    part = Partition4.of(a_ids, b_ids, c_ids, d_ids)
    return OrientedGraph(n, arcs), part


def find_sharp_pair(g: OrientedGraph, bound: int) -> tuple[int, int] | None:
    """First ordered non-adjacent pair (x, y) with deg+(x) + deg-(y) equal
    to ``bound`` exactly, or None."""
    return next(((x, y) for x, y in non_arc_pairs(g)
                 if g.out_degree(x) + g.in_degree(y) == bound), None)


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
    if not part.covers(g):
        raise PartitionNotCoveringError("partition must cover V(G) exactly")
    eta, c_eta = Fraction(eta), Fraction(c_eta)
    slacks = _partition_slacks(g, part, eta, c_eta)
    return ExtremalityReport(eta, c_eta, slacks,
                             all(s >= 0 for s in slacks.values()))


def find_extremal_partition(g: OrientedGraph, eta: Fraction,
                            c_eta: Fraction = Fraction(1), seed: int = 0
                            ) -> tuple[Partition4, ExtremalityReport] | None:
    """Search for a labeling that the structure test accepts.

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
    n = g.n
    if n < 4:
        return None
    eta, c_eta = Fraction(eta), Fraction(c_eta)
    tol = c_eta * eta
    p, q = tol.numerator, tol.denominator

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
        report = verify_partition(g, part, eta, c_eta)
        if best is None or report.min_slack() > best[1].min_slack():
            best = (part, report)
        if best[1].verdict:
            break
    return best
