"""Degree-condition checkers for Hamiltonicity.

Each checker returns a ConditionReport whose margin is an exact rational:
nonnegative margin means the condition holds, and the recorded witness
reproduces the margin on recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .graph import OrientedGraph, iter_bits, strongly_connected


class HypothesisViolatedError(ValueError):
    """The checker's precondition on its inputs does not hold."""


def frac_json(x: Fraction) -> dict:
    """The exact JSON form of a rational that every report uses."""
    return {"num": x.numerator, "den": x.denominator}


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    satisfied: bool
    margin: Fraction
    witness: Any = None
    strong: bool | None = None  # strong-connectivity flag, where relevant

    def to_json_dict(self) -> dict:
        d: dict[str, Any] = {
            "condition": self.condition,
            "satisfied": self.satisfied,
            "margin": frac_json(self.margin),
            "witness": self.witness,
        }
        if self.strong is not None:
            d["strongly_connected"] = self.strong
        return d


def ore_threshold(n: int) -> Fraction:
    return Fraction(3 * n - 3, 4)


def in_degree_masks(g: OrientedGraph) -> dict[int, int]:
    """Bit sets of the vertices of each in-degree, keyed by in-degree in
    ascending order."""
    masks: dict[int, int] = {}
    for v in range(g.n):
        d = g.in_degree(v)
        masks[d] = masks.get(d, 0) | 1 << v
    return dict(sorted(masks.items()))


def _min_pair_sum(g: OrientedGraph) -> tuple[Fraction, tuple[int, int]]:
    """Smallest deg+(x) + deg-(y) over the non-arc pairs (x, y), with the
    first pair in (x, y) order that attains it as the witness.  For n >= 2
    one exists: of two vertices, at most one direction is an arc.

    For each x, the lowest in-degree class that meets ``non_out_bits(x)``
    gives x's smallest sum, and its lowest vertex the first partner at it.
    """
    masks = in_degree_masks(g)
    best = None
    for x in range(g.n):
        non_out, out_x = g.non_out_bits(x), g.out_degree(x)
        for d, mask in masks.items():
            if best is not None and out_x + d >= best[0]:
                break
            if non_out & mask:
                best = (out_x + d, (x, next(iter_bits(non_out & mask))))
                break
    return Fraction(best[0]), best[1]


def check_ore(g: OrientedGraph) -> ConditionReport:
    """Ore-type bound: deg+(x) + deg-(y) >= (3n-3)/4 for every ordered
    non-adjacent pair (x, y), x != y.  Requires n >= 2."""
    if g.n < 2:
        raise HypothesisViolatedError("Ore-type check requires n >= 2")
    minimum, witness = _min_pair_sum(g)
    margin = minimum - ore_threshold(g.n)
    return ConditionReport("ore", margin >= 0, margin, witness)


def check_semidegree_consequence(g: OrientedGraph) -> ConditionReport:
    """Minimum semidegree bound implied by the Ore-type condition:
    min(deg+, deg-) over all vertices is at least n/8."""
    if g.n < 1:
        raise HypothesisViolatedError("semidegree check requires n >= 1")
    worst = g.min_semidegree()
    witness = next((v, side) for v in range(g.n)
                   for side, d in zip(("out", "in"), g.degrees(v)) if d == worst)
    margin = Fraction(worst) - Fraction(g.n, 8)
    return ConditionReport("semidegree", margin >= 0, margin, witness)


def check_ghouila_houri(g: OrientedGraph) -> ConditionReport:
    """Total-degree bound: min deg+ plus min deg- at least n, on strongly
    connected inputs (connectivity reported alongside)."""
    if g.n < 1:
        raise HypothesisViolatedError("total-degree check requires n >= 1")
    min_out = min(range(g.n), key=g.out_degree)
    min_in = min(range(g.n), key=g.in_degree)
    margin = Fraction(g.out_degree(min_out) + g.in_degree(min_in) - g.n)
    return ConditionReport("ghouila-houri", margin >= 0, margin,
                           (min_out, min_in), strong=strongly_connected(g))


def check_woodall(g: OrientedGraph) -> ConditionReport:
    """Pair bound: deg+(x) + deg-(y) >= n for every ordered non-adjacent
    pair, on strongly connected inputs (connectivity reported alongside)."""
    if g.n < 2:
        raise HypothesisViolatedError("pair-bound check requires n >= 2")
    minimum, witness = _min_pair_sum(g)
    margin = minimum - g.n
    return ConditionReport("woodall", margin >= 0, margin, witness,
                           strong=strongly_connected(g))


def check_nash_williams(g: OrientedGraph) -> ConditionReport:
    """Sorted-degree-sequence bound on strongly connected inputs.

    With out-degrees d+_1 <= ... <= d+_n and in-degrees d-_1 <= ... <= d-_n,
    every i < n/2 must satisfy both
      (d+_i >= i+1  or  d-_{n-i} >= n-i)   and
      (d-_i >= i+1  or  d+_{n-i} >= n-i).
    The margin is the worst OR-clause slack; the witness names the failing
    index and clause.
    """
    if g.n < 3:
        raise HypothesisViolatedError("degree-sequence check requires n >= 3")
    n = g.n
    d_out = sorted(g.out_degree(v) for v in range(n))
    d_in = sorted(g.in_degree(v) for v in range(n))

    worst: Fraction | None = None  # n >= 3 checks i = 1, so this gets set
    witness = None
    for i in range(1, (n + 1) // 2):  # integers i with i < n/2
        first = max(d_out[i - 1] - (i + 1), d_in[n - i - 1] - (n - i))
        second = max(d_in[i - 1] - (i + 1), d_out[n - i - 1] - (n - i))
        for clause, slack in (("out-first", first), ("in-first", second)):
            if worst is None or slack < worst:
                worst, witness = Fraction(slack), (i, clause)
    return ConditionReport("nash-williams", worst >= 0, worst, witness,
                           strong=strongly_connected(g))


def check_sparse_set_bound(g: OrientedGraph, xs: frozenset[int] | set[int],
                           sigma: Fraction) -> ConditionReport:
    """Size bound |X| <= n/4 + 21*sigma*n for sets spanning at most
    sigma*n^2 arcs.  Raises HypothesisViolatedError when sigma is negative
    or e(X) exceeds sigma*n^2."""
    sigma = Fraction(sigma)
    if sigma < 0:
        raise HypothesisViolatedError(f"sigma must not be negative, got {sigma}")
    n = g.n
    e_x = g.count_arcs_within(xs)
    if e_x > sigma * n * n:
        raise HypothesisViolatedError(
            f"e(X) = {e_x} exceeds sigma*n^2 = {sigma * n * n}")
    margin = Fraction(n, 4) + 21 * sigma * n - len(xs)
    return ConditionReport("sparse-set", margin >= 0, margin,
                           {"size": len(xs), "arcs_within": e_x})
