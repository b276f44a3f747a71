from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    HypothesisViolatedError,
    OrientedGraph,
    SelfLoopError,
    TwoCycleError,
    check_ghouila_houri,
    check_nash_williams,
    check_ore,
    check_semidegree_consequence,
    check_sparse_set_bound,
    check_woodall,
    generate_extremal,
    near_regular_tournament,
    ore_threshold,
    random_oriented,
    table_params,
)
from oriham.seeds import derive_seed

import _oracles
from _oracles import non_arc_pairs


def cycle_graph(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


C3 = cycle_graph(3)
C5 = OrientedGraph(5, [(i, (i + d) % 5) for i in range(5) for d in (1, 2)])
T3 = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])


def test_ore_threshold_values():
    assert ore_threshold(3) == Fraction(3, 2)
    assert ore_threshold(7) == Fraction(9, 2)
    assert ore_threshold(13) == 9


def test_non_arc_pairs():
    assert sorted(non_arc_pairs(C3)) == [(0, 2), (1, 0), (2, 1)]
    assert list(non_arc_pairs(OrientedGraph(2))) == [(0, 1), (1, 0)]


def test_ore_cycle3():
    rep = check_ore(C3)
    assert rep.satisfied
    assert rep.margin == Fraction(1, 2)
    x, y = rep.witness
    assert C3.out_degree(x) + C3.in_degree(y) - ore_threshold(3) == rep.margin


def test_ore_regular_tournament5():
    rep = check_ore(C5)
    assert rep.satisfied
    assert rep.margin == 1


def test_ore_transitive3():
    rep = check_ore(T3)
    assert not rep.satisfied
    assert rep.margin == Fraction(-3, 2)
    assert rep.witness == (2, 0)


def test_ore_extremal_just_below():
    g, _ = generate_extremal(table_params(7, 0))
    rep = check_ore(g)
    assert not rep.satisfied
    assert rep.margin == Fraction(-1, 2)


def test_ore_empty_pair_graph():
    rep = check_ore(OrientedGraph(2))
    assert not rep.satisfied
    assert rep.margin == Fraction(-3, 4)


def test_ore_requires_two_vertices():
    with pytest.raises(HypothesisViolatedError):
        check_ore(OrientedGraph(1))


def test_semidegree_cycle3():
    rep = check_semidegree_consequence(C3)
    assert rep.satisfied
    assert rep.margin == Fraction(5, 8)
    v, side = rep.witness
    assert side in ("out", "in")
    deg = C3.out_degree(v) if side == "out" else C3.in_degree(v)
    assert deg - Fraction(3, 8) == rep.margin


def test_semidegree_single_arc():
    g = OrientedGraph(2, [(0, 1)])
    rep = check_semidegree_consequence(g)
    assert not rep.satisfied
    assert rep.margin == Fraction(-1, 4)


def test_semidegree_requires_vertex():
    with pytest.raises(HypothesisViolatedError):
        check_semidegree_consequence(OrientedGraph(0))


def test_ghouila_houri_cycle3():
    rep = check_ghouila_houri(C3)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.strong is True


def test_ghouila_houri_tournament5():
    rep = check_ghouila_houri(C5)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.strong is True


def test_ghouila_houri_transitive3():
    rep = check_ghouila_houri(T3)
    assert not rep.satisfied
    assert rep.margin == -3
    assert rep.witness == (2, 0)
    assert rep.strong is False


def test_woodall_cycle3():
    rep = check_woodall(C3)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.strong is True


def test_woodall_tournament5():
    rep = check_woodall(C5)
    assert not rep.satisfied
    assert rep.margin == -1


def test_nash_williams_cycle3():
    rep = check_nash_williams(C3)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.witness == (1, "out-first")


def test_nash_williams_tournament5():
    rep = check_nash_williams(C5)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.witness == (2, "out-first")


def test_nash_williams_transitive3():
    rep = check_nash_williams(T3)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.witness == (1, "out-first")
    assert rep.strong is False


def test_nash_williams_regular7():
    g = near_regular_tournament(7)
    rep = check_nash_williams(g)
    assert not rep.satisfied
    assert rep.margin == -1
    assert rep.witness == (3, "out-first")


def test_nash_williams_requires_three():
    with pytest.raises(HypothesisViolatedError):
        check_nash_williams(OrientedGraph(2))


def test_sparse_set_empty():
    rep = check_sparse_set_bound(C3, frozenset(), Fraction(0))
    assert rep.satisfied
    assert rep.margin == Fraction(3, 4)


def test_sparse_set_extremal_block():
    g, part = generate_extremal(table_params(12, 0))
    rep = check_sparse_set_bound(g, part.D, Fraction(0))
    assert rep.satisfied
    assert rep.margin == 0
    assert rep.witness == {"size": 3, "arcs_within": 0}


def test_sparse_set_rejects_dense_input():
    with pytest.raises(HypothesisViolatedError):
        check_sparse_set_bound(C3, frozenset({0, 1, 2}), Fraction(0))


def test_sparse_set_rejects_negative_sigma():
    with pytest.raises(HypothesisViolatedError, match="sigma must not be negative"):
        check_sparse_set_bound(C3, frozenset(), Fraction(-1))


def test_reports_serialize():
    d = check_ore(C3).to_json_dict()
    assert d["condition"] == "ore"
    assert d["satisfied"] is True
    assert d["margin"] == {"num": 1, "den": 2}
    assert "strongly_connected" not in d
    d = check_ghouila_houri(C3).to_json_dict()
    assert d["strongly_connected"] is True


def test_margins_are_exact_rationals():
    for rep in (check_ore(C5), check_semidegree_consequence(C5),
                check_ghouila_houri(C5), check_woodall(C5),
                check_nash_williams(C5)):
        assert isinstance(rep.margin, (int, Fraction))


arc_sets = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=25
)


def build(n, pairs):
    g = OrientedGraph(n)
    for u, v in pairs:
        try:
            g = g.add_arc(u, v)
        except (SelfLoopError, TwoCycleError):
            pass
    return g


@given(arc_sets)
def test_ore_margin_matches_oracle(pairs):
    g = build(7, pairs)
    rep = check_ore(g)
    best, witness = _oracles.ore_min_pair(g)
    assert rep.margin == Fraction(best) - ore_threshold(7)
    assert rep.satisfied == (rep.margin >= 0)
    assert rep.witness == witness
    wx, wy = rep.witness
    assert not g.has_arc(wx, wy)
    assert g.out_degree(wx) + g.in_degree(wy) == best


@given(arc_sets, st.integers(0, 6), st.integers(0, 6))
def test_violating_pairs_shrink_under_arc_addition(pairs, u, v):
    g = build(7, pairs)

    def violating(h):
        thr = ore_threshold(h.n)
        return {(x, y) for x, y in non_arc_pairs(h)
                if h.out_degree(x) + h.in_degree(y) < thr}

    before = violating(g)
    try:
        h = g.add_arc(u, v)
    except (SelfLoopError, TwoCycleError):
        return
    assert violating(h) <= before


def _independent_sets(g):
    adj = [g.out_bits(v) | g.in_bits(v) for v in range(g.n)]
    found = []
    for mask in range(1, 1 << g.n):
        ok = True
        for i in range(g.n):
            if mask >> i & 1 and adj[i] & mask:
                ok = False
                break
        if ok:
            found.append(frozenset(i for i in range(g.n) if mask >> i & 1))
    return found


def test_sparse_bound_on_sampled_instances():
    # sampled dense instances that pass the degree-sum filter; every
    # independent set then fits under the n/4 bound with sigma = 0
    kept = 0
    for i in range(90):
        n = 4 + i % 6
        s = derive_seed(0, "ore-sample", i)
        if i % 3 == 0:
            g = random_oriented(n, 0.85, s)
        elif i % 3 == 1:
            g = random_oriented(n, 1.0, s)
        else:
            g = near_regular_tournament(n, s)
        if not check_ore(g).satisfied:
            continue
        kept += 1
        assert check_semidegree_consequence(g).satisfied
        for xs in _independent_sets(g):
            assert check_sparse_set_bound(g, xs, Fraction(0)).margin >= 0
    assert kept == 31
