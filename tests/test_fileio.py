import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    EdgeListParseError,
    OrientedGraph,
    OutOfRangeError,
    SelfLoopError,
    TwoCycleError,
    emit_edge_list,
    parse_edge_list,
    random_oriented,
)
from oriham import graph


def test_parse_cycle():
    g = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
    assert g.n == 3
    assert g.arcs() == [(0, 1), (1, 2), (2, 0)]


def test_parse_empty_graph():
    g = parse_edge_list("4 0\n")
    assert g.n == 4
    assert g.arc_count == 0


def test_emit_format():
    g = OrientedGraph(3, [(2, 0), (0, 1), (1, 2)])
    assert emit_edge_list(g) == "3 3\n0 1\n1 2\n2 0\n"


def test_emit_parse_round_trip():
    g = OrientedGraph(5, [(0, 2), (4, 1), (3, 0)])
    assert parse_edge_list(emit_edge_list(g)) == g


@given(st.integers(1, 8), st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))))
def test_round_trip_random(n, pairs):
    g = OrientedGraph.empty(n)
    for u, v in pairs:
        if u < n and v < n:
            try:
                g = g.add_arc(u, v)
            except (SelfLoopError, TwoCycleError):
                pass
    assert parse_edge_list(emit_edge_list(g)) == g


def test_parse_inserts_each_arc_once(monkeypatch):
    """The parser wraps the bitsets it validated line by line instead of
    handing the arc list to OrientedGraph, which would insert it again."""
    ref = random_oriented(30, 0.5, 7)
    inserts = []
    real = graph._insert_arc

    def counted(*args):
        inserts.append(args)
        return real(*args)

    monkeypatch.setattr(graph, "_insert_arc", counted)
    g = parse_edge_list(emit_edge_list(ref))
    assert inserts == []
    assert g == ref and g.arc_count == ref.arc_count
    assert [g.in_bits(v) for v in range(g.n)] == [ref.in_bits(v) for v in range(ref.n)]
    with pytest.raises(OutOfRangeError):
        parse_edge_list(f"{graph.MAX_VERTICES + 1} 0\n")


def err(text):
    with pytest.raises(EdgeListParseError) as ei:
        parse_edge_list(text)
    return ei.value


def test_missing_header():
    assert err("").line == 1


def test_malformed_header():
    assert err("3\n").line == 1
    assert err("x 3\n").line == 1
    assert err("-2 0\n").line == 1


def test_bad_arc_line():
    e = err("3 1\n0\n")
    assert e.line == 2
    assert err("3 1\n0 x\n").line == 2


def test_out_of_range_arc():
    assert err("3 1\n0 5\n").line == 2


def test_self_loop_line():
    assert err("3 1\n1 1\n").line == 2


def test_two_cycle_line():
    e = err("3 2\n0 1\n1 0\n")
    assert e.line == 3
    assert "line 3" in str(e)


def test_duplicate_arc_line():
    assert err("3 2\n0 1\n0 1\n").line == 3


def test_arc_count_mismatch():
    assert isinstance(err("3 2\n0 1\n"), EdgeListParseError)
    assert isinstance(err("3 1\n0 1\n1 2\n"), EdgeListParseError)
