import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    EdgeListParseError,
    GraphError,
    OrientedGraph,
    OutOfRangeError,
    SelfLoopError,
    TwoCycleError,
    emit_edge_list,
    parse_edge_list,
    random_oriented,
)
from oriham import fileio, graph
from oriham.seeds import derive_seed


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
    g = OrientedGraph(n)
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


def test_parse_regular_file_skips_line_loop(monkeypatch):
    """A well-formed file takes the vectorised path: the line loop, which
    inserts every arc, never runs."""
    ref = random_oriented(192, 0.4, 3)
    inserts = []
    real = fileio._insert_arc

    def counted(*args):
        inserts.append(args)
        return real(*args)

    monkeypatch.setattr(fileio, "_insert_arc", counted)
    g = parse_edge_list(emit_edge_list(ref))
    assert inserts == []
    assert g == ref and g.arc_count == ref.arc_count
    assert [g.in_bits(v) for v in range(g.n)] == [ref.in_bits(v) for v in range(ref.n)]


def _outcome(parse, text):
    try:
        g = parse(text)
    except (EdgeListParseError, GraphError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, g._out, g._in, g.arc_count


# mutants every valid file keeps regular: the fast path must take each one
FAST_MUTANTS = {"itself", "00-prefix", "zfill-18", "header-only"}


def _mutants(text, rng):
    """(label, file) for the file itself and irregular or invalid variants
    of it."""
    lines = text.split("\n")[:-1]
    arcs = lines[1:]

    def with_line(i, row):
        return "\n".join(lines[:i] + [row] + lines[i + 1:]) + "\n"

    def appended(row, declared=1):
        n, m = lines[0].split()
        return "\n".join([f"{n} {int(m) + declared}", *arcs, row]) + "\n"

    def retoken(fmt):
        i = rng.randrange(len(lines))
        u, v = lines[i].split()
        return with_line(i, f"{fmt(u)} {v}" if rng.random() < 0.5 else f"{u} {fmt(v)}")

    yield "itself", text
    yield "crlf", text.replace("\n", "\r\n")
    yield "tab", text.replace(" ", "\t", 1 + rng.randrange(len(lines)))
    yield "double-space", text.replace(" ", "  ", 1 + rng.randrange(len(lines)))
    yield "no-final-lf", text[:-1]
    i = rng.randrange(len(lines) + 1)
    yield "blank-line", "\n".join(lines[:i] + [""] + lines[i:]) + "\n"
    yield "plus-sign", retoken(lambda t: "+" + t)
    yield "underscore", retoken(lambda t: t[0] + "_" + t[1:] if len(t) > 1 else "0_" + t)
    yield "arabic-indic", retoken(lambda t: "".join(
        "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"[int(d)]
        for d in t))
    yield "00-prefix", retoken(lambda t: "00" + t)
    yield "third-token", retoken(lambda t: t + " 1")
    i = rng.randrange(len(lines))
    yield "one-token", with_line(i, lines[i].split()[0])
    yield "leading-space", with_line(i, " " + lines[i])
    if arcs:
        u, v = rng.choice(arcs).split()
        yield "duplicate", appended(f"{u} {v}")
        yield "two-cycle", appended(f"{v} {u}")
        yield "self-loop", appended(f"{u} {u}")
        yield "out-of-range", appended(f"{u} {int(lines[0].split()[0])}")
        yield "tab-pair", appended(f"{u} {v}\t{v}", declared=2)
        yield "count-mismatch", "\n".join([lines[0], *arcs, f"{u} {v}"]) + "\n"
    # np.fromstring reads digit tokens of up to 18 digits; longer ones go
    # to the line loop
    yield "zfill-18", retoken(lambda t: t.zfill(18))
    yield "zfill-19", retoken(lambda t: t.zfill(19))
    yield "zfill-25", retoken(lambda t: t.zfill(25))
    yield "nines-19", retoken(lambda t: "9" * 19)
    yield "header-only", "5 0\n"


@pytest.mark.filterwarnings("error")
def test_fast_path_matches_line_loop():
    """On seeded files and their mutants the vectorised path returns the
    loop's bitsets or defers, and parse_edge_list raises every error with
    the loop's message and line number.  Warnings are errors, so a numpy
    conversion that stops at data it cannot read fails the test."""
    taken = Counter()
    files = 0
    for i in range(250):
        n = i % 13
        rng = random.Random(derive_seed(0, "parse-diff", i))
        text = emit_edge_list(random_oriented(n, rng.choice((0.2, 0.5, 0.9)), i))
        for label, mutant in _mutants(text, rng):
            files += 1
            want = _outcome(fileio._parse_lines, mutant)
            fast = fileio._parse_regular(mutant)
            if fast is not None:
                taken[label] += 1
                assert (fast.n, fast._out, fast._in, fast.arc_count) == want
            else:
                assert label not in FAST_MUTANTS, (i, label)
            assert _outcome(parse_edge_list, mutant) == want
    assert files >= 4000
    # every regular mutant of every file, and no other, takes the fast path
    assert taken == {label: 250 for label in FAST_MUTANTS}


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
