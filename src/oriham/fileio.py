"""Plain-text edge-list format.

First line: ``<n> <arc count>``.  Each following line: ``<u> <v>`` for one
arc, 0-based ids, LF terminated.  Parsing rejects self-loops, 2-cycles,
out-of-range ids, duplicates and count mismatches with 1-based line
numbers; emitting writes arcs in sorted order so parse/emit round-trips
normalize.
"""

from __future__ import annotations

from .graph import GraphError, OrientedGraph, _insert_arc


class EdgeListParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_edge_list(text: str) -> OrientedGraph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EdgeListParseError(1, "missing header line")
    header = lines[0].split()
    if len(header) != 2:
        raise EdgeListParseError(1, f"expected '<n> <arc count>', got {lines[0]!r}")
    try:
        n, declared = int(header[0]), int(header[1])
    except ValueError:
        raise EdgeListParseError(1, f"non-integer header {lines[0]!r}") from None
    if n < 0 or declared < 0:
        raise EdgeListParseError(1, "negative header value")

    out = [0] * n
    inn = [0] * n
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise EdgeListParseError(lineno, f"expected '<u> <v>', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(lineno, f"non-integer arc {raw!r}") from None
        try:
            added = _insert_arc(out, inn, n, u, v)
        except GraphError as exc:
            raise EdgeListParseError(lineno, str(exc)) from None
        if added == 0:
            raise EdgeListParseError(lineno, f"duplicate arc ({u}, {v})")
    count = len(lines) - 1
    if count != declared:
        raise EdgeListParseError(
            len(lines), f"header declares {declared} arcs, file has {count}")
    return OrientedGraph._from_bits(n, out, inn, count)


def emit_edge_list(g: OrientedGraph) -> str:
    rows = [f"{g.n} {g.arc_count}"]
    rows.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(rows) + "\n"
