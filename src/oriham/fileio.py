"""Plain-text edge-list format.

First line: ``<n> <arc count>``.  Each following line: ``<u> <v>`` for one
arc, 0-based ids, LF terminated.  Parsing rejects self-loops, 2-cycles,
out-of-range ids, duplicates and count mismatches with 1-based line
numbers; emitting writes arcs in sorted order so parse/emit round-trips
normalize.

A regular file (every line exactly ``token SP token LF``, each token at
most 18 ASCII digits, the form ``emit_edge_list`` writes) holding a valid
graph is parsed with numpy in one pass, to the graph the line loop would
build.  Every other file goes through the line-by-line loop, so each error
keeps its message and line number whichever path was tried first.
Parsing the same text as the last successful parse returns that graph,
which is immutable, without parsing again.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .graph import (MAX_VERTICES, GraphError, OrientedGraph, _check_order,
                    _insert_arc)


class EdgeListParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_last_parse = (b"", None)  # sha256 digest of the last valid text, its graph


def parse_edge_list(text: str) -> OrientedGraph:
    global _last_parse
    # "surrogatepass": a lone surrogate still reaches the line loop's error
    key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
    last_key, g = _last_parse
    if key != last_key:
        g = _parse_regular(text) or _parse_lines(text)
        _last_parse = (key, g)
    return g


# byte classes of a regular file: 1 is a digit, 2 the space inside a line,
# 3 a line end; 0 (any other byte) sends the file to the line loop
_BYTE_CLASS = np.zeros(256, np.uint8)
_BYTE_CLASS[list(b"0123456789")] = 1
_BYTE_CLASS[ord(" ")] = 2
_BYTE_CLASS[ord("\n")] = 3

# the longest token np.fromstring reads exactly: every 18-digit number
# fits in int64, and fromstring clamps a longer one that does not
_MAX_DIGITS = 18


def _parse_regular(text: str) -> OrientedGraph | None:
    """The graph of a regular, valid file, or None to defer to the loop.

    Tokens are runs of ASCII digits no longer than ``_MAX_DIGITS``,
    separated by alternating single spaces and LFs, and ``np.fromstring``
    converts them in C, reading each token as the loop's ``int()`` does.
    A file with any other token (a sign, an underscore, a longer run of
    digits) goes to the line loop.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii")
    cls = _BYTE_CLASS[np.frombuffer(data, np.uint8)]
    if cls.size == 0 or cls[-1] != 3 or not cls.all():
        return None
    cuts = np.flatnonzero(cls >= 2)
    seps = cls[cuts]
    gaps = np.diff(cuts)
    if (cuts[0] == 0 or (gaps == 1).any()
            or (seps[0::2] != 2).any() or (seps[1::2] != 3).any()
            or max(cuts[0], gaps.max() - 1) > _MAX_DIGITS):
        return None
    vals = np.fromstring(data, np.int64, sep=" ")
    if vals.size != cuts.size:
        return None
    n, declared = int(vals[0]), int(vals[1])
    ids = vals[2:]
    if n > MAX_VERTICES or 2 * declared != ids.size or (ids >= n).any():
        return None
    adj = np.zeros((n, n), bool)
    adj[ids[0::2], ids[1::2]] = True
    try:
        g = OrientedGraph.from_adjacency(adj)
    except GraphError:  # a self-loop or a 2-cycle
        return None
    return g if g.arc_count == declared else None  # fewer means a duplicate


def _parse_lines(text: str) -> OrientedGraph:
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
    _check_order(n)  # before the adjacency lists are allocated

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
