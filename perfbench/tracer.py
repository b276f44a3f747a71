"""In-memory span tracer that wraps oriham's public functions from outside.

Modules bind imported names at import time (``hamilton`` holds its own
reference to ``build_reservoir``, ``cli`` holds ``check_ore`` in its
``_CHECKS`` table), so every function is patched where its caller looks it
up.  ``Tracer.install`` replaces the names and ``Tracer.restore`` puts the
originals back.  Nothing under ``src/`` is edited.

Each wrapped call is one span: name, instance id, start, end and parent.
Spans are aggregated into per-name ``calls``, inclusive ``s`` and ``self_s``
(inclusive time minus wrapped children).  Hot leaf functions, called tens of
thousands of times per instance, are aggregated only; every other span is
also kept in a list that the runner writes out when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

PIPELINE = "hamilton.find_hamilton_absorption"

# function name -> pipeline stage it implements when the pipeline calls it
STAGES = {
    "absorption.build_absorbing_path": "hamilton.stage.absorbing_path",
    "absorption.build_reservoir": "hamilton.stage.reservoir",
    "hamilton.greedy_path_cover": "hamilton.stage.cover",
    "absorption.connect_through_reservoir": "hamilton.stage.stitch",
    "absorption.absorb_vertices": "hamilton.stage.absorb",
    "graph.verify_hamilton_cycle": "hamilton.stage.close",
}

HOT = {"absorption.enumerate_connectors", "absorption.count_strong_absorbers",
       "absorption.connect_through_reservoir", "graph.OrientedGraph.add_arc"}


class Span:
    __slots__ = ("name", "start", "child")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.stack: list[Span] = []
        self.instance = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def inside(self, name: str) -> bool:
        return any(span.name == name for span in self.stack)

    def enter(self, name: str) -> Span:
        span = Span(name, time.perf_counter())
        self.stack.append(span)
        return span

    def leave(self, span: Span, failed: bool = False) -> float:
        end = time.perf_counter()
        self.stack.pop()
        dur = end - span.start
        name = span.name
        self.calls[name] += 1
        self.s[name] += dur
        self.self_s[name] += dur - span.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        stage = STAGES.get(name)
        if stage is not None and parent is not None and parent.name == PIPELINE:
            self.calls[stage] += 1
            self.s[stage] += dur
            if failed:
                self.counts[stage + ".failures"] += 1
        if name not in HOT:
            self.spans.append((name, self.instance, span.start, end,
                               parent.name if parent is not None else None))
        return dur

    def wrap(self, name: str, fn, after=None):
        """A callable that records one span per call of ``fn``; ``after``
        sees (tracer, args, result, seconds) for counters measured at the boundary."""
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.leave(span, failed=True)
                raise
            dur = tracer.leave(span)
            if after is not None:
                after(tracer, args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching --------------------------------------------------------------

    def install(self, targets) -> None:
        """Patch each (owner, attribute, span name, after-hook) target.  The
        owner is a module, a class or a dict such as cli._CHECKS."""
        for owner, attr, name, after in targets:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self.wrap(name, original, after)
            else:
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(name, original, after))
            self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()


# -- counters measured at layer boundaries ------------------------------------------


def _count_tuples(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["absorption.enumerate_connectors.tuples"] += len(result)
    if tracer.inside("absorption.build_reservoir"):
        tracer.counts["absorption.reservoir.tuples"] += len(result)


def _count_reservoir(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["absorption.reservoir.kept"] += len(result.vertices)


def _count_pairs(tracer: Tracer, args, result, dur: float) -> None:
    g = args[0]
    tracer.counts["conditions.pairs_scanned"] += g.n * (g.n - 1) - g.arc_count


def _count_connect(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["hamilton.stitch.hits"] += 1


def _count_parse(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counts["fileio.parse_edge_list.bytes"] += len(args[0].encode())


def _count_dp(tracer: Tracer, args, result, dur: float) -> None:
    # the verdict is known only after the call returns
    name = "hamilton.exact_dp." + result.verdict
    tracer.calls[name] += 1
    tracer.s[name] += dur


def setup_targets(oriham) -> list[tuple]:
    """Functions that run while inputs are generated."""
    return [
        (oriham.generators, "random_min_semidegree",
         "generators.random_min_semidegree", None),
        (oriham.extremal, "generate_extremal", "extremal.generate_extremal", None),
        (oriham.fileio, "emit_edge_list", "fileio.emit_edge_list", None),
        (oriham.graph.OrientedGraph, "add_arc", "graph.OrientedGraph.add_arc", None),
    ]


def loop_targets(oriham) -> list[tuple]:
    """Functions that run inside the timed loop, patched at every place a
    caller looks them up."""
    absorption, hamilton, cli = oriham.absorption, oriham.hamilton, oriham.cli
    conditions, extremal = oriham.conditions, oriham.extremal
    targets = [
        (hamilton, "find_hamilton_absorption", PIPELINE, None),
        (hamilton, "exact_dp", "hamilton.exact_dp", _count_dp),
        (hamilton, "build_absorbing_path", "absorption.build_absorbing_path", None),
        (hamilton, "build_reservoir", "absorption.build_reservoir", _count_reservoir),
        (hamilton, "greedy_path_cover", "hamilton.greedy_path_cover", None),
        (hamilton, "connect_through_reservoir",
         "absorption.connect_through_reservoir", _count_connect),
        (hamilton, "absorb_vertices", "absorption.absorb_vertices", None),
        (hamilton, "verify_hamilton_cycle", "graph.verify_hamilton_cycle", None),
        (absorption, "select_disjoint_family", "absorption.select_disjoint_family", None),
        (absorption, "count_strong_absorbers", "absorption.count_strong_absorbers", None),
        (absorption, "enumerate_weak_absorbers",
         "absorption.enumerate_weak_absorbers", None),
        (cli, "enumerate_weak_absorbers", "absorption.enumerate_weak_absorbers", None),
        (absorption, "enumerate_connectors", "absorption.enumerate_connectors",
         _count_tuples),
        (cli, "enumerate_connectors", "absorption.enumerate_connectors", _count_tuples),
        (cli, "connectivity_profile", "absorption.connectivity_profile", None),
        (extremal, "find_extremal_partition", "extremal.find_extremal_partition", None),
        (extremal, "verify_partition", "extremal.verify_partition", None),
        (cli, "verify_partition", "extremal.verify_partition", None),
        (extremal, "find_sharp_pair", "extremal.find_sharp_pair", None),
        (conditions, "check_ore", "conditions.check_ore", _count_pairs),
        (cli, "parse_edge_list", "fileio.parse_edge_list", _count_parse),
    ]
    pair_scanning = {"ore", "woodall"}
    for key, fn in cli._CHECKS.items():
        targets.append((cli._CHECKS, key, "conditions." + fn.__name__,
                        _count_pairs if key in pair_scanning else None))
    return targets
