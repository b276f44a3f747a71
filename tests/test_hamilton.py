import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    MAX_VERTICES,
    CapacityExhaustedError,
    CoverResult,
    DiCycle,
    HamiltonResult,
    OrientedGraph,
    SelfLoopError,
    StageRecord,
    TooLargeError,
    TwoCycleError,
    exact_brute,
    exact_dp,
    feasible_a_values,
    find_hamilton_absorption,
    generate_extremal,
    greedy_path_cover,
    hall_witness,
    random_min_semidegree,
    random_oriented,
    table_params,
    verify_hamilton_cycle,
)
from oriham import absorption, hamilton
from oriham.seeds import derive_seed

import _oracles


def cycle_graph(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


C3 = cycle_graph(3)
T3 = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])


# -- exact solvers ---------------------------------------------------------------


def test_brute_cycle3():
    res = exact_brute(C3)
    assert res.found
    assert res.verdict == "cycle_found"
    assert isinstance(res.certificate, DiCycle)
    assert res.certificate.vertices == (0, 1, 2)
    assert verify_hamilton_cycle(C3, res.certificate.vertices)


def test_brute_negative_cases():
    assert exact_brute(T3).verdict == "none_exists"
    assert exact_brute(OrientedGraph(0)).verdict == "none_exists"
    assert exact_brute(OrientedGraph(1)).verdict == "none_exists"
    g, _ = generate_extremal(table_params(7, 0))
    assert exact_brute(g).verdict == "none_exists"


def test_brute_size_cap():
    with pytest.raises(TooLargeError, match="brute-force cap 10"):
        exact_brute(OrientedGraph(hamilton.BRUTE_MAX_N + 1))
    assert exact_brute(OrientedGraph(hamilton.BRUTE_MAX_N)).verdict == "none_exists"


def test_dp_cycle16():
    g = cycle_graph(16)
    res = exact_dp(g)
    assert res.found
    assert verify_hamilton_cycle(g, res.certificate.vertices)


def test_dp_negative_cases():
    assert exact_dp(OrientedGraph(0)).verdict == "none_exists"
    assert exact_dp(OrientedGraph(1)).verdict == "none_exists"
    g, _ = generate_extremal(table_params(16, 1))
    assert exact_dp(g).verdict == "none_exists"


def test_dp_size_cap():
    with pytest.raises(TooLargeError, match="subset-DP cap 24"):
        exact_dp(OrientedGraph(hamilton.DP_MAX_N + 1))


def test_dp_endpoint_width_cap(monkeypatch):
    # Endpoint sets hold one bit per vertex, so the cap must stay within
    # their width, and a graph too wide for them is refused before the
    # table is allocated.
    width = hamilton._ENDS().nbytes * 8
    assert hamilton.DP_MAX_N <= width

    def allocate(g):
        raise AssertionError("table allocated before the size check")

    monkeypatch.setattr(hamilton, "_endpoint_table", allocate)
    with pytest.raises(TooLargeError, match="subset-DP cap"):
        exact_dp(OrientedGraph(width + 1))


def _drop_arcs(g, keep):
    return OrientedGraph(g.n, [(u, v) for u, v in g.arcs() if keep(u, v)])


@pytest.mark.parametrize("density", (0.2, 0.5, 0.8))
def test_endpoint_table_matches_oracle(density):
    for n in range(1, 13):
        g = random_oriented(n, density, derive_seed(0, "endpoint-table", n))
        source, sink = n // 2, n - 1
        for h in (g,
                  _drop_arcs(g, lambda u, v: v != source and u != sink),
                  _drop_arcs(g, lambda u, v: u != 0)):
            oracle = _oracles.endpoint_table_oracle(h)
            assert not any(oracle[0::2])
            assert hamilton._endpoint_table(h).tolist() == oracle[1::2], (n, h.arcs())


OPTIMIZED_RUN = """
import sys
import numpy as np
from oriham import CertificateError, OrientedGraph, exact_brute, exact_dp, hamilton

def check(name, solve, g):
    try:
        solve(g)
    except CertificateError:
        print(name, "raised")
    else:
        print(name, "returned")

if not sys.flags.optimize:
    sys.exit("expected python -O")
c3 = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
real_table = hamilton._endpoint_table
# every end reachable through every set: the walk back ends at 3, not at 0
hamilton._endpoint_table = lambda g: np.full(1 << (g.n - 1), (1 << g.n) - 1, np.uint32)
check("dp walk-back", exact_dp, OrientedGraph(4, [(0, 1), (1, 3), (2, 3), (3, 0)]))
hamilton._endpoint_table = real_table
hamilton.verify_hamilton_cycle = lambda g, cycle: False
check("dp verify", exact_dp, c3)
check("brute verify", exact_brute, c3)
"""


def test_certificate_checks_survive_optimize():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hamilton.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RUN], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:3] == [
        "dp walk-back raised", "dp verify raised", "brute verify raised"]


OPTIMIZED_PIPELINE_RUN = """
import random
import sys
from oriham import (AbsorbingPath, CertificateError, CoverResult, DiPath,
                    InvalidPathError, OrientedGraph, StrongGadget,
                    absorb_vertices, hamilton)
from oriham.absorption import Reservoir

def check(name, run, error):
    try:
        run()
    except error:
        print(name, "raised")
    else:
        print(name, "returned")

if not sys.flags.optimize:
    sys.exit("expected python -O")
c3 = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
# the gadget's w is the path's last vertex, so the splice moves the end
check("absorb endpoints", lambda: absorb_vertices(
    c3, AbsorbingPath((0, 1), strong=(StrongGadget(1, 0),)), [2]), InvalidPathError)
# the link 1 -> 2 runs through 3, which the next unit visits again
hamilton.connect_through_reservoir = lambda g, res, x, y, prefer_reservoir=False: (
    DiPath((x, 3, y) if x == 1 else (x, y)))
check("stitch repeat", lambda: hamilton._attempt_stitch(
    c4, AbsorbingPath((0, 1)), [DiPath((2, 3))], Reservoir(frozenset()),
    random.Random(0)),
    CertificateError)
# a stitched sequence that does not open with the absorbing path
hamilton.build_absorbing_path = lambda *args, **kwargs: AbsorbingPath((0, 1))
hamilton.build_reservoir = lambda *args, **kwargs: Reservoir(frozenset())
hamilton.greedy_path_cover = lambda *args: CoverResult(
    (DiPath((2,)),), frozenset({3}), False)
hamilton._attempt_stitch = lambda *args, **kwargs: ([1, 0, 2], frozenset())
hamilton.absorb_vertices = lambda g, p_abs, leftovers: p_abs
check("stitch prefix", lambda: hamilton.find_hamilton_absorption(c4), CertificateError)
"""


def test_pipeline_checks_survive_optimize():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hamilton.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_PIPELINE_RUN],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:3] == [
        "absorb endpoints raised", "stitch repeat raised", "stitch prefix raised"]


arc_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30
)


@given(arc_lists)
def test_brute_agrees_with_dp(pairs):
    g = OrientedGraph(8)
    for u, v in pairs:
        try:
            g = g.add_arc(u, v)
        except (SelfLoopError, TwoCycleError):
            pass
    rb = exact_brute(g)
    rd = exact_dp(g)
    assert rb.verdict == rd.verdict
    if rb.found:
        assert verify_hamilton_cycle(g, rb.certificate.vertices)
        assert verify_hamilton_cycle(g, rd.certificate.vertices)


def test_result_serialization():
    d = exact_brute(C3).to_json_dict()
    assert d == {"verdict": "cycle_found", "certificate": [0, 1, 2], "trace": []}
    d = exact_brute(T3).to_json_dict()
    assert d["verdict"] == "none_exists"
    assert d["certificate"] is None


# -- cycle factor ----------------------------------------------------------------


def _out_neighbourhood(g, vertices):
    return {w for v in vertices for w in range(g.n) if g.has_arc(v, w)}


def _check_hall(g, witness):
    hall, reach = witness
    assert hall == sorted(set(hall))
    assert reach == len(_out_neighbourhood(g, hall)) < len(hall)


@pytest.mark.parametrize("n", range(2, 13))
def test_hall_witness_agrees_with_exact_solvers(n):
    # a Hall set means no Hamilton cycle; none means a cycle factor, which
    # the pipeline then always tries
    for p in (0.2, 0.5, 0.8):
        for seed in range(8):
            g = random_oriented(n, p, seed)
            witness = hall_witness(g)
            assert (witness is not None) == _oracles.hall_violator_oracle(g)
            exact = exact_dp(g).verdict
            if witness is not None:
                _check_hall(g, witness)
                assert exact == "none_exists"
            if exact == "cycle_found":
                res = find_hamilton_absorption(g, seed=seed)
                assert res.trace[0].stage == "absorbing_path"


@pytest.mark.parametrize("n", range(7, 18))
def test_hall_witness_of_four_block_graphs(n):
    for a in feasible_a_values(n):
        g, part = generate_extremal(table_params(n, a, seed=n))
        _check_hall(g, hall_witness(g))
        assert _out_neighbourhood(g, part.B | part.C) == part.C | part.D
        assert exact_dp(g).verdict == "none_exists"


def test_hall_witness_on_small_graphs():
    assert hall_witness(OrientedGraph(0)) is None
    assert hall_witness(OrientedGraph(1)) == ([0], 0)
    assert hall_witness(cycle_graph(5)) is None
    # 0 -> 1 -> 2 -> 0 plus 3 -> 0: vertex 3 and the triangle vertex 2 both
    # need head 0
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 0), (3, 0)])
    assert hall_witness(g) == ([2, 3], 1)


@pytest.mark.parametrize(("g", "calls"), [
    (random_min_semidegree(12, 4, 0), 0),  # 8 * 4 = 3 * 12 - 4: skipped
    (random_min_semidegree(48, 18, 1), 0),
    (random_min_semidegree(12, 3, 0), 1),
    (generate_extremal(table_params(16, 1))[0], 1),
], ids=["n12-boundary", "n48", "n12-below", "sharp16"])
def test_pipeline_runs_the_cycle_factor_test_below_the_gate(monkeypatch, g, calls):
    seen = []
    real = hamilton.hall_witness

    def counting(graph):
        seen.append(graph)
        return real(graph)

    monkeypatch.setattr(hamilton, "hall_witness", counting)
    find_hamilton_absorption(g, seed=0)
    assert len(seen) == calls
    assert (8 * g.min_semidegree() < 3 * g.n - 4) == bool(calls)


@pytest.mark.parametrize("a", [0, 1, 2])
def test_pipeline_stops_on_sharp_graphs_at_scale(a):
    g, part = generate_extremal(table_params(1024, a, seed=0))
    start = time.perf_counter()
    res = find_hamilton_absorption(g)
    assert time.perf_counter() - start < 2.0
    assert res.verdict == "not_found" and res.first_failure() == "cover"
    detail = res.trace[-1].detail
    assert detail["hall_set"] == sorted(part.B | part.C)
    assert detail["out_neighbourhood"] == len(part.C | part.D) == len(part.B | part.C) - 1


OPTIMIZED_HALL_RUN = """
import sys
from oriham import CertificateError, generate_extremal, hamilton, table_params

if not sys.flags.optimize:
    sys.exit("expected python -O")
g, _ = generate_extremal(table_params(12, 0))
# a search that claims to have visited no head: S is one tail, which has
# out-neighbours
hamilton.augment = lambda root, prefs, owner: 0
for run in (lambda: hamilton.hall_witness(g),
            lambda: hamilton.find_hamilton_absorption(g)):
    try:
        run()
    except CertificateError:
        print("raised")
    else:
        print("returned")
"""


def test_hall_check_survives_optimize():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hamilton.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_HALL_RUN], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["raised", "raised"]


# -- path cover ------------------------------------------------------------------


def _cover(g, avoid, max_paths, seed=0):
    """``greedy_path_cover`` with MAX_PATHS set to ``max_paths``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamilton, "MAX_PATHS", max_paths)
        return greedy_path_cover(g, avoid, seed)


def test_cover_single_cycle():
    cov = _cover(cycle_graph(9), (), 5)
    assert len(cov.paths) == 1
    assert cov.paths[0].vertices == (8, 0, 1, 2, 3, 4, 5, 6, 7)
    assert cov.uncovered == frozenset()
    assert not cov.truncated


def test_cover_no_arcs_truncates():
    cov = _cover(OrientedGraph(5), (), 3)
    assert len(cov.paths) == 3
    assert all(len(p.vertices) == 1 for p in cov.paths)
    assert cov.truncated
    assert len(cov.uncovered) == 2
    assert cov.uncovered == frozenset(range(5)) - {p.vertices[0] for p in cov.paths}


def test_cover_respects_avoid():
    cov = _cover(cycle_graph(9), (4,), 5)
    assert len(cov.paths) == 1
    assert sorted(cov.paths[0].vertices) == [0, 1, 2, 3, 5, 6, 7, 8]
    assert cov.uncovered == frozenset()


def test_cover_deterministic():
    g = random_oriented(20, 0.3, 5)
    a = _cover(g, (), 6, seed=9)
    b = _cover(g, (), 6, seed=9)
    assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]


@given(st.integers(0, 25))
def test_cover_paths_disjoint_and_valid(seed):
    g = random_oriented(14, 0.35, seed)
    cov = _cover(g, (0, 1), 6, seed=seed)
    seen = set()
    for p in cov.paths:
        p.validate(g)
        assert seen.isdisjoint(p.vertices)
        seen.update(p.vertices)
    assert seen.isdisjoint({0, 1})
    assert seen | cov.uncovered == set(range(2, 14))


def test_cover_dense_benchmark():
    # 20 dense instances: high coverage with a short path list, no retries
    fails = 0
    for s in range(20):
        g = random_min_semidegree(60, 23, s)
        cov = greedy_path_cover(g, (), seed=s)
        if len(cov.uncovered) > 6 or len(cov.paths) > 12:  # below 90% covered
            fails += 1
    assert fails == 0


def _cover_cases():
    for s in range(3):
        yield random_min_semidegree(192, 72, s)
    for n in range(41):
        for i, density in enumerate((0.1, 0.3, 0.5, 0.7, 0.9)):
            yield random_oriented(n, density, 100 * n + i)
    yield OrientedGraph(7)


def test_path_cover_matches_oracle():
    truncated = 0
    for case, g in enumerate(_cover_cases()):
        for avoid in ((), frozenset(range(1, g.n, 3))):
            for max_paths in (1, 3, 12):
                want = _oracles.path_cover_oracle(g, avoid, max_paths, seed=case)
                got = _cover(g, avoid, max_paths, seed=case)
                assert got == want, (case, avoid, max_paths)
                truncated += want.truncated
    assert truncated > 0


def test_cover_makes_no_arc_queries(monkeypatch):
    # candidates come from the adjacency bitsets, never pair by pair
    g = random_min_semidegree(192, 72, 1)
    calls = []
    real = OrientedGraph.has_arc

    def counting(self, u, v):
        calls.append((u, v))
        return real(self, u, v)

    monkeypatch.setattr(OrientedGraph, "has_arc", counting)
    cov = greedy_path_cover(g, (), seed=1)
    assert sum(len(p.vertices) for p in cov.paths) + len(cov.uncovered) == 192
    assert calls == []


# -- pipeline --------------------------------------------------------------------


def test_pipeline_defaults():
    assert hamilton.MAX_PATHS == 12
    assert hamilton.STITCH_ATTEMPTS == 12


def test_pipeline_finds_plain_cycle():
    g = cycle_graph(12)
    res = find_hamilton_absorption(g)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate.vertices)
    assert [s.stage for s in res.trace] == [
        "absorbing_path", "reservoir", "cover", "stitch", "absorb", "close"]
    assert all(s.ok for s in res.trace)
    assert res.first_failure() is None


def test_pipeline_extremal_stops_at_hall_set():
    # S = B + C has only the |S| - 1 out-neighbours C + D: no cycle factor
    g, part = generate_extremal(table_params(12, 0))
    res = find_hamilton_absorption(g)
    assert res.verdict == "not_found"
    assert res.certificate is None
    hall = sorted(part.B | part.C)
    assert _out_neighbourhood(g, hall) == part.C | part.D
    assert res.trace == (StageRecord("cover", False, {
        "reason": "no cycle factor", "hall_set": hall,
        "out_neighbourhood": len(hall) - 1}),)
    assert res.first_failure() == "cover"
    # the claim is only "not found"; the exact solver confirms none exists
    assert exact_dp(g).verdict == "none_exists"


def test_pipeline_fails_at_stitch_on_a_graph_with_a_cycle_factor():
    g = random_oriented(6, 0.7, 1)
    assert hall_witness(g) is None
    res = find_hamilton_absorption(g)
    assert res.verdict == "not_found"
    assert res.certificate is None
    failing = [s for s in res.trace if not s.ok]
    assert len(failing) == 1
    assert failing[0] is res.trace[-1]
    assert res.first_failure() == "stitch"
    assert exact_dp(g).verdict == "none_exists"


def test_pipeline_never_claims_nonexistence():
    g = OrientedGraph(8)
    res = find_hamilton_absorption(g)
    assert res.verdict == "not_found"


def _dropped_path(monkeypatch, g):
    """The families build_absorbing_path selects on ``g``, and the path."""
    selected = []
    real = absorption.select_disjoint_family

    def recording(lists, limit):
        family = real(lists, limit)
        selected.append(family)
        return family

    monkeypatch.setattr(absorption, "select_disjoint_family", recording)
    p_abs = absorption.build_absorbing_path(g, seed=derive_seed(0, "absorb"))
    monkeypatch.undo()
    return selected, p_abs


def test_pipeline_records_an_absorbing_path_whose_gadgets_all_dropped(monkeypatch):
    # random_oriented(8, 0.7, 36) selects two weak gadgets and no strong
    # one, and neither stitches: the path is empty and both are counted
    g = random_oriented(8, 0.7, 36)
    (weak, strong), p_abs = _dropped_path(monkeypatch, g)
    assert (len(weak), len(strong)) == (2, 0)
    assert (p_abs.path, p_abs.dropped) == ((), 2)
    # vertex 4 has no out-neighbour, so the pipeline stops before building it
    res = find_hamilton_absorption(g, seed=0)
    assert res.trace == (StageRecord("cover", False, {
        "reason": "no cycle factor", "hall_set": [4], "out_neighbourhood": 0}),)
    assert g.out_degree(4) == 0


def test_pipeline_runs_with_all_gadgets_dropped(monkeypatch):
    # random_oriented(11, 0.5, 49) has a cycle factor; it selects two weak
    # gadgets and no strong one, and neither stitches
    g = random_oriented(11, 0.5, 49)
    (weak, strong), p_abs = _dropped_path(monkeypatch, g)
    assert (len(weak), len(strong)) == (2, 0)
    assert (p_abs.path, p_abs.dropped) == ((), 2)
    res = find_hamilton_absorption(g, seed=0)
    assert res.trace[0] == StageRecord("absorbing_path", True, {
        "vertices": 0, "strong_gadgets": 0, "weak_gadgets": 0,
        "classification_gaps": 0, "dropped_gadgets": 2})
    assert res.first_failure() == "stitch"


def test_pipeline_lets_a_gadget_layout_bug_escape(monkeypatch):
    # validate's StitchFailureError means the registry and the path
    # disagree, which no input should cause: it is raised, not recorded
    def broken(self, g):
        raise absorption.StitchFailureError("gadget misplaced")

    monkeypatch.setattr(absorption.AbsorbingPath, "validate", broken)
    with pytest.raises(absorption.StitchFailureError, match="gadget misplaced"):
        find_hamilton_absorption(random_min_semidegree(24, 9, 1), seed=0)


def test_pipeline_fails_fast_on_empty_graph_at_max_order():
    # vertex 0 alone has no out-neighbour, so there is no cycle factor
    start = time.perf_counter()
    res = find_hamilton_absorption(OrientedGraph(MAX_VERTICES))
    assert time.perf_counter() - start < 5.0
    assert res.verdict == "not_found"
    assert res.trace == (StageRecord("cover", False, {
        "reason": "no cycle factor", "hall_set": [0], "out_neighbourhood": 0}),)


def test_reservoir_and_cover_fast_on_empty_graph_at_max_order(monkeypatch):
    # the reservoir skips pairs without a connector, and the cover only
    # tries to insert vertices with arcs from and to the path
    calls = []
    real = absorption._reservoir_options

    def counting(*args, **kwargs):
        calls.append(args[1:4])
        return real(*args, **kwargs)

    monkeypatch.setattr(absorption, "_reservoir_options", counting)
    g = OrientedGraph(MAX_VERTICES)
    start = time.perf_counter()
    res = absorption.build_reservoir(g, ())
    cover = greedy_path_cover(g, ())
    assert time.perf_counter() - start < 5.0
    assert res.vertices == frozenset() and calls == []
    assert cover.truncated and len(cover.uncovered) == MAX_VERTICES - hamilton.MAX_PATHS


def test_pipeline_consistent_with_dp():
    found = 0
    for s in range(12):
        n = 12 + s % 9
        bound = -(-3 * n // 8)
        g = random_min_semidegree(n, bound, 200 + s)
        res = find_hamilton_absorption(g, seed=s)
        assert res.verdict in ("cycle_found", "not_found")
        if res.found:
            found += 1
            assert verify_hamilton_cycle(g, res.certificate.vertices)
            assert exact_dp(g).verdict == "cycle_found"
        else:
            assert len([s_ for s_ in res.trace if not s_.ok]) == 1
    assert found >= 8


@pytest.mark.parametrize("n", [512, 1024])
def test_pipeline_finds_cycle_at_scale(n):
    # the pipeline takes any order the graph layer allows (MAX_VERTICES)
    g = random_min_semidegree(n, 3 * n // 8, 0, flips=n * n)
    res = find_hamilton_absorption(g)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate.vertices)


def test_pipeline_finds_cycle_at_n512_seed3():
    # the strong family used to fall short here, and absorb found no
    # free gadget for vertex 29
    g = random_min_semidegree(512, 192, 3)
    res = find_hamilton_absorption(g, seed=0)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate.vertices)


def test_pipeline_absorbs_what_the_matching_places():
    # a leftover cap of a quarter of the absorbing path once refused the
    # 3 leftovers here (limit 2), which absorb_vertices places
    g = random_min_semidegree(25, 10, 301)
    res = find_hamilton_absorption(g, seed=0)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate)


def _counted(monkeypatch, name, fail_on=lambda k: False):
    # wrap hamilton.<name>, recording each call; call k (from 1) raises
    # CapacityExhaustedError where fail_on(k) holds
    real = getattr(hamilton, name)
    calls = []

    def wrapper(*args):
        calls.append(args)
        if fail_on(len(calls)):
            raise CapacityExhaustedError([-1])
        return real(*args)

    monkeypatch.setattr(hamilton, name, wrapper)
    return calls


DENSE_96 = random_min_semidegree(96, 36, 1)


def test_pipeline_first_absorbing_attempt_wins(monkeypatch):
    covers = _counted(monkeypatch, "greedy_path_cover")
    res = find_hamilton_absorption(DENSE_96, seed=1)
    assert res.verdict == "cycle_found"
    assert len(covers) == 1


def test_pipeline_retries_after_failed_absorb(monkeypatch):
    covers = _counted(monkeypatch, "greedy_path_cover")
    _counted(monkeypatch, "absorb_vertices", fail_on=lambda k: k == 1)
    res = find_hamilton_absorption(DENSE_96, seed=1)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(DENSE_96, res.certificate)
    assert len(covers) == 2
    assert [s.stage for s in res.trace] == [
        "absorbing_path", "reservoir", "cover", "stitch", "absorb", "close"]


def test_pipeline_absorb_failure_is_last(monkeypatch):
    absorbs = _counted(monkeypatch, "absorb_vertices", fail_on=lambda k: True)
    res = find_hamilton_absorption(DENSE_96, seed=1)
    assert res.verdict == "not_found"
    assert len(absorbs) == hamilton.STITCH_ATTEMPTS
    assert [(s.stage, s.ok) for s in res.trace] == [
        ("absorbing_path", True), ("reservoir", True), ("cover", True),
        ("stitch", True), ("absorb", False)]
    assert set(res.trace[-1].detail) == {"leftovers", "reason"}


# sha256 of json.dumps(result.to_json_dict(), sort_keys=True) for
# find_hamilton_absorption(random_min_semidegree(n, ceil(3n/8), s), seed=s):
# any drift in the pipeline's seeded draws changes these
PINNED_SOLVES = {
    (48, 1): "9437ab53ea7e418e0446642e9a7497d69706835932c9abf7b1776f0d7ad80a26",
    (48, 2): "d806c995d6708f7a4c0e2056321c3bcfb46f93d239539912f831b64b2ec774b9",
    (64, 1): "1a8d84700a9d5c3141be32f4e08c74dddbf8f776993659f15ba2f6593092f0c3",
    (64, 2): "eb30bfabb6fdaf45e38b793a33a341162df8efdacb1c67f5676c0730adacb75f",
    (96, 1): "effcf31b9c3beb75f6bdeb36b1b54e90127518d718be3068bb6858f74c4063cb",
    (96, 2): "0cfc6524bc33dfc479db0c8724d94d8a7165721db2d7fe27345f909a5f57efcd",
}


@pytest.mark.parametrize(("n", "s"), sorted(PINNED_SOLVES))
def test_pipeline_outputs_pinned(n, s):
    g = random_min_semidegree(n, math.ceil(3 * n / 8), s)
    text = json.dumps(find_hamilton_absorption(g, seed=s).to_json_dict(),
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SOLVES[(n, s)]


def test_stage_records_serialize():
    g, part = generate_extremal(table_params(12, 0))
    d = find_hamilton_absorption(g).to_json_dict()
    assert d["verdict"] == "not_found"
    assert d["certificate"] is None
    assert d["trace"] == [{
        "stage": "cover", "ok": False,
        "detail": {"reason": "no cycle factor", "hall_set": sorted(part.B | part.C),
                   "out_neighbourhood": 8}}]
    d = find_hamilton_absorption(random_oriented(6, 0.7, 1)).to_json_dict()
    assert d["trace"][0]["stage"] == "absorbing_path"
    assert d["trace"][-1] == {
        "stage": "stitch", "ok": False,
        "detail": {"attempts": 12, "units": 3}}
    rec = StageRecord("cover", True, {"paths": 1})
    assert rec.stage == "cover" and rec.ok
