import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    CoverResult,
    DiCycle,
    HamiltonResult,
    OrientedGraph,
    PIPELINE_MAX_N,
    SelfLoopError,
    StageRecord,
    TooLargeError,
    TwoCycleError,
    exact_brute,
    exact_dp,
    find_hamilton_absorption,
    generate_extremal,
    greedy_path_cover,
    random_min_semidegree,
    random_oriented,
    table_params,
    verify_hamilton_cycle,
)
from oriham import hamilton
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
    assert exact_brute(OrientedGraph.empty(0)).verdict == "none_exists"
    assert exact_brute(OrientedGraph.empty(1)).verdict == "none_exists"
    g, _ = generate_extremal(table_params(7, 0))
    assert exact_brute(g).verdict == "none_exists"


def test_brute_size_cap():
    with pytest.raises(TooLargeError):
        exact_brute(OrientedGraph.empty(11))
    assert exact_brute(OrientedGraph.empty(11), max_n=11).verdict == "none_exists"


def test_dp_cycle16():
    g = cycle_graph(16)
    res = exact_dp(g)
    assert res.found
    assert verify_hamilton_cycle(g, res.certificate.vertices)


def test_dp_negative_cases():
    assert exact_dp(OrientedGraph.empty(0)).verdict == "none_exists"
    assert exact_dp(OrientedGraph.empty(1)).verdict == "none_exists"
    g, _ = generate_extremal(table_params(16, 1))
    assert exact_dp(g).verdict == "none_exists"


def test_dp_size_cap():
    with pytest.raises(TooLargeError):
        exact_dp(OrientedGraph.empty(25))


def test_dp_endpoint_width_cap(monkeypatch):
    def allocate(g):
        raise AssertionError("table allocated before the width check")

    monkeypatch.setattr(hamilton, "_endpoint_table", allocate)
    with pytest.raises(TooLargeError, match="endpoint"):
        exact_dp(OrientedGraph.empty(33), max_n=40)


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
    c4, AbsorbingPath((0, 1)), [DiPath((2, 3))], Reservoir(frozenset()), None),
    CertificateError)
# a stitched sequence that does not open with the absorbing path
hamilton.build_absorbing_path = lambda *args, **kwargs: AbsorbingPath((0, 1))
hamilton.build_reservoir = lambda *args, **kwargs: Reservoir(frozenset())
hamilton.greedy_path_cover = lambda *args: CoverResult(
    (DiPath((2,)),), frozenset({3}), 2, False)
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
    g = OrientedGraph.empty(8)
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


# -- path cover ------------------------------------------------------------------


def test_cover_single_cycle():
    cov = greedy_path_cover(cycle_graph(9), (), 5)
    assert len(cov.paths) == 1
    assert cov.paths[0].vertices == (8, 0, 1, 2, 3, 4, 5, 6, 7)
    assert cov.uncovered == frozenset()
    assert cov.pool_size == 9
    assert not cov.truncated
    assert cov.covered_fraction() == 1


def test_cover_no_arcs_truncates():
    cov = greedy_path_cover(OrientedGraph.empty(5), (), 3)
    assert len(cov.paths) == 3
    assert all(len(p.vertices) == 1 for p in cov.paths)
    assert cov.truncated
    assert len(cov.uncovered) == 2
    assert cov.covered_fraction() == Fraction(3, 5)


def test_cover_respects_avoid():
    cov = greedy_path_cover(cycle_graph(9), (4,), 5)
    assert cov.pool_size == 8
    assert len(cov.paths) == 1
    assert 4 not in cov.paths[0].vertices
    assert cov.covered_fraction() == 1


def test_cover_deterministic():
    g = random_oriented(20, 0.3, 5)
    a = greedy_path_cover(g, (), 6, seed=9)
    b = greedy_path_cover(g, (), 6, seed=9)
    assert [p.vertices for p in a.paths] == [p.vertices for p in b.paths]


@given(st.integers(0, 25))
def test_cover_paths_disjoint_and_valid(seed):
    g = random_oriented(14, 0.35, seed)
    cov = greedy_path_cover(g, (0, 1), 6, seed=seed)
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
        cov = greedy_path_cover(g, (), 12, seed=s)
        if cov.covered_fraction() < Fraction(9, 10) or len(cov.paths) > 12:
            fails += 1
    assert fails == 0


# -- pipeline --------------------------------------------------------------------


def test_pipeline_defaults():
    assert hamilton.MAX_PATHS == 12
    assert hamilton.COVER_RESTARTS == 8
    assert hamilton.STITCH_ATTEMPTS == 12
    assert hamilton.LEFTOVER_RATIO == Fraction(1, 4)
    assert PIPELINE_MAX_N == 512


def test_pipeline_finds_plain_cycle():
    g = cycle_graph(12)
    res = find_hamilton_absorption(g)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate.vertices)
    assert [s.stage for s in res.trace] == [
        "absorbing_path", "reservoir", "cover", "stitch", "absorb", "close"]
    assert all(s.ok for s in res.trace)
    assert res.first_failure() is None


def test_pipeline_extremal_fails_at_stitch():
    g, _ = generate_extremal(table_params(12, 0))
    res = find_hamilton_absorption(g)
    assert res.verdict == "not_found"
    assert res.certificate is None
    failing = [s for s in res.trace if not s.ok]
    assert len(failing) == 1
    assert failing[0] is res.trace[-1]
    assert res.first_failure() == "stitch"
    # the claim is only "not found"; the exact solver confirms none exists
    assert exact_dp(g).verdict == "none_exists"


def test_pipeline_never_claims_nonexistence():
    g = OrientedGraph.empty(8)
    res = find_hamilton_absorption(g)
    assert res.verdict == "not_found"


def test_pipeline_size_cap():
    with pytest.raises(TooLargeError):
        find_hamilton_absorption(OrientedGraph.empty(PIPELINE_MAX_N + 1))


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


def test_pipeline_at_size_cap():
    # n = 512 is PIPELINE_MAX_N, the largest size the pipeline takes
    g = random_min_semidegree(512, 192, 0, flips=512 * 512)
    res = find_hamilton_absorption(g)
    assert res.verdict == "cycle_found"
    assert verify_hamilton_cycle(g, res.certificate.vertices)


def test_stage_records_serialize():
    g, _ = generate_extremal(table_params(12, 0))
    d = find_hamilton_absorption(g).to_json_dict()
    assert d["verdict"] == "not_found"
    assert d["certificate"] is None
    assert d["trace"][0]["stage"] == "absorbing_path"
    assert d["trace"][-1] == {
        "stage": "stitch", "ok": False,
        "detail": {"attempts": 12, "units": 2}}
    rec = StageRecord("cover", True, {"paths": 1})
    assert rec.stage == "cover" and rec.ok
