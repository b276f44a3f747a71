import hashlib
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (ConnectivityProfile, OrientedGraph, emit_edge_list, exact_dp,
                    find_hamilton_absorption, feasible_a_values, generate_extremal,
                    parse_edge_list, random_min_semidegree, random_oriented, table_params)
from oriham import cli, graph
from oriham.absorption import ALPHA1, enumerate_weak_absorbers
from oriham.cli import main
from oriham.seeds import derive_seed

import _oracles

TS = "2026-08-18T00:00:00+00:00"


def cycle_graph(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def write_graph(tmp_path, g, name="g.edges"):
    path = tmp_path / name
    path.write_text(emit_edge_list(g))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_version():
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


def test_generate_stdout(capsys):
    rc, out, _ = run(capsys, ["generate", "--n", "7", "--a", "0"])
    assert rc == 0
    g = parse_edge_list(out)
    assert g.n == 7


def test_generate_with_sidecar(tmp_path, capsys):
    out = tmp_path / "x.edges"
    rc, _, _ = run(capsys, ["generate", "--n", "12", "--a", "0",
                            "--out", str(out), "--timestamp", TS])
    assert rc == 0
    text = out.read_text()
    g = parse_edge_list(text)
    want, part = generate_extremal(table_params(12, 0))
    assert g == want

    side = json.loads((tmp_path / "x.edges.json").read_text())
    assert side["schema"] == "oriham/1"
    assert side["sharp_bound"] == 8
    assert side["params"]["size_b"] == 4
    assert side["partition"] == {"A": [], "B": [0, 1, 2, 3],
                                 "C": [4, 5, 6, 7, 8], "D": [9, 10, 11]}
    man = side["manifest"]
    assert man["command"] == "generate"
    assert man["timestamp"] == TS
    assert man["input_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_generate_infeasible(capsys):
    rc, _, err = run(capsys, ["generate", "--n", "6", "--a", "0"])
    assert rc == 2
    assert err.startswith("error:")


def test_generate_oversized_order_is_usage_error(tmp_path, capsys):
    # refused before any block of the construction is built
    out = tmp_path / "big.edges"
    start = time.perf_counter()
    rc, _, err = run(capsys, ["generate", "--n", str(graph.MAX_VERTICES + 1),
                              "--a", "0", "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert err.startswith("error: vertex count 4097")
    assert not out.exists()


def test_check_ore_positive(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, out, _ = run(capsys, ["check", "--condition", "ore", "--input", path])
    assert rc == 0
    rep = json.loads(out)["report"]
    assert rep["satisfied"] is True
    assert rep["margin"] == {"num": 1, "den": 2}


def test_check_rereads_a_rewritten_file(tmp_path, capsys):
    """A file rewritten with another graph of the same byte length, its
    mtime restored, is read again: no cache keyed on the path or its
    stat serves the old graph."""
    transitive = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])
    path = write_graph(tmp_path, cycle_graph(3))
    stat = os.stat(path)
    argv = ["check", "--condition", "ore", "--input", path]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert json.loads(out)["report"]["margin"] == {"num": 1, "den": 2}
    write_graph(tmp_path, transitive)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_size == stat.st_size
    rc, out, _ = run(capsys, argv)
    assert rc == 1
    assert json.loads(out)["report"]["margin"] == {"num": -3, "den": 2}


def test_check_nash_williams_negative(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, out, _ = run(capsys, ["check", "--condition", "nash-williams",
                              "--input", path])
    assert rc == 1
    rep = json.loads(out)["report"]
    assert rep["witness"] == [1, "out-first"]


def test_check_gh_reports_connectivity(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, out, _ = run(capsys, ["check", "--condition", "gh", "--input", path])
    assert rc == 1
    assert json.loads(out)["report"]["strongly_connected"] is True


def test_check_sparse_set(tmp_path, capsys):
    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["check", "--condition", "sparse-set",
                              "--input", path, "--set", "9,10,11",
                              "--sigma", "0"])
    assert rc == 0
    assert json.loads(out)["report"]["margin"] == {"num": 0, "den": 1}


def test_check_sparse_set_needs_args(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, _, err = run(capsys, ["check", "--condition", "sparse-set",
                              "--input", path])
    assert rc == 2
    assert "error:" in err


def test_check_sparse_set_hypothesis_violation(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, _, err = run(capsys, ["check", "--condition", "sparse-set",
                              "--input", path, "--set", "0,1,2",
                              "--sigma", "0"])
    assert rc == 2


def test_check_sparse_set_negative_sigma_is_usage_error(tmp_path, capsys):
    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g)
    rc, out, err = run(capsys, ["check", "--condition", "sparse-set",
                                "--input", path, "--set", "9,10,11",
                                "--sigma=-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "sigma must not be negative" in err


@pytest.mark.parametrize("ids", ["99", "-1", "0,12"])
def test_check_sparse_set_id_out_of_range(tmp_path, capsys, ids):
    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g)
    rc, out, err = run(capsys, ["check", "--condition", "sparse-set",
                                "--input", path, "--set", ids, "--sigma", "0"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "outside [0, 12)" in err


@pytest.mark.parametrize("condition, text", [("gh", "0 0\n"), ("woodall", "1 0\n")])
def test_check_below_minimum_order_is_usage_error(tmp_path, capsys, condition, text):
    path = tmp_path / "tiny.edges"
    path.write_text(text)
    rc, out, err = run(capsys, ["check", "--condition", condition, "--input", str(path)])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "requires n >=" in err


@pytest.mark.parametrize("argv, message", [
    (["check", "--condition", "sparse-set", "--sigma", "1/0"], "not a rational number"),
    (["check", "--condition", "sparse-set", "--sigma", "x"], "not a rational number"),
    (["check", "--condition", "sparse-set", "--set", "0,x"], "expected comma-separated ids"),
    (["absorbers", "--pair", "1"], "expected 'u,v'"),
    (["absorbers", "--pair", "1,x"], "expected integers"),
])
def test_argument_type_errors_exit_2(tmp_path, capsys, argv, message):
    path = write_graph(tmp_path, cycle_graph(3))
    with pytest.raises(SystemExit) as ei:
        main([*argv, "--input", path])
    assert ei.value.code == 2
    assert message in capsys.readouterr().err


def test_check_missing_file(capsys):
    rc, _, err = run(capsys, ["check", "--condition", "ore",
                              "--input", "/no/such/file"])
    assert rc == 2
    assert "error:" in err


def test_check_binary_input_is_usage_error(tmp_path, capsys):
    path = tmp_path / "g.bin"
    path.write_bytes(b"3 1\n0 \xff\n")
    rc, _, err = run(capsys, ["check", "--condition", "ore", "--input", str(path)])
    assert rc == 2
    assert f"{path}: not a text file" in err


@pytest.mark.parametrize("header", ["5000 0", "10000000000 0"])
def test_check_oversized_header_is_usage_error(tmp_path, capsys, header):
    # the order is checked before any per-vertex list is allocated
    path = tmp_path / "big.edges"
    path.write_text(header + "\n")
    rc, _, err = run(capsys, ["check", "--condition", "ore", "--input", str(path)])
    assert rc == 2
    assert f"{path}: vertex count" in err


def test_score_partition_binary_file_is_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    pfile = tmp_path / "part.bin"
    pfile.write_bytes(b'{"A": [\xff]}')
    rc, _, err = run(capsys, ["score-partition", "--input", path,
                              "--partition", str(pfile), "--eta", "1/20"])
    assert rc == 2
    assert f"{pfile}: not a text file" in err


def test_score_partition_roundtrip(tmp_path, capsys):
    out = tmp_path / "x.edges"
    run(capsys, ["generate", "--n", "12", "--a", "0", "--out", str(out)])
    rc, text, _ = run(capsys, ["score-partition", "--input", str(out),
                               "--partition", str(out) + ".json",
                               "--eta", "1/20"])
    assert rc == 0
    assert json.loads(text)["report"]["verdict"] is True


@pytest.mark.parametrize("flag, name", [("--eta=-1/20", "eta"),
                                        ("--ceta=-1", "c_eta")])
def test_score_partition_negative_tolerance_is_usage_error(tmp_path, capsys,
                                                           flag, name):
    """A negative tolerance is rejected input, not a rejected partition;
    eta = 0 stays allowed."""
    out = tmp_path / "x.edges"
    run(capsys, ["generate", "--n", "12", "--a", "0", "--out", str(out)])
    argv = ["score-partition", "--input", str(out),
            "--partition", str(out) + ".json"]
    rc, text, err = run(capsys, [*argv, "--eta", "1/20", flag])
    assert rc == 2
    assert text == ""
    assert err.startswith("error:") and f"{name} must not be negative" in err
    rc, text, _ = run(capsys, [*argv, "--eta", "0"])
    assert rc == 0
    assert json.loads(text)["report"]["eta"] == {"num": 0, "den": 1}


def test_score_partition_rejects_swap(tmp_path, capsys):
    out = tmp_path / "x.edges"
    run(capsys, ["generate", "--n", "12", "--a", "0", "--out", str(out)])
    side = json.loads((tmp_path / "x.edges.json").read_text())["partition"]
    swapped = {"A": side["C"], "B": side["B"], "C": side["A"], "D": side["D"]}
    pfile = tmp_path / "swap.json"
    pfile.write_text(json.dumps(swapped))
    rc, text, _ = run(capsys, ["score-partition", "--input", str(out),
                               "--partition", str(pfile), "--eta", "1/100"])
    assert rc == 1
    assert json.loads(text)["report"]["verdict"] is False


def test_score_partition_bad_file(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps({"A": [0], "B": [1], "C": [2]}))
    rc, _, err = run(capsys, ["score-partition", "--input", path,
                              "--partition", str(pfile), "--eta", "1/20"])
    assert rc == 2


def test_score_partition_bad_classes(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    for classes, message in (({"A": [0.0], "B": [1], "C": [2], "D": [3]}, "vertex ids"),
                             ({"A": [0], "B": [1], "C": [2], "D": []}, "cover")):
        pfile = tmp_path / "classes.json"
        pfile.write_text(json.dumps(classes))
        rc, _, err = run(capsys, ["score-partition", "--input", path,
                                  "--partition", str(pfile), "--eta", "1/20"])
        assert rc == 2
        assert message in err


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("{", "invalid JSON"),
    ('{"A": [0, 1], "B": [1], "C": [2], "D": [3]}', "bad partition"),
])
def test_score_partition_file_errors(tmp_path, capsys, text, message):
    path = write_graph(tmp_path, cycle_graph(4))
    pfile = tmp_path / "part.json"
    if text is not None:
        pfile.write_text(text)
    rc, out, err = run(capsys, ["score-partition", "--input", path,
                                "--partition", str(pfile), "--eta", "1/20"])
    assert rc == 2
    assert out == ""
    assert f"{pfile}" in err and message in err


def test_score_partition_rejects_boolean_ids(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(4))
    pfile = tmp_path / "classes.json"
    pfile.write_text('{"A": [], "B": [0, true, 2, 3], "C": [], "D": []}')
    rc, out, err = run(capsys, ["score-partition", "--input", path,
                                "--partition", str(pfile), "--eta", "1/20"])
    assert rc == 2
    assert out == ""
    assert "vertex ids" in err


def test_score_partition_bug_is_not_usage_error(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.edges"
    run(capsys, ["generate", "--n", "12", "--a", "0", "--out", str(out)])

    def broken(*args):
        raise RuntimeError("scorer bug")

    monkeypatch.setattr(cli, "verify_partition", broken)
    with pytest.raises(RuntimeError, match="scorer bug"):
        main(["score-partition", "--input", str(out),
              "--partition", str(out) + ".json", "--eta", "1/20"])


def test_absorbers_strong(tmp_path, capsys):
    g = OrientedGraph(3, [(1, 2), (1, 0), (0, 2)])
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["absorbers", "--input", path,
                              "--pair", "0,0", "--kind", "strong"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["members"] == [[1, 2]]


def test_absorbers_connector(tmp_path, capsys):
    g = OrientedGraph(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["absorbers", "--input", path,
                              "--pair", "0,4", "--kind", "connector", "--k", "1"])
    assert rc == 0
    assert json.loads(out)["members"] == [[1], [2], [3]]
    rc, _, err = run(capsys, ["absorbers", "--input", path,
                              "--pair", "0,4", "--kind", "connector"])
    assert rc == 2


def test_absorbers_weak(tmp_path, capsys):
    g = OrientedGraph(6, [(2, 3), (2, 0), (4, 5), (1, 5), (1, 3)])
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["absorbers", "--input", path, "--pair", "0,1",
                              "--kind", "weak", "--alpha1", "1/100"])
    assert rc == 0
    assert json.loads(out)["members"] == [[2, 3, 4, 5]]


def test_absorbers_negative_alpha1_is_usage_error(tmp_path, capsys):
    """A negative alpha1 is rejected input; alpha1 = 0 stays allowed."""
    g = OrientedGraph(6, [(2, 3), (2, 0), (4, 5), (1, 5), (1, 3)])
    path = write_graph(tmp_path, g)
    argv = ["absorbers", "--input", path, "--pair", "0,1", "--kind", "weak"]
    rc, out, err = run(capsys, [*argv, "--alpha1", "-1"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "alpha1 must not be negative" in err
    rc, out, _ = run(capsys, [*argv, "--alpha1", "0"])
    assert rc == 0
    assert json.loads(out)["members"] == [[2, 3, 4, 5]]


def test_absorbers_alpha1_zero_is_not_the_default(tmp_path, capsys):
    """--alpha1 0 reaches the enumeration as 0; only an absent --alpha1
    means ALPHA1.  On this graph the two give different members."""
    g = random_oriented(8, 0.5, 0)
    path = write_graph(tmp_path, g)
    argv = ["absorbers", "--input", path, "--pair", "0,1", "--kind", "weak"]
    members = {}
    for extra, alpha1 in (([], ALPHA1), (["--alpha1", "0"], Fraction(0))):
        rc, out, _ = run(capsys, [*argv, *extra])
        assert rc == 0
        members[alpha1] = json.loads(out)["members"]
        want = enumerate_weak_absorbers(g, 0, 1, alpha1)
        assert members[alpha1] == [list(m) for m in want]
    assert members[ALPHA1] != members[Fraction(0)]


def test_main_reuses_one_parser(tmp_path, capsys):
    """main builds its parser once per process, and an option given to one
    command is not remembered by the next."""
    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g)
    cli.build_parser.cache_clear()
    rc, _, _ = run(capsys, ["check", "--condition", "sparse-set", "--input", path,
                            "--set", "1", "--sigma", "1/2"])
    assert rc in (0, 1)
    rc, _, err = run(capsys, ["check", "--condition", "sparse-set", "--input", path])
    assert rc == 2
    assert "requires --set and --sigma" in err
    rc, out, _ = run(capsys, ["absorbers", "--input", path, "--pair", "0,1",
                              "--kind", "connector", "--k", "3"])
    assert rc == 0
    assert json.loads(out)["kind"] == "connector"
    rc, _, err = run(capsys, ["absorbers", "--input", path, "--pair", "0,1",
                              "--kind", "connector"])
    assert rc == 2
    assert "requires --k" in err
    info = cli.build_parser.cache_info()
    assert info.misses == 1 and info.hits == 3


@pytest.mark.parametrize("argv, flag", [
    (["check", "--condition", "ore", "--set", "1"], "--set"),
    (["check", "--condition", "gh", "--sigma", "1/2"], "--sigma"),
    (["check", "--condition", "woodall", "--set", "1", "--sigma", "1/2"], "--set"),
    (["absorbers", "--pair", "0,2", "--k", "1"], "--k"),
    (["absorbers", "--pair", "0,2", "--kind", "strong", "--k", "2"], "--k"),
    (["absorbers", "--pair", "0,2", "--kind", "weak", "--k", "3"], "--k"),
    (["absorbers", "--pair", "0,2", "--kind", "strong", "--alpha1", "5"], "--alpha1"),
    (["absorbers", "--pair", "0,2", "--alpha1", "0"], "--alpha1"),
    (["absorbers", "--pair", "0,2", "--kind", "connector", "--k", "1", "--alpha1", "5"],
     "--alpha1"),
    (["solve", "--method", "brute", "--seed", "7"], "--seed"),
    (["solve", "--method", "dp", "--seed", "7"], "--seed"),
    (["solve", "--seed", "0"], "--seed"),
])
def test_flag_of_another_mode_is_usage_error(tmp_path, capsys, argv, flag):
    """A flag the chosen condition, kind or method does not read is
    refused, not ignored."""
    path = write_graph(tmp_path, cycle_graph(5))
    rc, out, err = run(capsys, [argv[0], "--input", path, *argv[1:]])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: {flag} applies only to ")


@pytest.mark.parametrize("kind", [["connector", "--k", "1"], ["strong"], ["weak"]])
def test_absorbers_cap_below_one_is_usage_error(tmp_path, capsys, kind):
    path = write_graph(tmp_path, OrientedGraph(5, [(0, 1), (1, 4), (0, 2), (2, 4)]))
    rc, out, err = run(capsys, ["absorbers", "--input", path, "--pair", "0,4",
                                "--kind", *kind, "--cap", "0"])
    assert rc == 2
    assert out == ""
    assert "cap" in err


def test_absorbers_pair_out_of_range(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, _, err = run(capsys, ["absorbers", "--input", path,
                              "--pair", "0,9", "--kind", "strong"])
    assert rc == 2


def test_profile(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(3))
    rc, out, _ = run(capsys, ["profile", "--input", path])
    assert rc == 0
    prof = json.loads(out)["profile"]
    assert prof["unconnectable"] == []
    assert prof["pairs"]["1,0"] == {"k": 1, "count": 1}


def profile_reference(g):
    return reference_dumps({"schema": "oriham/1",
                            "profile": _oracles.profile_json_dict(g)}) + "\n"


def layered_graph(*sizes):
    """Layers of the given sizes, numbered in order, with every arc from
    one layer to the next."""
    bounds = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    layers = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    return OrientedGraph(bounds[-1], [(a, b) for src, dst in zip(layers, layers[1:])
                                      for a in src for b in dst])


PROFILE_GRAPHS = {
    "n0": OrientedGraph(0),
    "n1": OrientedGraph(1),
    "n2-arc": OrientedGraph(2, [(0, 1)]),
    "n2-empty": OrientedGraph(2),
    "cycle12": cycle_graph(12),
    "two-cycles": OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    "sparse23": random_oriented(23, 0.15, 4),
    "dense31": random_oriented(31, 0.5, 2),
    "extremal13": generate_extremal(table_params(13, 1, seed=4))[0],
    # (0, 13) has 4^3 = 64 3-connectors, more than n
    "layered14": layered_graph(1, 4, 4, 4, 1),
}


@pytest.mark.parametrize("name", PROFILE_GRAPHS)
def test_profile_text_matches_json(tmp_path, capsys, name):
    """The profile report is json.dumps(sort_keys=True, indent=2) of the
    per-pair map, with pair keys in string order ("10,2" before "2,10")."""
    g = PROFILE_GRAPHS[name]
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["profile", "--input", path])
    assert rc == 0
    assert out == profile_reference(g)


def hand_profile(n, dead):
    """A profile whose pairs, in row order, run through k = 1, 2, 3 and the
    counts 0, n - 1, n, n + 1 and 2**62 in turn, so one row mixes every k;
    each seventh pair has k = 0 and, when ``dead``, is unconnectable."""
    k = np.zeros((n, n), np.uint8)
    count = np.zeros((n, n), np.int64)
    dead_pairs = []
    for i, (u, v) in enumerate((u, v) for u in range(n) for v in range(n) if u != v):
        if i % 7 != 6:
            k[u, v] = 1 + i % 3
            count[u, v] = (0, n - 1, n, n + 1, 2 ** 62)[i % 5]
        elif dead:
            dead_pairs.append((u, v))
    return ConnectivityProfile(k, count, tuple(dead_pairs))


@pytest.mark.parametrize("dead", [False, True])
@pytest.mark.parametrize("n", [0, 1, 2, 11, 23])
def test_profile_text_on_hand_built_profiles(n, dead):
    """The count table holds str(0..n); counts at and past its edge, and
    k = 1, 2, 3 within one row, are written as json.dumps writes them."""
    prof = hand_profile(n, dead)
    if n > 2:
        assert {c for _, c in prof.best.values()} == {0, n - 1, n, n + 1, 2 ** 62}
        assert {k for (u, _), (k, _) in prof.best.items() if u == 0} == {1, 2, 3}
        assert bool(prof.unconnectable) == dead
    pairs = {f"{u},{v}": {"count": c, "k": k} for (u, v), (k, c) in prof.best.items()}
    doc = {"schema": "oriham/1",
           "profile": {"pairs": pairs, "unconnectable": [list(p) for p in prof.unconnectable]}}
    assert cli._profile_text(prof) == reference_dumps(doc) + "\n"


def test_profile_graphs_cover_every_shape():
    profiles = [_oracles.profile_json_dict(g) for g in PROFILE_GRAPHS.values()]
    ks = {rec["k"] for prof in profiles for rec in prof["pairs"].values()}
    assert ks == {1, 2, 3}
    assert any(prof["unconnectable"] for prof in profiles)
    assert any(not prof["pairs"] and not prof["unconnectable"] for prof in profiles)
    assert any(rec["count"] > g.n for g, prof in zip(PROFILE_GRAPHS.values(), profiles)
               for rec in prof["pairs"].values())
    assert any(sorted(prof["pairs"]) != sorted(
        prof["pairs"], key=lambda key: tuple(map(int, key.split(","))))
        for prof in profiles)


@pytest.mark.parametrize("argv", [
    ["profile", "--input", "{graph}"],
    ["check", "--condition", "ore", "--input", "{graph}"],
    ["generate", "--n", "7", "--a", "0"],
], ids=["profile", "check", "generate"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    graph = write_graph(tmp_path, cycle_graph(3))
    target = tmp_path / "missing" / "x.json"
    argv = [arg.format(graph=graph) for arg in argv]
    rc, out, err = run(capsys, [*argv, "--out", str(target)])
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")


def test_solve_dp_found(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(5))
    rc, out, _ = run(capsys, ["solve", "--input", path, "--method", "dp"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "cycle_found"
    assert res["certificate"] == [0, 1, 2, 3, 4]


def test_solve_dp_negative(tmp_path, capsys):
    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g)
    rc, out, _ = run(capsys, ["solve", "--input", path])
    assert rc == 1
    assert json.loads(out)["result"]["verdict"] == "none_exists"


def test_solve_brute_cap_is_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(11))
    rc, _, err = run(capsys, ["solve", "--input", path, "--method", "brute"])
    assert rc == 2
    assert "error:" in err


def test_solve_absorb(tmp_path, capsys):
    path = write_graph(tmp_path, cycle_graph(12))
    rc, out, _ = run(capsys, ["solve", "--input", path, "--method", "absorb"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "cycle_found"
    assert sorted(res["certificate"]) == list(range(12))

    g, _ = generate_extremal(table_params(12, 0))
    path = write_graph(tmp_path, g, "neg.edges")
    rc, out, _ = run(capsys, ["solve", "--input", path, "--method", "absorb"])
    assert rc == 1
    assert json.loads(out)["result"]["verdict"] == "not_found"


def test_solve_absorb_empty_graph_fails_at_cover(tmp_path, capsys):
    path = write_graph(tmp_path, OrientedGraph(0))
    rc, out, _ = run(capsys, ["solve", "--input", path, "--method", "absorb"])
    assert rc == 1
    res = json.loads(out)["result"]
    assert res["verdict"] == "not_found"
    assert [(r["stage"], r["ok"]) for r in res["trace"]] == [("cover", False)]


def test_solve_absorb_one_vertex_fails_at_cover(tmp_path, capsys):
    # 8 * 0 < 3 * 1 - 4 is false, so a bare semidegree gate skipped the
    # Hall test here and every stitch attempt ran before failing
    path = write_graph(tmp_path, OrientedGraph(1))
    rc, out, _ = run(capsys, ["solve", "--input", path, "--method", "absorb"])
    assert rc == 1
    res = json.loads(out)["result"]
    assert res["verdict"] == "not_found"
    assert [(r["stage"], r["ok"]) for r in res["trace"]] == [("cover", False)]
    assert res["trace"][0]["detail"] == {"reason": "no cycle factor",
                                         "hall_set": [0], "out_neighbourhood": 0}


def test_generate_solve_pipeline_roundtrip(tmp_path, capsys):
    out = tmp_path / "x.edges"
    run(capsys, ["generate", "--n", "13", "--a", "1", "--seed", "4",
                 "--out", str(out)])
    rc, text, _ = run(capsys, ["solve", "--input", str(out), "--method", "dp"])
    assert rc == 1
    assert json.loads(text)["result"]["verdict"] == "none_exists"


def test_sweep_empty(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"entries": []}))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 0
    payload = json.loads(out)
    assert payload["rows"] == []
    assert payload["failures"] == 0


def test_sweep_entries(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([
        {"kind": "sharpness", "n": 7, "a": 0},
        {"kind": "oracle", "count": 5, "n_min": 4, "n_max": 6},
    ]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [True, True]
    assert rows[0]["hamilton_verdict"] == "none_exists"
    assert rows[0]["sharp_pair"] is not None
    assert rows[1]["disagreements"] == 0


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_sweep_sharpness_above_dp_cap_has_a_hall_set(tmp_path, capsys, n):
    # S = B + C, whose out-neighbours C + D are one fewer
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "sharpness", "n": n, "a": a}
                                for a in feasible_a_values(n)[:3]]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 3
    for row in rows:
        _, b, c, _ = table_params(n, row["a"]).sizes
        assert row["hamilton_verdict"] == "none_exists" and row["ok"]
        assert row["hall_set_size"] == b + c


def test_sweep_partial_failure(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([
        {"kind": "sharpness", "n": 6, "a": 0},
        {"kind": "sharpness", "n": 7, "a": 0},
    ]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert rows[0]["ok"] is False
    assert "error" in rows[0]
    assert rows[1]["ok"] is True
    assert json.loads(out)["failures"] == 1


@pytest.mark.parametrize("kind", ["oracle", "pipeline"])
def test_sweep_rejects_bad_size_range(tmp_path, capsys, kind):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([
        {"kind": kind, "count": 2, "n_min": 9, "n_max": 8},
        {"kind": kind, "count": 2, "n_min": 9, "n_max": 5},
        {"kind": kind, "count": 2, "n_min": -1, "n_max": -1},
    ]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [False, False, False]
    assert all(r["error"].startswith("ValueError: size range") for r in rows)


@pytest.mark.parametrize("kind", ["oracle", "pipeline"])
def test_sweep_oversized_order_is_row_error(tmp_path, capsys, kind):
    n = graph.MAX_VERTICES + 1  # refused before any graph is built
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": kind, "count": 1, "n_min": n, "n_max": n},
                                {"kind": "oracle", "count": 0}]))
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [False, True]
    assert rows[0]["error"].startswith("OutOfRangeError: vertex count 4097")


def test_sweep_rejects_negative_counts(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([
        {"kind": "oracle", "count": -3},
        {"kind": "pipeline", "count": -2},
        {"kind": "robustness", "n": 8, "a": 0, "seeds": -1},
        {"kind": "oracle", "count": 0},
    ]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [False, False, False, True]
    assert [r["error"] for r in rows[:3]] == [
        "ValueError: count = -3 is negative",
        "ValueError: count = -2 is negative",
        "ValueError: seeds = -1 is negative",
    ]


@pytest.mark.parametrize("entry, key", [
    ({"kind": "oracle", "arc_prob": "1/0"}, "arc_prob"),
    ({"kind": "pipeline", "min_rate": "1/0"}, "min_rate"),
    ({"kind": "sharpness", "n": 1e999, "a": 0}, "n"),
    ({"kind": "sharpness", "a": 0}, "n"),  # a missing required key reads None
    ({"kind": "robustness", "n": 8}, "a"),
    ({"kind": "oracle", "arc_prob": "3/2"}, "arc_prob"),
    ({"kind": "oracle", "arc_prob": -1}, "arc_prob"),
    ({"kind": "pipeline", "min_rate": "7/3"}, "min_rate"),
])
def test_sweep_bad_number_is_row_error(tmp_path, capsys, entry, key):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([entry, {"kind": "oracle", "count": 0}]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [False, True]
    assert rows[0]["error"].startswith(f"ValueError: {key} = ")


@pytest.mark.parametrize("entry, unread", [
    ({"kind": "oracle", "cout": 1}, "cout"),
    ({"kind": "pipeline", "n": 30, "count": 1}, "n"),
    ({"kind": "sharpness", "n": 8, "a": 0, "seeds": 3, "ac_extra": 1}, "ac_extra, seeds"),
    ({"kind": "robustness", "n": 8, "a": 0, "arc_prob": "1/2"}, "arc_prob"),
])
def test_sweep_unread_key_is_row_error(tmp_path, capsys, entry, unread):
    """A key the entry's kind does not read fails its row instead of
    running the kind's defaults."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([entry, {"kind": "oracle", "count": 0}]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 3
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [False, True]
    assert rows[0]["error"] == f"ValueError: {entry['kind']} reads no key {unread}"


def test_sweep_lets_a_solver_key_error_escape(tmp_path, capsys, monkeypatch):
    # a KeyError inside a solver is a bug, not a malformed entry
    def broken(g, seed=0):
        raise KeyError("route")

    monkeypatch.setattr(cli, "find_hamilton_absorption", broken)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "pipeline", "count": 1}]))
    with pytest.raises(KeyError, match="route"):
        main(["sweep", "--spec", str(spec)])


def test_sweep_robustness_counts_hamiltonian_instances(tmp_path, capsys):
    entry = {"kind": "robustness", "n": 9, "a": 0, "ac_extra": 3, "d_extra": 2,
             "seeds": 4}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([entry]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec), "--seed", "5"])
    row = json.loads(out)["rows"][0]
    seed = derive_seed(5, "sweep", 0)
    found = sum(exact_dp(generate_extremal(table_params(
        9, 0, ac_extra=3, d_extra=2, seed=derive_seed(seed, "robustness", i)))[0]
    ).found for i in range(4))
    assert row == {"index": 0, "kind": "robustness", "n": 9, "a": 0,
                   "ac_extra": 3, "d_extra": 2, "seeds": 4,
                   "hamiltonian_found": found, "ok": found == 0}
    assert rc == (0 if found == 0 else 3)


def test_sweep_robustness_above_dp_cap_uses_hall_sets(tmp_path, capsys, monkeypatch):
    # above the cap each graph is decided by its Hall set, and a graph
    # without one counts as undecided, not as Hamiltonian
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "robustness", "n": 64, "a": 0, "seeds": 2}]))
    expected = {"index": 0, "kind": "robustness", "n": 64, "a": 0, "ac_extra": 0,
                "d_extra": 0, "seeds": 2, "hamiltonian_found": 0, "ok": True,
                "undecided": 0}
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 0 and json.loads(out)["rows"] == [expected]
    monkeypatch.setattr(cli, "hall_witness", lambda g: None)
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 0 and json.loads(out)["rows"] == [{**expected, "undecided": 2}]


def test_sweep_pipeline_counts_direct_solves(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "pipeline", "count": 3, "n_min": 24,
                                 "n_max": 26, "min_rate": "1/3"}]))
    rc, out, _ = run(capsys, ["sweep", "--spec", str(spec), "--seed", "2"])
    row = json.loads(out)["rows"][0]
    seed = derive_seed(2, "sweep", 0)
    successes = 0
    for i in range(3):
        inst = derive_seed(seed, "pipeline", i)
        n = 24 + inst % 3
        g = random_min_semidegree(n, -(-3 * n // 8), inst)
        successes += find_hamilton_absorption(g, seed=inst).found
    assert (row["instances"], row["successes"]) == (3, successes)
    rate = Fraction(successes, 3)
    assert row["rate"] == {"num": rate.numerator, "den": rate.denominator}
    assert row["ok"] == (successes >= 1)
    assert rc == (0 if successes >= 1 else 3)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("[", "invalid JSON"),
    ('{"entries": 5}', "expected a list of entries"),
    ('"sweep"', "expected a list of entries"),
])
def test_sweep_spec_errors(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    if text is not None:
        spec.write_text(text)
    rc, out, err = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 2
    assert out == ""
    assert f"{spec}" in err and message in err


def test_sweep_unknown_kind(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "nonsense"}]))
    rc, _, err = run(capsys, ["sweep", "--spec", str(spec)])
    assert rc == 2


def test_sweep_deterministic_output(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([{"kind": "sharpness", "n": 8, "a": 0}]))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    rc1, _, _ = run(capsys, ["sweep", "--spec", str(spec), "--seed", "3",
                             "--timestamp", TS, "--out", str(a)])
    rc2, _, _ = run(capsys, ["sweep", "--spec", str(spec), "--seed", "3",
                             "--timestamp", TS, "--out", str(b)])
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


# -- the JSON emitter ----------------------------------------------------------


def reference_dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def emittable(obj) -> bool:
    """Whether ``obj`` has the shape of a CLI document: dicts with str
    keys, lists and tuples, and str, int, bool or None leaves."""
    if isinstance(obj, dict):
        return all(isinstance(k, str) and emittable(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return all(map(emittable, obj))
    return obj is None or isinstance(obj, (str, int))


names = st.text(max_size=4)


@st.composite
def record_maps(draw):
    """Maps of int records with one key set, the shape of profile's pairs."""
    fields = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    row = st.tuples(*[st.integers() for _ in fields]).map(
        lambda vals: dict(zip(fields, vals)))
    return draw(st.dictionaries(names, row, max_size=5))


@st.composite
def int_rows(draw):
    """Lists of equal-length int lists or tuples, the shape of absorbers'
    members."""
    width = draw(st.integers(0, 4))
    row = st.lists(st.integers(), min_size=width, max_size=width)
    return draw(st.lists(row | row.map(tuple), max_size=5))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(names, kids, max_size=4) | record_maps()
                  | int_rows()),
    max_leaves=24)


@given(json_values)
def test_dumps_matches_json(obj):
    assert cli._dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [
    {"p": {"0,1": {"count": 3, "k": 1}, "0,2": {"count": -2, "k": 10 ** 30}}},
    {"a": {"k": 1}, "b": {"k": True}},
    {"a": {"k": 1}, "b": {"k": 1.0}},
    {"a": {"k": 1}, "b": {"j": 1}},
    {"a": {"k": 1}, "b": {"k": 1, "j": 2}},
    {"%d": {"%(x)": 1, "y)": 2}, "é": {"%(x)": 3, "y)": 4}},
    {"a": {}, "b": {}},
    {"w": ((1, 2), [3, (4,)]), "e": [[], {}, ()], "s": "\u00e9\n\"\x00"},
    {2: "a", 10: "b"},
    {"x": {2: "a", 10: "b"}},
    {"x": {"a": {3: 1}, "b": {3: 2}}},
    [{"k": 1}, {"k": 2}],
    {"members": [[3, 1, 4, 1], [5, 9, 2, 6], (5, 3, 5, 8)]},
    [[1, 2], [3, True]],
    [[1, 2], [3, 2.0]],
    [[1], [2, 3]],
    [[], []],
    [[10 ** 30, -1], [0, -(10 ** 30)]],
    [[1, 2], {"a": 1}],
    "solo",
    -7,
])
def test_dumps_edge_shapes(obj):
    # a float or a non-str key is no CLI document: json.dumps would accept
    # it, and _dumps raises TypeError
    if emittable(obj):
        assert cli._dumps(obj) == reference_dumps(obj)
    else:
        with pytest.raises(TypeError):
            cli._dumps(obj)


def test_certify_reports_match_json(tmp_path, capsys, monkeypatch):
    """Every report a certify run writes on an n = 192 near-extremal graph
    is byte-identical to json.dumps(sort_keys=True, indent=2): of the
    emitted document, or for profile, which writes its text directly, of
    the oracle's per-pair map."""
    g, part = generate_extremal(table_params(192, 24, ac_extra=48, d_extra=24))
    path = write_graph(tmp_path, g)
    pfile = tmp_path / "part.json"
    pfile.write_text(json.dumps({k: sorted(vs) for k, vs in part.classes().items()}))
    u, v = next((u, v) for u in range(g.n) for v in range(g.n)
                if u != v and not g.has_arc(u, v))
    pair = ["--pair", f"{u},{v}", "--cap", "2048"]
    commands = [*(["check", "--condition", c] for c in cli._CHECKS),
                ["profile"],
                ["score-partition", "--partition", str(pfile), "--eta", "1/20"],
                *(["absorbers", *pair, "--kind", k] for k in ("strong", "weak")),
                ["absorbers", *pair, "--kind", "connector", "--k", "3"]]
    emitted = []
    real_emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda obj, out: (emitted.append(obj),
                                                        real_emit(obj, out)))
    out = tmp_path / "report.json"
    checked = 0
    for argv in commands:
        main([argv[0], "--input", path, *argv[1:], "--out", str(out)])
        if argv[0] == "profile":
            assert out.read_text() == profile_reference(g)
        else:
            assert out.read_text() == reference_dumps(emitted[-1]) + "\n"
        checked += 1
    assert len(emitted) == 9 and checked == 10
