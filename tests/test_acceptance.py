"""Acceptance suite: one test per release criterion, each ending in a
single PASS/FAIL line. Numeric tolerances are stated inline; timing
budgets use wall-clock monotonic time on the full criterion run."""

import json
import time
from fractions import Fraction

from oriham import (
    DiPath,
    OrientedGraph,
    Partition4,
    absorb_vertices,
    build_absorbing_path,
    check_ore,
    check_semidegree_consequence,
    enumerate_connectors,
    enumerate_strong_absorbers,
    enumerate_weak_absorbers,
    exact_brute,
    exact_dp,
    feasible_a_values,
    find_hamilton_absorption,
    find_sharp_pair,
    generate_extremal,
    near_regular_tournament,
    random_min_semidegree,
    random_oriented,
    table_params,
    verify_hamilton_cycle,
    verify_partition,
)
from oriham.cli import main as cli_main
from oriham.seeds import derive_seed, rng_for

import _exhaustive
import _oracles


def report(num, name, failures, detail=""):
    status = "FAIL" if failures else "PASS"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert not failures, f"criterion {num} {name}: {failures[:5]}"


def test_criterion_1_sharpness_suite():
    t0 = time.monotonic()
    failures = []
    count = 0
    for n in range(7, 17):
        for a in feasible_a_values(n):
            params = table_params(n, a)
            g, part = generate_extremal(params)
            count += 1
            sizes = part.sizes()
            if (sizes["A"], sizes["B"], sizes["C"], sizes["D"]) != params.sizes:
                failures.append((n, a, "sizes"))
                continue
            pair = find_sharp_pair(g, params.bound)
            if pair is None:
                failures.append((n, a, "no pair at bound"))
                continue
            x, y = pair
            if g.has_arc(x, y) or g.out_degree(x) + g.in_degree(y) != params.bound:
                failures.append((n, a, "pair not exact"))
            if exact_dp(g).verdict != "none_exists":
                failures.append((n, a, "hamiltonian"))
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    report(1, "sharpness suite", failures,
           f"{count} instances, {elapsed:.1f}s")


def test_criterion_2_extra_arc_robustness():
    failures = []
    for n in (11, 12):
        for i in range(20):
            params = table_params(n, 2, ac_extra=5, d_extra=3,
                                  seed=derive_seed(0, "robustness", n, i))
            g, _ = generate_extremal(params)
            if exact_dp(g).verdict != "none_exists":
                failures.append((n, i))
    report(2, "extra-arc robustness", failures, "2 sizes x 20 seeds")


def test_criterion_3_solver_oracle_equivalence():
    t0 = time.monotonic()
    failures = []
    probs = (0.3, 0.5, 0.8)
    for i in range(200):
        s = derive_seed(0, "oracle", i)
        n = 5 + i % 5
        g = random_oriented(n, probs[i % 3], s)
        rb, rd = exact_brute(g), exact_dp(g)
        if rb.verdict != rd.verdict:
            failures.append((i, "verdict"))
        if rb.found and not verify_hamilton_cycle(g, rb.certificate.vertices):
            failures.append((i, "brute certificate"))
        if rd.found and not verify_hamilton_cycle(g, rd.certificate.vertices):
            failures.append((i, "dp certificate"))
    elapsed = time.monotonic() - t0
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    report(3, "solver oracle equivalence", failures,
           f"200 instances, {elapsed:.1f}s")


def test_criterion_4_gadget_oracle_equivalence():
    failures = []
    for i in range(100):
        s = derive_seed(0, "gadget", i)
        n = 4 + i % 9
        g = random_oriented(n, 0.5, s)
        u, v = rng_for(s, "pair").sample(range(n), 2)
        for k in (1, 2, 3):
            if enumerate_connectors(g, u, v, k) != _oracles.connectors_oracle(g, u, v, k):
                failures.append((i, "connector", k))
        if enumerate_strong_absorbers(g, u, v) != _oracles.strong_absorbers_oracle(g, u, v):
            failures.append((i, "strong"))
        if enumerate_strong_absorbers(g, u, u) != _oracles.strong_absorbers_oracle(g, u, u):
            failures.append((i, "strong diagonal"))
        a1 = Fraction(1, n * n)
        if (enumerate_weak_absorbers(g, u, v, a1)
                != _oracles.weak_absorbers_oracle(g, u, v, a1)):
            failures.append((i, "weak"))
    report(4, "gadget oracle equivalence", failures, "100 graphs, n <= 12")


def test_criterion_5_implication_property():
    failures = []
    # scan semantics tied to the library checkers at n = 4 and 5, on the
    # count of threshold graphs (0 at n = 4, 64 at n = 5) and of failures
    for n in (4, 5):
        lib_ore = lib_bad = 0
        for code in range(3 ** (n * (n - 1) // 2)):
            g = OrientedGraph(n, _exhaustive.graph_arcs_of_code(n, code))
            if check_ore(g).satisfied:
                lib_ore += 1
                lib_bad += not check_semidegree_consequence(g).satisfied
        if (lib_ore, lib_bad) != _exhaustive.implication_counts(n):
            failures.append((f"kernel mismatch at n={n}", lib_ore, lib_bad))

    for n in range(2, 7):
        _, bad = _exhaustive.implication_counts(n)
        if bad:
            failures.append((n, "exhaustive", bad))

    satisfied = 0
    for i in range(500):
        s = derive_seed(0, "implication", i)
        n = 7 + i % 3
        if i % 4 == 3:
            g = near_regular_tournament(n, s)
        else:
            g = random_oriented(n, (0.5, 0.7, 0.9)[i % 3], s)
        if check_ore(g).satisfied:
            satisfied += 1
            if not check_semidegree_consequence(g).satisfied:
                failures.append((i, "sampled counterexample"))
    report(5, "implication property", failures,
           f"exhaustive n<=6 plus 500 samples ({satisfied} non-vacuous)")


def test_criterion_6_absorb_rewrite_contract():
    failures = []
    absorbed = 0
    for i in range(100):
        s = derive_seed(0, "absorb", i)
        n = 18 + (i * 7) % 23
        g = random_min_semidegree(n, -(-3 * n // 8), s)
        P = build_absorbing_path(g, seed=s)
        P.validate(g)
        outside = [v for v in range(n) if v not in P.vertex_set()]
        want = 1 + i % 6

        # grow U only while a perfect gadget matching survives
        free = range(len(P.strong))
        match = {}

        def augment(v, visited):
            for j in free:
                if j in visited or not P.strong[j].serves(g, v, v):
                    continue
                visited.add(j)
                if j not in match or augment(match[j], visited):
                    match[j] = v
                    return True
            return False

        chosen = []
        for v in outside:
            if augment(v, set()):
                chosen.append(v)
            if len(chosen) == want:
                break

        P2 = absorb_vertices(g, P, chosen)
        absorbed += len(chosen)
        if P2.vertex_set() != P.vertex_set() | set(chosen):
            failures.append((i, "vertex set"))
        if P.path and (P2.start, P2.end) != (P.start, P.end):
            failures.append((i, "endpoints"))
        try:
            if P2.path:
                DiPath(P2.path).validate(g)
        except Exception as exc:
            failures.append((i, f"arc validity: {exc}"))
    report(6, "absorb rewrite contract", failures,
           f"100 runs, {absorbed} vertices absorbed")


def test_criterion_7_pipeline_success_rate():
    t0 = time.monotonic()
    failures = []
    found = 0
    for i in range(100):
        n = 24 + (i * 13) % 41
        g = random_min_semidegree(n, -(-3 * n // 8), 1000 + i)
        r = find_hamilton_absorption(g, seed=i)
        if r.found:
            found += 1
            if not verify_hamilton_cycle(g, r.certificate.vertices):
                failures.append((i, "bad certificate"))
        else:
            if len([s for s in r.trace if not s.ok]) != 1:
                failures.append((i, "non-single failure trace"))
    if found < 90:
        failures.append(("success rate", found))
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    report(7, "pipeline success target", failures,
           f"{found}/100 found, {elapsed:.1f}s")


def test_criterion_8_partition_scorer():
    failures = []
    count = 0
    for n in range(8, 17):
        for a in feasible_a_values(n):
            g, part = generate_extremal(table_params(n, a))
            count += 1
            try:
                if not verify_partition(g, part, Fraction(1, 20), 1).verdict:
                    failures.append((n, a, "own partition rejected"))
                swapped = Partition4(part.C, part.B, part.A, part.D)
                if verify_partition(g, swapped, Fraction(1, 20), 1).verdict:
                    failures.append((n, a, "swap accepted"))
            except Exception as exc:
                failures.append((n, a, f"exception: {exc}"))
    report(8, "partition scorer", failures, f"{count} instances")


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    failures = []
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps([
        {"kind": "sharpness", "n": 9, "a": 0},
        {"kind": "oracle", "count": 10, "n_min": 4, "n_max": 7},
    ]))
    ts = "2026-08-18T00:00:00+00:00"
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        rc = cli_main(["sweep", "--spec", str(spec), "--seed", "7",
                       "--timestamp", ts, "--out", str(out)])
        capsys.readouterr()
        if rc != 0:
            failures.append((name, rc))
        outs.append(out.read_bytes())
    if outs[0] != outs[1]:
        failures.append(("outputs differ",))
    report(9, "sweep determinism", failures, "byte-identical reruns")
