import hashlib
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    ExtremalParams,
    InfeasibleParamsError,
    OrientedGraph,
    PartitionNotCoveringError,
    Partition4,
    SIZE_ROUNDING_ALLOWANCE,
    bipartite_tournament,
    emit_edge_list,
    feasible_a_values,
    find_extremal_partition,
    find_sharp_pair,
    generate_extremal,
    near_regular_tournament,
    random_oriented,
    sharp_bound,
    table_params,
    verify_partition,
)
from oriham import extremal
from oriham.conditions import check_ore
from oriham.seeds import derive_seed

import _oracles


def test_sharp_bound_values():
    assert sharp_bound(7) == 4
    assert sharp_bound(12) == 8
    assert sharp_bound(13) == 8
    assert sharp_bound(14) == 9


def test_size_allowance_constant():
    assert SIZE_ROUNDING_ALLOWANCE == 2


def test_table_params_rows():
    p = table_params(12, 0)
    assert (p.a, p.size_b, p.size_c, p.size_d) == (0, 4, 5, 3)
    assert p.bound == 8
    assert p.sizes == (0, 4, 5, 3)
    p = table_params(7, 0)
    assert p.sizes == (0, 3, 2, 2)
    assert p.bound == 4
    p = table_params(13, 2)
    assert p.sizes == (2, 4, 4, 3)
    assert p.bound == 8


@given(st.integers(7, 60))
def test_table_params_consistent(n):
    for a in feasible_a_values(n):
        p = table_params(n, a)
        assert sum(p.sizes) == n
        assert p.bound == sharp_bound(n)
        assert -(-a // 2) <= p.size_d


def test_table_params_errors():
    with pytest.raises(InfeasibleParamsError):
        table_params(6, 0)
    with pytest.raises(InfeasibleParamsError):
        table_params(7, 2)
    with pytest.raises(InfeasibleParamsError):
        table_params(12, -1)
    with pytest.raises(InfeasibleParamsError):
        table_params(12, 0, ac_extra=-1)
    with pytest.raises(InfeasibleParamsError):
        table_params(12, 0, d_extra=-2)


def test_feasible_a_values():
    assert feasible_a_values(7) == [0, 1]
    for n in range(7, 40):
        vals = feasible_a_values(n)
        assert vals == list(range(len(vals)))
        for a in vals:
            p = table_params(n, a)
            assert a <= p.size_c and -(-a // 2) <= p.size_d
        with pytest.raises(InfeasibleParamsError):
            table_params(n, vals[-1] + 1)


# -- tournaments -----------------------------------------------------------------


def test_near_regular_small():
    assert near_regular_tournament(0).n == 0
    assert near_regular_tournament(1).arc_count == 0
    g = near_regular_tournament(5)
    assert all(g.degrees(v) == (2, 2) for v in range(5))


def test_near_regular_even():
    g = near_regular_tournament(4)
    assert g.arcs() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)]
    assert sorted(g.out_degree(v) for v in range(4)) == [1, 1, 2, 2]


@given(st.integers(0, 11))
def test_near_regular_is_balanced_tournament(m):
    g = near_regular_tournament(m)
    assert g.arc_count == m * (m - 1) // 2
    for v in range(m):
        o, i = g.degrees(v)
        assert o + i == m - 1
        assert abs(o - i) <= 1


@pytest.mark.parametrize("seed", [None, 0, 5])
def test_near_regular_matches_oracle(seed):
    for m in [*range(41), 192]:
        g = near_regular_tournament(m, seed)
        want = _oracles.near_regular_oracle(m, seed)
        assert g == want and g._in == want._in and g.arc_count == want.arc_count


def test_near_regular_peak_memory():
    # the circulant is built as one int16 offset matrix, not an arc list
    # (the arc-list build peaked at 314 MiB here)
    tracemalloc.start()
    try:
        g = near_regular_tournament(2048, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.arc_count == 2048 * 2047 // 2
    assert peak < 32 * 2**20


def test_near_regular_relabel_keeps_degrees():
    base = near_regular_tournament(7)
    shuf = near_regular_tournament(7, seed=5)
    assert base.arc_count == shuf.arc_count
    assert (sorted(base.degrees(v) for v in range(7))
            == sorted(shuf.degrees(v) for v in range(7)))


def test_bipartite_tournament_counts():
    block = bipartite_tournament(3, 2, 1)
    assert block.shape == (3, 2)
    assert block.sum() == 3  # B->D arcs; the other 3 pairs are D->B
    block = bipartite_tournament(4, 3, 1)
    assert block.sum() == 4
    assert (~block).sum() == 8
    block = bipartite_tournament(3, 4, 0)
    assert block.shape == (3, 4)
    assert not block.any()


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 9))
def test_bipartite_tournament_regular_rows(b, d, out, seed):
    if out > d:
        with pytest.raises(InfeasibleParamsError):
            bipartite_tournament(b, d, out, seed=seed)
        return
    block = bipartite_tournament(b, d, out, seed=seed)
    # one boolean per (B, D) pair orients every pair exactly once
    assert block.shape == (b, d) and block.dtype == bool
    assert block.sum() == b * out
    assert (~block).sum() == b * (d - out)
    assert block.sum(axis=1).tolist() == [out] * b


# -- generation ------------------------------------------------------------------


# sha256 of the concatenated emit_edge_list texts of generate_extremal over
# every feasible a, with extra arcs, for one n of each residue mod 4, and of
# one certify-cli benchmark graph (n = 192)
PINNED_EXTREMAL = {
    16: "4baeebd989a737e6f250c287693b065817af684e4314ede1a45bbf58c97c55ce",
    17: "7e19977d543eb3169a2540648b4814fdacfd0fab306de711a5dc9bb1176f8cf1",
    18: "60df74afe0203a24d353bf7b49e58c8b9f4c0efec36a0ec164551f77be68ddfb",
    19: "af4c520a55b38b82bb268ab8f88341217cec739c785f776451b62be1ca261f1b",
    192: "5c2c669938ceee647eb3cebc2f16571a9c4219000e947aefaf0f4b8e4105734d",
}


@pytest.mark.parametrize("n", sorted(PINNED_EXTREMAL))
def test_generate_extremal_pinned(n):
    if n == 192:
        params = [table_params(192, 24, ac_extra=48, d_extra=24,
                               seed=derive_seed(1, "certify", 0))]
    else:
        params = [table_params(n, a, ac_extra=a + 1, d_extra=n // 5, seed=a)
                  for a in feasible_a_values(n)]
    digest = hashlib.sha256()
    for p in params:
        digest.update(emit_edge_list(generate_extremal(p)[0]).encode())
    assert digest.hexdigest() == PINNED_EXTREMAL[n]



def test_generate_structure_n7():
    g, part = generate_extremal(table_params(7, 0))
    assert g.n == 7
    assert part.sizes() == {"A": 0, "B": 3, "C": 2, "D": 2}
    for b in part.B:
        assert g.out_degree(b) == 2
        assert all(g.has_arc(b, c) for c in part.C)
    for c in part.C:
        assert all(g.has_arc(c, d) for d in part.D)
    for d in part.D:
        assert all(g.has_arc(d, b) for b in part.B)


def test_generate_blocks_are_id_ordered():
    g, part = generate_extremal(table_params(13, 2))
    assert sorted(part.A) == [0, 1]
    assert sorted(part.B) == [2, 3, 4, 5]
    assert sorted(part.C) == [6, 7, 8, 9]
    assert sorted(part.D) == [10, 11, 12]
    for a in part.A:
        assert all(g.has_arc(a, b) for b in part.B)
        assert all(g.has_arc(d, a) for d in part.D)


def test_generate_b_to_d_split():
    for n, a in ((9, 1), (13, 2), (16, 3)):
        g, part = generate_extremal(table_params(n, a))
        want = -(-a // 2)
        for b in part.B:
            assert g.count_arcs_between({b}, part.D) == want


def test_generate_extra_arcs():
    p = table_params(12, 2, ac_extra=5, d_extra=1)
    g, part = generate_extremal(p)
    assert g.count_arcs_between(part.A, part.C) == 5
    assert g.count_arcs_within(part.D) == 1


def test_generate_extra_arcs_capped_by_room():
    # only |A| * |C| slots exist; requests beyond that saturate
    p = table_params(12, 1, ac_extra=99, d_extra=99)
    g, part = generate_extremal(p)
    assert g.count_arcs_between(part.A, part.C) == len(part.A) * len(part.C)
    assert g.count_arcs_within(part.D) == 3  # 3 = C(3,2) tournament on D


def test_generate_seed_changes_tournament_not_sizes():
    g0, p0 = generate_extremal(table_params(13, 1, seed=0))
    g1, p1 = generate_extremal(table_params(13, 1, seed=9))
    assert p0.sizes() == p1.sizes() == {"A": 1, "B": 4, "C": 5, "D": 3}
    assert g0.arc_count == g1.arc_count


def test_sharp_pair_n12():
    g, part = generate_extremal(table_params(12, 0))
    pair = find_sharp_pair(g, 8)
    assert pair is not None
    x, y = pair
    assert not g.has_arc(x, y)
    assert g.out_degree(x) + g.in_degree(y) == 8
    assert x in part.B and y in part.B


def test_sharp_pair_n13():
    g, part = generate_extremal(table_params(13, 0))
    pair = find_sharp_pair(g, 8)
    assert pair is not None
    x, y = pair
    assert g.out_degree(x) + g.in_degree(y) == 8
    assert not g.has_arc(x, y)


def test_sharp_pair_is_first_match():
    graphs = [random_oriented(8, 0.6, derive_seed(0, "sharp", i)) for i in range(6)]
    graphs += [generate_extremal(table_params(n, a))[0] for n, a in ((12, 0), (13, 2))]
    for g in graphs:
        for bound in range(2 * g.n):
            first = next(((x, y) for x in range(g.n) for y in range(g.n)
                          if x != y and not g.has_arc(x, y)
                          and g.out_degree(x) + g.in_degree(y) == bound), None)
            assert find_sharp_pair(g, bound) == first


def test_sharp_pair_absent_when_bound_too_low():
    g, _ = generate_extremal(table_params(12, 0))
    assert find_sharp_pair(g, 0) is None


# -- scoring ---------------------------------------------------------------------


def test_verify_clean_extremal():
    g, part = generate_extremal(table_params(12, 0))
    rep = verify_partition(g, part, Fraction(1, 100))
    assert rep.verdict
    assert rep.slacks["e_AC"] == Fraction(36, 25)
    assert rep.slacks["e_D"] == Fraction(36, 25)
    assert rep.min_slack() == Fraction(28, 25)
    assert set(rep.slacks) == {
        "size_AC", "size_B", "size_D",
        "e_AB", "e_BC", "e_CD", "e_DA", "e_BD", "e_DB",
        "e_A", "e_C", "e_AC", "e_D",
    }


def test_verify_swapped_labels_fail():
    g, part = generate_extremal(table_params(12, 0))
    swapped = Partition4(part.C, part.B, part.A, part.D)
    rep = verify_partition(g, swapped, Fraction(1, 100))
    assert not rep.verdict
    assert rep.slacks["e_AB"] == Fraction(-464, 25)


def test_verify_requires_cover():
    g, _ = generate_extremal(table_params(12, 0))
    bad = Partition4.of([0], [1], [2], [3])
    with pytest.raises(PartitionNotCoveringError):
        verify_partition(g, bad, Fraction(1, 100))


def test_negative_tolerance_is_rejected():
    g, part = generate_extremal(table_params(12, 0))
    for eta, c_eta, name in ((Fraction(-1, 20), Fraction(1), "eta"),
                             (Fraction(1, 20), Fraction(-1), "c_eta")):
        with pytest.raises(ValueError, match=f"^{name} must not be negative"):
            verify_partition(g, part, eta, c_eta)
    with pytest.raises(ValueError, match="^eta must not be negative"):
        find_extremal_partition(g, Fraction(-1, 20))
    assert verify_partition(g, part, Fraction(0)).verdict
    assert find_extremal_partition(g, Fraction(0))[1].verdict


def test_report_serializes():
    g, part = generate_extremal(table_params(12, 0))
    d = verify_partition(g, part, Fraction(1, 100)).to_json_dict()
    assert d["verdict"] is True
    assert d["eta"] == {"num": 1, "den": 100}
    assert d["slacks"]["e_AC"] == {"num": 36, "den": 25}


def test_slacks_monotone_in_eta():
    g, part = generate_extremal(table_params(12, 2, ac_extra=5, d_extra=3))
    lo = verify_partition(g, part, Fraction(1, 100)).slacks
    hi = verify_partition(g, part, Fraction(5, 100)).slacks
    for key in lo:
        assert hi[key] >= lo[key]


def test_find_partition_recovers_extremal():
    g, _ = generate_extremal(table_params(12, 0))
    found = find_extremal_partition(g, Fraction(1, 20))
    assert found is not None
    part, rep = found
    assert rep.verdict
    assert verify_partition(g, part, Fraction(1, 20)).verdict


def test_find_partition_rejects_plain_cycle():
    g = OrientedGraph(12, [(i, (i + 1) % 12) for i in range(12)])
    found = find_extremal_partition(g, Fraction(1, 100))
    assert found is None or not found[1].verdict


def test_find_partition_rejects_random_tournament():
    g = random_oriented(12, 1.0, 3)
    found = find_extremal_partition(g, Fraction(1, 100))
    assert found is None or not found[1].verdict


def test_find_partition_tiny_graph():
    assert find_extremal_partition(OrientedGraph(3), Fraction(1, 10)) is None


SEARCH_ETAS = (Fraction(1, 100), Fraction(1, 20), Fraction(1, 3))
SEARCH_C_ETAS = (Fraction(0), Fraction(3, 7), Fraction(1))


def _certify_graph():
    return generate_extremal(table_params(192, 24, ac_extra=48, d_extra=24))[0]


def _double_move_case():
    """(graph, eta, c_eta, seed) on which the search moves vertex 2 twice
    in one visit, C -> B, then B -> D, and would end elsewhere had it gone
    on to vertex 3 after the first move; found by scanning seeded random
    graphs with the oracle."""
    return random_oriented(14, 0.4, 4), Fraction(1, 20), Fraction(1), 4


def _search_cases():
    """(graph, eta, c_eta, seed): the certify-size graph, random graphs
    n = 4..40, the double-move case and four-block graphs with extra arcs,
    cycling through every (eta, c_eta) pair.  Most random graphs exhaust
    every restart."""
    combos = [(eta, c) for eta in SEARCH_ETAS for c in SEARCH_C_ETAS]
    yield _certify_graph(), Fraction(1, 20), Fraction(1), 0
    yield _double_move_case()
    for i, n in enumerate(range(4, 41, 3)):
        eta, c = combos[i % len(combos)]
        yield random_oriented(n, 0.3 + (n % 5) / 10, n), eta, c, n
    for i, (n, a) in enumerate([(7, 1), (12, 2), (16, 1), (17, 3), (23, 4),
                                (26, 2), (33, 5), (40, 6), (33, 0)]):
        g, _ = generate_extremal(table_params(n, a, ac_extra=n // 4,
                                              d_extra=n // 6, seed=i))
        yield (g, *combos[i], i)


def _counting(monkeypatch, name):
    calls = []
    real = getattr(extremal, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(extremal, name, counted)
    return calls


def test_partition_search_matches_oracle(monkeypatch):
    restarts = []
    calls = _counting(monkeypatch, "_exact_report")  # one report per restart
    for g, eta, c_eta, seed in _search_cases():
        calls.clear()
        # the search reads c_eta only through the product c_eta * eta
        found = find_extremal_partition(g, eta * c_eta, seed=seed)
        restarts.append(len(calls))
        expected = _oracles.partition_search_oracle(g, eta * c_eta, seed=seed)
        assert found is not None and expected is not None
        assert found[0] == expected[0], (g.n, eta, c_eta)
        assert found[1].to_json_dict() == expected[1].to_json_dict()
    assert extremal.PARTITION_RESTARTS == 6
    assert extremal.PARTITION_MOVE_BUDGET == 400
    assert extremal.PARTITION_RESTARTS in restarts  # no restart accepted
    assert min(restarts) == 1                       # the first start accepted


def test_partition_search_rechecks_the_moved_vertex():
    """After a move, v's later destinations are tried from its new class
    before the search goes on to v + 1."""
    g, eta, c_eta, seed = _double_move_case()
    moves = []
    expected = _oracles.partition_search_oracle(g, eta * c_eta, seed=seed, moves=moves)
    # (restart, pass, v) repeats: one visit moved v twice
    assert any(a[:3] == b[:3] for a, b in zip(moves, moves[1:]))
    found = find_extremal_partition(g, eta * c_eta, seed=seed)
    assert found[0] == expected[0]
    assert found[1].to_json_dict() == expected[1].to_json_dict()


# a float eta has a 2^55-order denominator, and the others' exact scaled
# slacks overflow int64 outright: the search ranks moves at these by its int64
# surrogate, and the reports hold Python ints
EXACT_ETAS = (Fraction(0.05), Fraction(1, 10**30), Fraction(7, 3**40))


@pytest.mark.parametrize("eta", EXACT_ETAS, ids=["float", "1e-30", "7/3^40"])
@pytest.mark.parametrize("graph", ["certify", "random23"])
def test_partition_scoring_is_exact_at_large_denominators(graph, eta):
    g = _certify_graph() if graph == "certify" else random_oriented(23, 0.5, 23)
    found = find_extremal_partition(g, eta, seed=3)
    expected = _oracles.partition_search_oracle(g, eta, seed=3)
    assert found[0] == expected[0]
    assert found[1].to_json_dict() == expected[1].to_json_dict()
    assert found[1].slacks == _oracles.slacks_oracle(g, found[0], eta, Fraction(1))
    labels = [v % 4 for v in range(g.n)]
    part = Partition4.of(*([v for v in range(g.n) if labels[v] == k] for k in range(4)))
    assert (verify_partition(g, part, eta, Fraction(3, 7)).slacks
            == _oracles.slacks_oracle(g, part, eta, Fraction(3, 7)))


def test_partition_slacks_match_oracle():
    rng = random.Random(11)
    empty_classes = 0
    for t in range(300):
        n = t % 9 if t < 27 else rng.randint(0, 24)
        g = random_oriented(n, rng.random(), t)
        labels = [rng.randrange(rng.randint(1, 4)) for _ in range(n)]
        part = Partition4.of(*([v for v in range(n) if labels[v] == k]
                               for k in range(4)))
        empty_classes += any(not xs for xs in part.classes().values())
        eta = Fraction(rng.randint(0, 12), rng.randint(1, 40))
        c_eta = SEARCH_C_ETAS[t % 3]
        got = verify_partition(g, part, eta, c_eta).slacks
        want = _oracles.slacks_oracle(g, part, eta, c_eta)
        assert list(got.items()) == list(want.items())
    assert empty_classes > 100


def test_partition_search_work_bound(monkeypatch):
    """Moves are scored from the arc-count matrix: the exact slacks are
    evaluated only for the one report per restart, from the sizes and E the
    search holds, and the arcs are counted at most once per search."""
    reports = _counting(monkeypatch, "_exact_report")
    recounts = _counting(monkeypatch, "_arc_counts")
    found = find_extremal_partition(_certify_graph(), Fraction(1, 20))
    assert found is not None and found[1].verdict
    assert len(reports) == 1 and len(recounts) <= 1
    for g, eta, c_eta, seed in list(_search_cases())[2:10]:
        reports.clear()
        recounts.clear()
        assert find_extremal_partition(g, eta * c_eta, seed=seed) is not None
        assert 1 <= len(reports) <= extremal.PARTITION_RESTARTS
        assert len(recounts) <= 1


@pytest.mark.parametrize("eta", [*EXACT_ETAS, Fraction(10**30)],
                         ids=["float", "1e-30", "7/3^40", "1e30"])
def test_partition_search_scores_in_int64(monkeypatch, eta):
    """Every move is ranked in int64, whatever eta's size; only the
    per-restart reports hold Python ints."""
    real = extremal._scaled_slacks
    dtypes = set()

    def typed(*args):
        out = real(*args)
        if isinstance(args[2], np.ndarray):
            dtypes.update(np.asarray(x).dtype for x in out)
        else:
            assert all(type(x) is int for x in out)
        return out

    monkeypatch.setattr(extremal, "_scaled_slacks", typed)
    assert find_extremal_partition(_certify_graph(), eta, seed=3) is not None
    assert dtypes == {np.dtype(np.int64)}


@pytest.mark.parametrize("graph, eta, seed", [
    ("certify", Fraction(10**30), 3),
    ((23, 0.5, 23), Fraction(10**30), 3),
    ((9, 0.5, 902), Fraction(1, 20), 2),
    ((64, 0.5, 65), Fraction(1), 1),
], ids=["certify-1e30", "random23-1e30", "random9-1/20", "random64-1"])
def test_partition_search_surrogate_matches_oracle(graph, eta, seed):
    """The surrogate's offset delta on the edge slacks, against the oracle:
    clamped at eta = 10^30; odd where Delta = 8 eta n(n-1) is not an integer
    (144/5 at n = 9, where delta = 2*floor(Delta) changes the partition);
    and 64512 at n = 64, eta = 1, where a clamp at 2^12 would."""
    g = _certify_graph() if graph == "certify" else random_oriented(*graph)
    found = find_extremal_partition(g, eta, seed=seed)
    expected = _oracles.partition_search_oracle(g, eta, seed=seed)
    assert found[0] == expected[0]
    assert found[1].to_json_dict() == expected[1].to_json_dict()


def test_partition_search_peak_memory():
    # the search keeps n x 4 neighbour counts and no n x n array (an n x n
    # float64 copy alone would be 32 MiB here)
    g, _ = generate_extremal(table_params(2048, 256, ac_extra=512, d_extra=256, seed=1))
    tracemalloc.start()
    try:
        found = find_extremal_partition(g, Fraction(1, 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is not None and found[1].verdict
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n, minima", [(16, [11, 8, 9, 10]),
                                        (17, [11, 8, 9, 10]),
                                        (24, [17, 12, 13, 14])])
def test_construction_ore_minimum(n, minima):
    """The witness pair sums to sharp_bound(n) for every a, but that is the
    minimum pair sum only at a = 0; for a >= 1 the minimum is lower."""
    for a, minimum in enumerate(minima):
        g, _ = generate_extremal(table_params(n, a))
        rep = check_ore(g)
        assert rep.margin + Fraction(3 * n - 3, 4) == minimum
        assert find_sharp_pair(g, sharp_bound(n)) is not None
    assert minima[0] == sharp_bound(n)


def test_params_frozen():
    p = table_params(12, 0)
    assert isinstance(p, ExtremalParams)
    with pytest.raises(Exception):
        p.a = 3
