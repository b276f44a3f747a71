import random
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    AbsorbingPath,
    CapacityExhaustedError,
    NoConnectorAvailableError,
    OrientedGraph,
    OutOfRangeError,
    SelfLoopError,
    StitchFailureError,
    StrongGadget,
    TwoCycleError,
    VertexNotAbsorbableError,
    WeakGadget,
    absorb_vertices,
    build_absorbing_path,
    build_reservoir,
    connect_through_reservoir,
    connectivity_profile,
    count_strong_absorbers,
    default_reservoir_size,
    default_strong_target,
    enumerate_connectors,
    enumerate_strong_absorbers,
    enumerate_weak_absorbers,
    generate_extremal,
    random_min_semidegree,
    random_oriented,
    select_disjoint_family,
    table_params,
)
from oriham import absorption
from oriham.absorption import Reservoir
from oriham.graph import iter_bits, mask_of
from oriham.seeds import derive_seed, rng_for

import _oracles


def cycle_graph(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


C3 = cycle_graph(3)
FAN = OrientedGraph(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)])
CHAIN = OrientedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


# -- connectors ------------------------------------------------------------------


def test_connectors_fan():
    assert enumerate_connectors(FAN, 0, 4, 1) == [(1,), (2,), (3,)]
    assert enumerate_connectors(FAN, 0, 4, 1, cap=2) == [(1,), (2,)]
    assert enumerate_connectors(FAN, 0, 4, 2) == []


def test_connectors_chain():
    assert enumerate_connectors(CHAIN, 0, 2, 1) == [(1,)]
    assert enumerate_connectors(CHAIN, 0, 3, 2) == [(1, 2)]
    assert enumerate_connectors(CHAIN, 0, 4, 3) == [(1, 2, 3)]
    assert enumerate_connectors(CHAIN, 4, 0, 1) == []


def test_connector_arity_checked():
    with pytest.raises(ValueError):
        enumerate_connectors(C3, 0, 1, 0)
    with pytest.raises(ValueError):
        enumerate_connectors(C3, 0, 1, 4)


def test_connectors_extremal_pair():
    g, part = generate_extremal(table_params(7, 0))
    b0, b1 = sorted(part.B)[:2]
    for k, want in ((1, 0), (2, 4), (3, 2)):
        got = enumerate_connectors(g, b0, b1, k)
        assert len(got) == want
        assert got == _oracles.connectors_oracle(g, b0, b1, k)


@given(st.integers(0, 40))
def test_connectors_match_oracle(seed):
    g = random_oriented(7, 0.5, seed)
    rng = rng_for(seed, "pair")
    u, v = rng.sample(range(7), 2)
    for k in (1, 2, 3):
        got = enumerate_connectors(g, u, v, k)
        assert got == _oracles.connectors_oracle(g, u, v, k)
        for tup in got:
            seq = (u,) + tup + (v,)
            assert all(g.has_arc(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def _scan_graphs():
    for n in range(6, 41):
        yield random_oriented(n, (0.3, 0.5, 0.75)[n % 3], derive_seed(0, "scan", n))


def test_connector_caps_cut_the_uncapped_list():
    # the flattened blocks stop at the cap wherever it falls in a block
    for g in _scan_graphs():
        rng = rng_for(g.n, "caps")
        u, v = rng.sample(range(g.n), 2)
        for k in (1, 2, 3):
            full = enumerate_connectors(g, u, v, k)
            if g.n <= 8:
                assert full == _oracles.connectors_oracle(g, u, v, k)
            for cap in range(1, len(full) + 2):
                assert enumerate_connectors(g, u, v, k, cap=cap) == full[:cap]


def test_reservoir_scan_matches_filtered_prefix(dense192):
    # the block scan keeps what the flat rule keeps: the first 8 of the
    # first 64 connectors that avoid bad
    cases = [(g, rng_for(g.n, "scan")) for g in _scan_graphs()]
    cases.append((dense192, rng_for(192, "scan")))
    cut_in_block = short = 0
    for g, rng in cases:
        for _ in range(4):
            u, v = rng.sample(range(g.n), 2)
            bads = [mask_of(rng.sample(range(g.n), rng.randint(0, g.n // 2)))]
            for k in (1, 2, 3):
                first = enumerate_connectors(g, u, v, k, cap=64 + g.n)
                if len(first) > 64 and first[63][:-1] == first[64][:-1]:
                    # the scan cuts inside the block of the 64th connector;
                    # with only that connector and the block's tail allowed,
                    # the 64th must be kept and every later one dropped
                    cut_in_block += 1
                    tail = [t[-1] for t in first[64:] if t[:-1] == first[63][:-1]]
                    bads.append(g.full_mask() & ~mask_of((*first[63], *tail)))
                for bad in bads:
                    want = _oracles.reservoir_options_reference(g, u, v, k, bad)
                    assert absorption._reservoir_options(g, u, v, k, bad) == want
                    short += len(want) < 8
    assert cut_in_block and short


def test_profile_matches_oracle():
    for i in range(12):
        n = 6 + i % 3
        g = random_oriented(n, (0.25, 0.4)[i % 2], derive_seed(0, "profile", i))
        best, dead = {}, []
        for u in range(n):
            for v in range(n):
                if u == v or g.has_arc(u, v):
                    continue
                for k in (1, 2, 3):
                    found = _oracles.connectors_oracle(g, u, v, k)
                    if found:
                        best[(u, v)] = (k, len(found))
                        break
                else:
                    dead.append((u, v))
        prof = connectivity_profile(g)
        assert prof.best == best
        assert prof.unconnectable == tuple(dead)


def test_profile_row_blocks(monkeypatch):
    """Row blocks of any height give the profile of the whole matrix."""
    graphs = [random_oriented(9, 0.25, derive_seed(1, "blocks", i)) for i in range(6)]
    whole = [connectivity_profile(g) for g in graphs]
    assert {k for prof in whole for k, _ in prof.best.values()} == {1, 2, 3}
    for entries in (1, 20):
        monkeypatch.setattr(absorption, "_PROFILE_BLOCK", entries)
        assert [connectivity_profile(g) for g in graphs] == whole


def test_profile_counts_walks_across_words():
    """Beyond 64 vertices each bitset row spans several packed words; each
    pair's k is the first walk length u -> .. -> v that occurs, and its
    count the number of such walks, summed here over bitsets."""
    g = random_oriented(100, 0.05, derive_seed(2, "words", 0))
    prof = connectivity_profile(g)
    assert {k for k, _ in prof.best.values()} == {1, 2, 3}
    dead = []
    for u in range(g.n):
        layers = [[g.out_bits(u)]]  # out-sets of the walks' last vertex
        for _ in range(2):
            layers.append([g.out_bits(w) for m in layers[-1] for w in iter_bits(m)])
        for v in iter_bits(g.non_out_bits(u)):
            walks = [sum((m & g.in_bits(v)).bit_count() for m in layer)
                     for layer in layers]
            k = next((k for k, count in enumerate(walks, 1) if count), None)
            assert prof.best.get((u, v)) == (None if k is None else (k, walks[k - 1]))
            if k is None:
                dead.append((u, v))
    assert prof.unconnectable == tuple(dead)


def test_profile_cycle3():
    prof = connectivity_profile(C3)
    assert prof.unconnectable == ()
    assert prof.best[(1, 0)] == (1, 1)
    assert prof.best[(0, 2)] == (1, 1)
    assert prof.best[(2, 1)] == (1, 1)
    assert len(prof.best) == 3


def test_profile_disconnected():
    two = OrientedGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    prof = connectivity_profile(two)
    assert len(prof.unconnectable) == 18


def test_profile_extremal_connected():
    g, _ = generate_extremal(table_params(12, 0))
    assert connectivity_profile(g).unconnectable == ()


# -- absorbers -------------------------------------------------------------------


STRONG3 = OrientedGraph(3, [(1, 2), (1, 0), (0, 2)])


def test_strong_absorbers_planted():
    assert enumerate_strong_absorbers(STRONG3, 0, 0) == [(1, 2)]
    assert count_strong_absorbers(STRONG3, 0, 0) == 1
    assert enumerate_strong_absorbers(OrientedGraph(4), 0, 1) == []


def test_strong_absorbers_pair():
    g = OrientedGraph(5, [(3, 4), (3, 0), (1, 4)])
    assert enumerate_strong_absorbers(g, 0, 1) == [(3, 4)]
    assert enumerate_strong_absorbers(g, 1, 0) == []


def test_strong_absorbers_cap():
    g, part = generate_extremal(table_params(12, 0))
    d = sorted(part.D)[0]
    full = enumerate_strong_absorbers(g, d, d)
    assert full == _oracles.strong_absorbers_oracle(g, d, d)
    capped = enumerate_strong_absorbers(g, d, d, cap=3)
    assert capped == full[:3]


@given(st.integers(0, 30))
def test_strong_absorbers_match_oracle(seed):
    g = random_oriented(8, 0.5, seed)
    rng = rng_for(seed, "pair")
    u, v = rng.sample(range(8), 2)
    for a, b in ((u, v), (u, u)):
        want = _oracles.strong_absorbers_oracle(g, a, b)
        assert enumerate_strong_absorbers(g, a, b) == want
        assert count_strong_absorbers(g, a, b) == len(want)


@pytest.mark.parametrize("bad", [-1, 5])
def test_strong_absorbers_reject_out_of_range(bad):
    # _out[-1] would silently read the last vertex's row
    g = random_oriented(5, 0.6, 0)
    for u, v in ((bad, 0), (0, bad), (bad, bad)):
        with pytest.raises(OutOfRangeError):
            count_strong_absorbers(g, u, v)
        with pytest.raises(OutOfRangeError):
            enumerate_strong_absorbers(g, u, v)


def strongly_absorbable(g, u, v, alpha1):
    """The rule ``build_absorbing_path`` classifies with: a count stopped
    at ceil(alpha1 * n^2) reaches it."""
    need = absorption._strong_need(g.n, alpha1)
    return absorption._strong_count(g._out, g._in, u, v, need) >= need


def test_strongly_absorbable_threshold():
    assert count_strong_absorbers(STRONG3, 0, 0) == 1
    assert strongly_absorbable(STRONG3, 0, 0, Fraction(1, 9))
    assert not strongly_absorbable(STRONG3, 0, 0, Fraction(1, 8))


def test_negative_alpha1_is_rejected():
    with pytest.raises(ValueError, match="alpha1 must not be negative"):
        strongly_absorbable(STRONG3, 0, 0, Fraction(-1))
    with pytest.raises(ValueError, match="alpha1 must not be negative"):
        enumerate_weak_absorbers(WEAK6, 0, 1, Fraction(-1, 100))


def test_strongly_absorbable_early_exit_keeps_verdicts():
    # the count stops at ceil(alpha1 * n^2); the verdict must be the full
    # count's, on every ordered pair
    alphas = (Fraction(0), absorption.ALPHA1, Fraction(1, 64), Fraction(1, 8),
              Fraction(1, 3))
    for n in range(41):
        g = random_oriented(n, (0.2, 0.5, 0.8)[n % 3], n)
        counts = {(u, v): count_strong_absorbers(g, u, v)
                  for u in range(n) for v in range(n)}
        for alpha1 in alphas:
            threshold = alpha1 * n * n
            assert all(strongly_absorbable(g, u, v, alpha1) == (c >= threshold)
                       for (u, v), c in counts.items())


WEAK6 = OrientedGraph(6, [(2, 3), (2, 0), (4, 5), (1, 5), (1, 3)])


def test_weak_absorbers_planted():
    got = enumerate_weak_absorbers(WEAK6, 0, 1, Fraction(1, 100))
    assert got == [(2, 3, 4, 5)]
    assert got == _oracles.weak_absorbers_oracle(WEAK6, 0, 1, Fraction(1, 100))


def test_weak_absorbers_need_exit_arc():
    g = OrientedGraph(6, [(2, 3), (2, 0), (1, 5), (1, 3)])
    assert enumerate_weak_absorbers(g, 0, 1, Fraction(1, 100)) == []


def _weak(g, u, v, alpha1, cap=None, budget=absorption.WEAK_BUDGET):
    """``enumerate_weak_absorbers`` with WEAK_BUDGET set to ``budget``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(absorption, "WEAK_BUDGET", budget)
        return enumerate_weak_absorbers(g, u, v, alpha1, cap)


def test_weak_absorbers_cap_and_budget():
    full = _weak(WEAK6, 0, 1, Fraction(1, 100), budget=10**9)
    assert enumerate_weak_absorbers(WEAK6, 0, 1, Fraction(1, 100), cap=1) == full[:1]
    small = _weak(WEAK6, 0, 1, Fraction(1, 100), budget=1)
    assert set(small) <= set(full)


@pytest.mark.parametrize("cap", [0, -3])
def test_enumerators_reject_cap_below_one(cap):
    with pytest.raises(ValueError, match="cap"):
        enumerate_connectors(FAN, 0, 4, 1, cap=cap)
    with pytest.raises(ValueError, match="cap"):
        enumerate_strong_absorbers(WEAK6, 2, 2, cap=cap)
    with pytest.raises(ValueError, match="cap"):
        enumerate_weak_absorbers(WEAK6, 0, 1, Fraction(1, 100), cap=cap)


@given(st.integers(0, 12))
def test_weak_absorbers_match_oracle(seed):
    g = random_oriented(7, 0.5, seed)
    rng = rng_for(seed, "pair")
    u, v = rng.sample(range(7), 2)
    a1 = Fraction(1, 49)
    assert (_weak(g, u, v, a1, budget=10**9)
            == _oracles.weak_absorbers_oracle(g, u, v, a1))


@pytest.mark.parametrize("n", range(4, 25))
def test_weak_absorbers_match_reference(n):
    # the pruned enumeration returns what the probe-by-probe one does,
    # truncation by cap and by budget included
    rng = rng_for(n, "weak-reference")
    cut = 0
    for p in (0.3, 0.5, 0.8):
        g = random_oriented(n, p, n)
        for alpha1 in (absorption.ALPHA1, Fraction(1, 64), Fraction(1, 8)):
            u = rng.randrange(n)
            for v in (u, rng.randrange(n)):
                full = _oracles.weak_absorbers_reference(g, u, v, alpha1, None, 10**9)
                for cap in (None, 12):
                    for budget in (0, 37, 400, absorption.WEAK_BUDGET):
                        got = _weak(g, u, v, alpha1, cap, budget)
                        assert got == _oracles.weak_absorbers_reference(
                            g, u, v, alpha1, cap, budget)
                        cut += cap is None and len(got) < len(full)
    assert cut or n < 9  # from n = 9 on, budgets 37 and 400 cut some lists


# -- families --------------------------------------------------------------------


def test_family_disjoint_candidates_all_kept():
    cand = [[(i,)] for i in range(10)]
    assert select_disjoint_family(cand, 10) == [(i,) for i in range(10)]
    assert select_disjoint_family(cand, 11) == [(i,) for i in range(10)]


def test_family_shared_vertex_collapses():
    star = [[(0,)], [(0,)], [(0,)]]
    assert select_disjoint_family(star, 3) == [(0,)]


def test_family_max_size():
    cand = [[(i,)] for i in range(10)]
    assert select_disjoint_family(cand, 4) == [(0,), (1,), (2,), (3,)]
    for limit in (0, -1):
        with pytest.raises(ValueError, match="limit must be at least 1"):
            select_disjoint_family(cand, limit)


def test_family_order():
    # lists are read in the order given
    cand = [[(1, 2), (3, 4)], [(0, 1), (6, 7)]]
    assert select_disjoint_family(cand, 4) == [(1, 2), (3, 4), (6, 7)]
    assert select_disjoint_family(cand[::-1], 4) == [(0, 1), (3, 4), (6, 7)]
    # each list's first tuple is offered before any list's second, and the
    # family comes back sorted
    cand = [[(4, 5), (2, 3)], [(0, 1), (6, 7)]]
    assert select_disjoint_family(cand, 2) == [(0, 1), (4, 5)]


def test_family_stops_reading_at_limit():
    # a limit reached at rank 0 leaves the later lists unread
    def lists():
        yield [(0,), (5,)]
        yield [(1,)]
        raise RuntimeError("third list read")

    assert select_disjoint_family(lists(), 2) == [(0,), (1,)]


def test_family_members_pairwise_disjoint():
    g, part = generate_extremal(table_params(13, 1))
    pairs = [(b, d) for b in sorted(part.B)[:2] for d in sorted(part.D)[:2]]
    cand = [enumerate_strong_absorbers(g, *pr, cap=20) for pr in pairs]
    fam = select_disjoint_family(cand, g.n)
    assert fam
    used = set()
    for tup in fam:
        assert used.isdisjoint(tup)
        used.update(tup)


# -- reservoir -------------------------------------------------------------------


def test_default_reservoir_size():
    assert default_reservoir_size(6) == 3
    assert default_reservoir_size(40) == 4
    assert default_reservoir_size(100) == 6


def _bridge(g, res, x, y):
    """Join x to y through the reservoir's vertices other than x and y."""
    return connect_through_reservoir(g, Reservoir(res.vertices - {x, y}), x, y)


def test_reservoir_on_six_cycle():
    g = cycle_graph(6)
    res = build_reservoir(g, ())
    assert res.vertices == frozenset({1, 2, 3})
    assert _bridge(g, res, 0, 2).vertices == (0, 1, 2)
    assert _bridge(g, res, 1, 3).vertices == (1, 2, 3)
    assert _bridge(g, res, 2, 4).vertices == (2, 3, 4)
    with pytest.raises(NoConnectorAvailableError):
        _bridge(g, res, 3, 5)
    assert res.unused() == res.vertices


def test_reservoir_transitive_tournament_empty():
    t4 = OrientedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    res = build_reservoir(t4, ())
    assert res.vertices == frozenset()
    for v in range(4):
        for u in range(v):
            with pytest.raises(NoConnectorAvailableError):
                _bridge(t4, res, v, u)


def test_reservoir_prefer_is_hard_restriction():
    g = cycle_graph(6)
    res = build_reservoir(g, (), prefer=frozenset({1, 2}))
    assert res.vertices == frozenset({1, 2})


def test_reservoir_respects_avoid():
    g = cycle_graph(6)
    res = build_reservoir(g, (1, 2, 3))
    assert res.vertices.isdisjoint({1, 2, 3})


LEDGER5 = OrientedGraph(5, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4)])


def test_connect_single_use_ledger():
    res = Reservoir(frozenset({2, 3}))
    p = connect_through_reservoir(LEDGER5, res, 0, 1)
    assert p.vertices == (0, 2, 1)
    assert res.ledger == {2}
    p = connect_through_reservoir(LEDGER5, res, 0, 1)
    assert p.vertices == (0, 3, 1)
    assert res.ledger == {2, 3}
    with pytest.raises(NoConnectorAvailableError) as ei:
        connect_through_reservoir(LEDGER5, res, 0, 1)
    assert ei.value.pair == (0, 1)


def test_connect_direct_arc_free():
    res = Reservoir(frozenset({2, 3}))
    p = connect_through_reservoir(LEDGER5, res, 0, 4)
    assert p.vertices == (0, 4)
    assert res.ledger == set()


def test_connect_drain_mode():
    g = LEDGER5.add_arc(2, 4)
    res = Reservoir(frozenset({2, 3}))
    p = connect_through_reservoir(g, res, 0, 4, prefer_reservoir=True)
    assert p.vertices == (0, 2, 4)
    assert res.ledger == {2}


def test_connect_two_hop():
    g = OrientedGraph(4, [(0, 2), (2, 3), (3, 1)])
    res = Reservoir(frozenset({2, 3}))
    p = connect_through_reservoir(g, res, 0, 1)
    assert p.vertices == (0, 2, 3, 1)
    assert res.ledger == {2, 3}


def test_connect_three_hop():
    g = OrientedGraph(6, [(0, 2), (2, 3), (3, 4), (4, 1)])
    res = Reservoir(frozenset({2, 3, 4}))
    p = connect_through_reservoir(g, res, 0, 1)
    assert p.vertices == (0, 2, 3, 4, 1)


def test_connect_rejects_reservoir_endpoints():
    res = Reservoir(frozenset({2, 3}))
    with pytest.raises(ValueError):
        connect_through_reservoir(LEDGER5, res, 2, 1)


def _first_connector(g, x, y, pool, sizes):
    """Shortest connector inside ``pool``, lexicographically first."""
    for k in sizes:
        inside = [tup for tup in _oracles.connectors_oracle(g, x, y, k)
                  if pool.issuperset(tup)]
        if inside:
            return inside[0]
    return None


def test_connector_choice_rule():
    # the arc wins, else the shortest connector through the pool, and among
    # those the lexicographically first; draining tries a 1-connector first
    sizes_seen, drained = set(), 0
    for i in range(120):
        rng = rng_for(i, "choice")
        n = 6 + i % 4
        g = random_oriented(n, (0.45, 0.6, 0.75)[i % 3], derive_seed(0, "choice", i))
        x, y = rng.sample(range(n), 2)
        others = [v for v in range(n) if v not in (x, y)]
        pool = frozenset(rng.sample(others, rng.randint(len(others) // 2, len(others))))
        want = () if g.has_arc(x, y) else _first_connector(g, x, y, pool, (1, 2, 3))
        sizes_seen.add(None if want is None else len(want))
        assert absorption._connector_within(g, x, y, mask_of(pool)) == want
        for drain in (False, True):
            pick = (_first_connector(g, x, y, pool, (1,)) if drain else None) or want
            drained += drain and pick != want
            res = Reservoir(pool)
            if pick is None:
                with pytest.raises(NoConnectorAvailableError):
                    connect_through_reservoir(g, res, x, y, prefer_reservoir=drain)
                continue
            path = connect_through_reservoir(g, res, x, y, prefer_reservoir=drain)
            assert path.vertices == (x, *pick, y)
            assert res.ledger == set(pick)
    assert sizes_seen == {0, 1, 2, 3, None}
    assert drained


def _cap_graph():
    """Stage 1 keeps 0..15: 0..7 are the first 1-connectors of (16, 19) and
    (16, d), 8..15 those of (18, 17) and (c, 17).  The pair (16, 17) has no
    1-connector; its one 2-connector outside 0..15 is (18, 19), but it comes
    after the 72 through 0..7, so the cap of 64 drops it before the filter
    could keep it."""
    cs, ds, u, v, a, b = range(8), range(8, 16), 16, 17, 18, 19
    return OrientedGraph(20, [(u, a), (a, b), (b, v)]
                         + [(u, c) for c in cs] + [(c, b) for c in cs]
                         + [(a, d) for d in ds] + [(d, v) for d in ds]
                         + [(c, d) for c in cs for d in ds])


def _covered_graph():
    """Stage 1 keeps 0..7, the first 1-connectors of (8, 9), which covers
    the pair; 10 and 11 are its later 1-connectors, and (10, 11) is its
    2-connector, which stage 2 would keep if it walked covered pairs."""
    x, y, w1, w2 = 8, 9, 10, 11
    return OrientedGraph(12, [(x, c) for c in range(8)] + [(c, y) for c in range(8)]
                         + [(x, w1), (w1, y), (w1, w2), (w2, y), (x, w2)])


def _reservoir(g, avoid, size=None, prefer=None):
    """``build_reservoir`` with ``default_reservoir_size`` returning
    ``size``, or left as it is when ``size`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(absorption, "default_reservoir_size", lambda n: size)
        return build_reservoir(g, avoid, prefer=prefer)


def test_reservoir_stage_two_rules():
    # candidates are cut at 64 before the filters, and covered pairs are
    # not walked again; either mistake would add a 2-connector
    res = _reservoir(_cap_graph(), (), 18)
    assert res.vertices == frozenset(range(16))
    res = _reservoir(_covered_graph(), (), 11)
    assert res.vertices == frozenset(range(8))


@pytest.fixture(scope="module")
def dense192():
    """The first graph of the dense-pipeline benchmark workload at seed 1."""
    return random_min_semidegree(192, 72, derive_seed(1, "dense", 0))


def test_reservoir_matches_eager_oracle(monkeypatch, dense192):
    # the lazy walk keeps exactly the vertices of the eager all-pairs
    # selection, with and without avoid/prefer, through stages 2 and 3
    walked_k = set()
    scan = absorption._reservoir_options

    def recording(g, u, v, k, bad):
        walked_k.add(k)
        return scan(g, u, v, k, bad)

    monkeypatch.setattr(absorption, "_reservoir_options", recording)
    stats = {}
    cases = [(random_oriented(n, (0.25, 0.5, 1.0)[n % 3], derive_seed(0, "eager", n)),
              variant, (None, n // 2, n)[(n + variant) % 3])
             for n in range(6, 61) for variant in (n % 4, (n + 2) % 4)]
    cases += [(_cap_graph(), 0, 18), (_covered_graph(), 0, 11),
              (dense192, 0, None), (dense192, 3, None)]
    for g, variant, target in cases:
        rng = rng_for(g.n, "eager", variant)
        avoid = rng.sample(range(g.n), rng.randint(1, g.n // 3)) if variant & 1 else ()
        prefer = (frozenset(rng.sample(range(g.n), rng.randint(1, g.n)))
                  if variant & 2 else None)
        want = _oracles.reservoir_oracle(g, avoid, target, prefer, stats)
        got = _reservoir(g, avoid, target, prefer)
        assert got.vertices == want, (g.n, variant, target)
    assert stats["stages"] == walked_k == {1, 2, 3}
    assert stats["cut_by_cap"] > 0


def test_reservoir_work_bound(monkeypatch, dense192):
    # guards the lazy walk: the eager selection scanned the connectors of
    # every non-arc pair, 18,336 of them on this graph; the lazy one stops
    # after the 7 pairs that fill the 6-vertex budget
    g = dense192
    calls = []
    scan = absorption._reservoir_options

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(absorption, "_reservoir_options", counting)
    res = build_reservoir(g, ())
    assert len(res.vertices) == default_reservoir_size(192)
    assert g.n * (g.n - 1) - g.arc_count == 18336
    assert calls
    assert len(calls) <= 18336 // 1000


def test_reservoir_serves_sampled_pairs():
    # dense instance: a small reservoir bridges sampled non-adjacent pairs
    # even after one vertex has already been consumed
    g = random_min_semidegree(40, 15, 7)
    res = _reservoir(g, (), 8)
    assert len(res.vertices) == 8
    outside = [v for v in range(40) if v not in res.vertices]
    rng = rng_for(7, "pairs")
    pairs = []
    while len(pairs) < 50:
        x, y = rng.sample(outside, 2)
        if not g.has_arc(x, y):
            pairs.append((x, y))
    ok = 0
    for i, (x, y) in enumerate(pairs):
        burn = rng_for(7, "ledger", i).choice(sorted(res.vertices))
        scratch = Reservoir(res.vertices, {burn})
        try:
            p = connect_through_reservoir(g, scratch, x, y)
        except NoConnectorAvailableError:
            continue
        p.validate(g)
        assert set(p.vertices[1:-1]) <= res.vertices
        ok += 1
    assert ok >= 48


# -- gadgets and absorbing paths ---------------------------------------------------


def test_gadget_serves():
    g = OrientedGraph(4, [(1, 2), (1, 0), (0, 2), (1, 3)])
    assert StrongGadget(1, 2).serves(g, 0, 0)
    assert not StrongGadget(1, 2).serves(g, 3, 3)
    assert StrongGadget(1, 2).serves(g, 3, 0)
    assert WeakGadget(1, 0, 3, 2).serves(g, 3, 0)
    assert not WeakGadget(1, 0, 3, 2).serves(g, 3, 3)


def test_build_minimal_path():
    P = build_absorbing_path(STRONG3)
    assert P.path == (1, 2)
    assert P.strong == (StrongGadget(1, 2),)
    assert P.weak == ()
    assert P.gaps == (1, 2)
    P.validate(STRONG3)


def test_build_no_gadgets_no_path():
    P = build_absorbing_path(C3)
    assert P.path == ()
    assert P.strong == ()
    assert P.gaps == (0, 1, 2)


def test_build_dense_instance():
    g = random_min_semidegree(60, 23, 11)
    P = build_absorbing_path(g, seed=11)
    P.validate(g)
    assert len(P.path) == 29
    assert len(P.strong) == default_strong_target(60)
    assert P.gaps == ()
    used = set()
    for gd in P.strong:
        assert used.isdisjoint((gd.w, gd.z))
        used.update((gd.w, gd.z))
    for gd in P.weak:
        tup = (gd.w, gd.wp, gd.zp, gd.z)
        assert used.isdisjoint(tup)
        used.update(tup)


def test_build_classifies_with_strong_absorbability_threshold():
    # alpha1 * n^2 = 2.44 at n = 100, and vertex 0 has only 2 strong
    # absorbers, so it is not strongly absorbable and gets no gadget
    g = OrientedGraph(100, [(1, 0), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert count_strong_absorbers(g, 0, 0) == 2
    assert not strongly_absorbable(g, 0, 0, absorption.ALPHA1)
    P = build_absorbing_path(g)
    assert P.path == ()
    assert P.gaps == tuple(range(100))


def test_build_enumerates_weak_absorbers_once_per_vertex(monkeypatch):
    # one enumeration both classifies a vertex and supplies its candidates
    g = random_oriented(6, 0.5, 4)
    calls = []
    enumerate_all = absorption.enumerate_weak_absorbers

    def recording(g, u, v, *args, **kwargs):
        calls.append((u, v))
        return enumerate_all(g, u, v, *args, **kwargs)

    monkeypatch.setattr(absorption, "enumerate_weak_absorbers", recording)
    P = build_absorbing_path(g)
    assert P.weak == (WeakGadget(3, 5, 0, 4),)
    assert calls == [(v, v) for v in range(g.n)
                     if not strongly_absorbable(g, v, v, absorption.ALPHA1)]


def test_strong_draw_samples_ranks_of_the_lexicographic_list():
    # the draw is rng.sample over ranks of the eligible strong absorbers in
    # ascending order; with room for all of them it returns each once
    for seed in range(4):
        g = random_oriented(30, 0.6, seed)
        pick = rng_for(seed, "avoid")
        for v in range(g.n):
            avoid = mask_of(pick.sample(range(g.n), 4))
            eligible = [tup for tup in enumerate_strong_absorbers(g, v, v)
                        if not mask_of(tup) & avoid]
            k = absorption.ABSORB_PER_PAIR_CAP
            want = [eligible[r] for r in random.Random(v).sample(
                range(len(eligible)), min(k, len(eligible)))]
            assert list(absorption._draw_strong_absorbers(
                g, v, avoid, k, random.Random(v))) == want
            every = absorption._draw_strong_absorbers(
                g, v, avoid, len(eligible) + 1, random.Random(v))
            assert sorted(every) == eligible


def test_lazy_strong_draw_matches_eager_draw():
    # the draw places a rank only when read, from the same rng.sample call
    for seed in range(6):
        g = random_oriented(20 + 4 * seed, (0.4, 0.6, 0.8)[seed % 3],
                            derive_seed(seed, "draw"))
        pick = rng_for(seed, "draw-avoid")
        for v in range(g.n):
            avoid = mask_of(pick.sample(range(g.n), pick.randint(0, g.n // 3)))
            total = sum(not mask_of(tup) & avoid
                        for tup in enumerate_strong_absorbers(g, v, v))
            for k in (1, absorption.ABSORB_PER_PAIR_CAP, total + 1):
                lazy_rng, eager_rng = random.Random(v), random.Random(v)
                draw = absorption._draw_strong_absorbers(g, v, avoid, k, lazy_rng)
                want = _oracles.strong_draw_reference(g, v, avoid, k, eager_rng)
                assert lazy_rng.getstate() == eager_rng.getstate()
                assert len(draw) == min(k, total) == len(want)
                assert draw[:1] == want[:1]
                assert [draw[i] for i in range(len(want))] == want


@pytest.mark.parametrize(("n", "p", "seed"), [(9, 0.5, 2), (10, 0.7, 19), (12, 0.5, 6)])
def test_build_draws_strong_candidates_off_the_weak_family(monkeypatch, n, p, seed):
    g = random_oriented(n, p, seed)
    draws = []
    draw = absorption._draw_strong_absorbers

    def recording(g, v, avoid, k, rng):
        picks = draw(g, v, avoid, k, rng)
        draws.append((v, avoid, picks))
        return picks

    monkeypatch.setattr(absorption, "_draw_strong_absorbers", recording)
    P = build_absorbing_path(g, seed=seed)
    weak = mask_of(x for gd in P.weak for x in (gd.w, gd.wp, gd.zp, gd.z))
    assert weak and any(picks for _, _, picks in draws)
    for v, avoid, picks in draws:
        assert avoid & weak == weak
        strong = set(enumerate_strong_absorbers(g, v, v))
        assert all(tup in strong and not mask_of(tup) & avoid for tup in picks)


@pytest.mark.parametrize("seed", range(3))
def test_build_fills_strong_target_on_dense_graph(seed):
    # the lexicographic prefix of each vertex's absorbers held a dozen
    # distinct w here, so the disjoint family used to fall short
    g = random_min_semidegree(192, 72, derive_seed(1, "dense", 0))
    P = build_absorbing_path(g, seed=derive_seed(seed, "absorb"))
    assert len(P.strong) == default_strong_target(192)


def test_absorbing_path_matches_reference(dense192):
    # one running free-vertex mask lays out and drops the same units as
    # the free set rebuilt for every unit; both kinds of drop occur here,
    # and on random_oriented(32, 0.3, 1) a hop that ignored the inner
    # connector just laid would reuse one of its vertices
    drops = []
    graphs = [random_oriented(n, p, s) for n in range(4, 17)
              for p in (0.3, 0.5, 0.8) for s in range(4)]
    graphs += [random_oriented(32, 0.3, 1), random_min_semidegree(60, 23, 11), dense192]
    for g in graphs:
        for seed in (0, 1):
            P = build_absorbing_path(g, seed=seed)
            got = (P.path, tuple(map(astuple, P.strong)), tuple(map(astuple, P.weak)),
                   P.gaps, P.dropped)
            assert got == _oracles.absorbing_path_reference(g, seed, drops), (g.n, seed)
    assert {"inner", "hop"} <= set(drops)


def test_servable_is_what_hosts_serve():
    for g in (random_min_semidegree(60, 23, 11), random_oriented(12, 0.5, 6),
              random_oriented(30, 0.3, 1), STRONG3):
        P = build_absorbing_path(g, seed=3)
        assert P.servable(g) == frozenset(
            v for v in range(g.n)
            if v not in P.vertex_set() and absorption._hosts(g, P.strong, v, v))


def test_default_strong_target():
    assert default_strong_target(20) == 4
    assert default_strong_target(60) == 12
    assert default_strong_target(100) == 14


def test_validate_catches_broken_registry():
    bad = AbsorbingPath(path=(1, 2), strong=(StrongGadget(2, 1),))
    with pytest.raises(StitchFailureError):
        bad.validate(STRONG3)


def test_absorb_nothing_is_identity():
    P = build_absorbing_path(STRONG3)
    assert absorb_vertices(STRONG3, P, []) is P


def test_absorb_single_vertex():
    P = build_absorbing_path(STRONG3)
    P2 = absorb_vertices(STRONG3, P, [0])
    assert P2.path == (1, 0, 2)
    assert P2.strong == ()
    P2.validate(STRONG3)


def test_absorb_drops_only_spent_gadgets():
    g = OrientedGraph(5, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 1)])
    P = AbsorbingPath(path=(0, 1, 2, 3),
                      strong=(StrongGadget(0, 1), StrongGadget(2, 3)))
    P2 = absorb_vertices(g, P, [4])
    assert P2.path == (0, 4, 1, 2, 3)
    assert P2.strong == (StrongGadget(2, 3),)
    P2.validate(g)


def test_absorb_spent_gadget_serves_no_more():
    # 0 and 3 fit only the gadget (1, 2); once 0 spends it, no registry
    # gadget serves 3
    g = OrientedGraph(4, [(1, 2), (1, 0), (0, 2), (1, 3), (3, 2)])
    P2 = absorb_vertices(g, build_absorbing_path(g), [0])
    assert P2.path == (1, 0, 2)
    with pytest.raises(VertexNotAbsorbableError) as ei:
        absorb_vertices(g, P2, [3])
    assert ei.value.vertex == 3


def test_absorb_double_step():
    g = OrientedGraph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                          (0, 6), (6, 3), (4, 1), (2, 5)])
    P = AbsorbingPath(path=(0, 1, 2, 3, 4, 5),
                      strong=(StrongGadget(4, 5),),
                      weak=(WeakGadget(0, 1, 2, 3),))
    P.validate(g)
    P2 = absorb_vertices(g, P, [6])
    assert P2.path == (0, 6, 3, 4, 1, 2, 5)
    assert P2.weak == ()
    assert P2.strong == ()
    P2.validate(g)


def test_absorb_capacity_exhausted():
    g = OrientedGraph(4, [(1, 2), (1, 0), (0, 2), (1, 3), (3, 2)])
    P = build_absorbing_path(g)
    assert len(P.strong) == 1
    with pytest.raises(CapacityExhaustedError) as ei:
        absorb_vertices(g, P, [0, 3])
    assert len(ei.value.unplaced) == 1


def test_absorb_unservable_vertex():
    g = OrientedGraph(4, [(1, 2), (1, 0), (0, 2)])
    P = build_absorbing_path(g)
    with pytest.raises(VertexNotAbsorbableError) as ei:
        absorb_vertices(g, P, [3])
    assert ei.value.vertex == 3


def test_absorb_rejects_path_vertices():
    g = OrientedGraph(4, [(1, 2), (1, 0), (0, 2)])
    P = build_absorbing_path(g)
    with pytest.raises(ValueError):
        absorb_vertices(g, P, [1])


def test_absorb_weak_route_needs_strong_rematch():
    # 8 fits s1 = (0, 1) or s2 = (2, 3); 9 fits only the weak gadget, whose
    # inner pair (5, 6) only s1 hosts, so 8 must take s2
    g = OrientedGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                           (6, 7), (0, 8), (8, 1), (2, 8), (8, 3), (4, 9),
                           (9, 7), (0, 5), (6, 1)])
    P = AbsorbingPath(path=(0, 1, 2, 3, 4, 5, 6, 7),
                      strong=(StrongGadget(0, 1), StrongGadget(2, 3)),
                      weak=(WeakGadget(4, 5, 6, 7),))
    P.validate(g)
    P2 = absorb_vertices(g, P, [8, 9])
    assert P2.path == (0, 5, 6, 1, 2, 8, 3, 4, 9, 7)
    assert P2.strong == ()
    assert P2.weak == ()


def _random_registry(rng, strong=4, weak=3, leftovers=4):
    """A random absorbing path of 1-``strong`` strong and 0-``weak`` weak
    gadgets laid end to end, 1-``leftovers`` leftover vertices, and an arc
    of random direction on every pair the path leaves free; vertex labels
    are shuffled."""
    kinds = ["strong"] * rng.randint(1, strong) + ["weak"] * rng.randint(0, weak)
    rng.shuffle(kinds)
    n = 2 * kinds.count("strong") + 4 * kinds.count("weak") + rng.randint(1, leftovers)
    label = rng.sample(range(n), n)
    path, strong, weak = [], [], []
    for kind in kinds:
        if kind == "strong":
            strong.append(StrongGadget(*label[len(path):len(path) + 2]))
            path += label[len(path):len(path) + 2]
        else:
            weak.append(WeakGadget(*label[len(path):len(path) + 4]))
            path += label[len(path):len(path) + 4]
    arcs = set(zip(path, path[1:]))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in arcs and (v, u) not in arcs:
                arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    g = OrientedGraph(n, sorted(arcs))
    return g, AbsorbingPath(tuple(path), tuple(strong), tuple(weak)), label[len(path):]


def _intact(path, gad):
    """Whether the gadget's outer end w is still followed on ``path`` by
    z (strong) or w' (weak)."""
    i = path.index(gad.w)
    return path[i + 1] == (gad.wp if isinstance(gad, WeakGadget) else gad.z)


def test_absorb_succeeds_exactly_when_an_assignment_exists():
    rng = rng_for(0, "absorb-registry")
    feasible = double_steps = 0
    for _ in range(1000):
        g, P, leftovers = _random_registry(rng)
        P.validate(g)
        plan = _oracles.absorb_assignment_oracle(g, P, leftovers)
        try:
            P2 = absorb_vertices(g, P, leftovers)
        except (CapacityExhaustedError, VertexNotAbsorbableError):
            assert plan is None
            continue
        assert plan is not None
        feasible += 1
        P2.validate(g)
        assert len(P.strong) - len(P2.strong) == len(leftovers)
        # a gadget stays in the registry exactly when its layout is intact
        assert P2.strong == tuple(gd for gd in P.strong if _intact(P2.path, gd))
        assert P2.weak == tuple(gd for gd in P.weak if _intact(P2.path, gd))
        double_steps += len(P2.weak) < len(P.weak)
    assert feasible > 200 and double_steps > 40


def test_absorb_routes_match_recursive_reference():
    # the iterative search keeps the recursive Kuhn step's preference
    # order, so every route, and with it every path, is the same; the
    # larger registries reach inner pairs that move more than once
    second_phase = double_steps = exhausted = 0
    for label, sizes, count in [("absorb-routes", (4, 3, 4), 1000),
                                ("absorb-routes-large", (8, 6, 8), 400)]:
        rng = rng_for(1, label)
        for _ in range(count):
            g, P, leftovers = _random_registry(rng, *sizes)
            todo = sorted(leftovers)
            if not all(absorption._hosts(g, P.strong + P.weak, v, v)
                       for v in todo):
                continue
            expected = _oracles.absorb_reference(g, P, todo)
            strong_only = _oracles.absorb_reference(g, replace(P, weak=()), todo)
            second_phase += isinstance(strong_only, list)
            try:
                P2 = absorb_vertices(g, P, leftovers)
            except CapacityExhaustedError as exc:
                assert list(exc.unplaced) == expected
                exhausted += 1
                continue
            assert (P2.path, P2.strong, P2.weak) == expected
            double_steps += len(P2.weak) < len(P.weak)
    assert second_phase > 300 and double_steps > 80 and exhausted > 200
