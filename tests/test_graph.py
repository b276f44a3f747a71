import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oriham import (
    MAX_VERTICES,
    DiCycle,
    DiPath,
    GraphError,
    InvalidPathError,
    OrientedGraph,
    OutOfRangeError,
    Partition4,
    SelfLoopError,
    TwoCycleError,
    generate_extremal,
    iter_bits,
    mask_of,
    random_min_semidegree,
    strongly_connected,
    table_params,
    verify_hamilton_cycle,
)
from oriham.graph import nth_bit
from oriham.seeds import rng_for


def cycle_graph(n):
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


C3 = cycle_graph(3)
T3 = OrientedGraph(3, [(0, 1), (0, 2), (1, 2)])


def test_empty_graph():
    g = OrientedGraph(4)
    assert g.n == 4
    assert g.arc_count == 0
    assert g.arcs() == []
    assert g.min_semidegree() == 0


def test_add_arc_is_persistent():
    g = OrientedGraph(3)
    h = g.add_arc(0, 1)
    assert g.arc_count == 0
    assert h.arc_count == 1
    assert h.has_arc(0, 1)
    assert not h.has_arc(1, 0)


def test_duplicate_arc_ignored():
    g = OrientedGraph(3, [(0, 1), (0, 1)])
    assert g.arc_count == 1
    assert g.add_arc(0, 1).arc_count == 1


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        OrientedGraph(3, [(1, 1)])


def test_two_cycle_rejected():
    with pytest.raises(TwoCycleError):
        OrientedGraph(3, [(0, 1), (1, 0)])


def test_vertex_out_of_range():
    with pytest.raises(OutOfRangeError):
        OrientedGraph(3, [(0, 3)])
    with pytest.raises(OutOfRangeError):
        OrientedGraph(3, [(-1, 0)])
    with pytest.raises(OutOfRangeError):
        OrientedGraph(-1, [])


def test_degrees_cycle():
    assert C3.degrees(0) == (1, 1)
    assert C3.min_semidegree() == 1


def test_degrees_transitive_source():
    assert T3.degrees(0) == (2, 0)
    assert T3.min_semidegree() == 0


def test_arcs_sorted():
    g = OrientedGraph(4, [(3, 0), (0, 2), (1, 3)])
    assert g.arcs() == [(0, 2), (1, 3), (3, 0)]


def test_count_arcs_between_and_within():
    g = OrientedGraph(4, [(0, 2), (0, 3), (1, 2), (2, 3)])
    assert g.count_arcs_between({0, 1}, {2, 3}) == 3
    assert g.count_arcs_between({2, 3}, {0, 1}) == 0
    assert g.count_arcs_within({2, 3}) == 1
    assert g.count_arcs_within({0, 1}) == 0


def test_mask_helpers():
    m = mask_of([0, 2, 5])
    assert m == 0b100101
    assert list(iter_bits(m)) == [0, 2, 5]
    assert list(iter_bits(0)) == []


def test_nth_bit_is_rank_in_iter_bits():
    rng = rng_for(0, "masks")
    for width in (1, 2, 7, 63, 64, 65, 200, 4096):
        for _ in range(8):
            mask = rng.getrandbits(width) | 1 << rng.randrange(width)
            bits = list(iter_bits(mask))
            assert [nth_bit(mask, k) for k in range(len(bits))] == bits


def test_graph_equality_and_hash():
    a = OrientedGraph(3, [(0, 1), (1, 2)])
    b = OrientedGraph(3, [(1, 2), (0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != a.add_arc(2, 0)


arc_lists = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30
)


@pytest.mark.parametrize("n, bound, seeds", [(3, 1, 4), (8, 3, 4), (17, 7, 4),
                                             (48, 18, 3), (192, 72, 1)])
def test_min_semidegree_graph_matches_rebuilt(n, bound, seeds):
    # the generator wraps its own bitsets; inserting its arcs one by one
    # must give the same graph
    for seed in range(seeds):
        g = random_min_semidegree(n, bound, seed)
        rebuilt = OrientedGraph(g.n, g.arcs())
        assert g == rebuilt
        assert (g._in, g.arc_count) == (rebuilt._in, rebuilt.arc_count)
        assert g.min_semidegree() >= bound


@given(st.integers(0, 9), st.integers(0, 2**32))
def test_from_adjacency_round_trip(n, seed):
    rng = rng_for(seed, "from-adjacency", n)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6]
    g = OrientedGraph(n, arcs)
    for dtype in (bool, np.uint8, np.int64):
        h = OrientedGraph.from_adjacency(g.adjacency_matrix().astype(dtype))
        assert h == g and h._in == g._in and h.arc_count == g.arc_count
    # any nonzero entry is an arc
    h = OrientedGraph.from_adjacency(g.adjacency_matrix() * np.int64(-7))
    assert h == g and h.arc_count == g.arc_count


def test_from_adjacency_rejections():
    with pytest.raises(OutOfRangeError):
        # a read-only view: the order is refused before anything is copied
        OrientedGraph.from_adjacency(
            np.broadcast_to(np.uint8(0), (MAX_VERTICES + 1,) * 2))
    loop = np.zeros((3, 3), np.uint8)
    loop[0, 1] = loop[1, 0] = loop[2, 2] = 1  # the loop wins over the 2-cycle
    with pytest.raises(SelfLoopError):
        OrientedGraph.from_adjacency(loop)
    both = np.zeros((3, 3), bool)
    both[1, 2] = both[2, 1] = True
    with pytest.raises(TwoCycleError):
        OrientedGraph.from_adjacency(both)
    for shape in ((2, 3), (4,), (2, 2, 2)):
        with pytest.raises(GraphError) as exc:
            OrientedGraph.from_adjacency(np.zeros(shape, bool))
        assert type(exc.value) is GraphError
    assert OrientedGraph.from_adjacency(np.zeros((0, 0), bool)) == OrientedGraph(0)


@given(arc_lists)
def test_insertion_never_creates_two_cycles(pairs):
    g = OrientedGraph(8)
    for u, v in pairs:
        try:
            g = g.add_arc(u, v)
        except (SelfLoopError, TwoCycleError):
            pass
    for u, v in g.arcs():
        assert u != v
        assert not g.has_arc(v, u)
    assert sum(g.out_degree(v) for v in range(g.n)) == g.arc_count
    assert sum(g.in_degree(v) for v in range(g.n)) == g.arc_count


# -- paths and cycles ----------------------------------------------------------


def test_dipath_basic():
    p = DiPath((0, 1, 2))
    assert p.start == 0
    assert p.end == 2
    p.validate(C3)
    with pytest.raises(InvalidPathError):
        DiPath((0, 2, 1)).validate(C3)


def test_dipath_rejects_repeats():
    with pytest.raises(InvalidPathError):
        DiPath((0, 1, 0))
    with pytest.raises(InvalidPathError):
        DiPath((2, 2))
    assert len(DiPath(())) == 0


def test_dipath_validate_raises():
    with pytest.raises(InvalidPathError):
        DiPath((0, 2)).validate(C3)
    DiPath((0, 1)).validate(C3)


def test_dicycle():
    assert DiCycle((0, 1, 2)).is_valid_in(C3)
    assert not DiCycle((0, 2, 1)).is_valid_in(C3)


def test_verify_hamilton_cycle():
    assert verify_hamilton_cycle(C3, [0, 1, 2])
    assert verify_hamilton_cycle(C3, [1, 2, 0])
    assert verify_hamilton_cycle(C3, [2, 0, 1])
    assert not verify_hamilton_cycle(C3, [0, 2, 1])
    assert not verify_hamilton_cycle(C3, [0, 1])
    assert not verify_hamilton_cycle(C3, [0, 1, 1])
    assert not verify_hamilton_cycle(C3, [0, 1, 3])
    assert not verify_hamilton_cycle(C3, [])


@pytest.mark.parametrize("bad", [-3, -1, 5, 9])
def test_verify_hamilton_cycle_out_of_range_id_mid_sequence(bad):
    # the arcs are read off the bitsets only after every id is range
    # checked: -3 would index vertex 2's row and 9 lie past the rows
    g = cycle_graph(5)
    assert not verify_hamilton_cycle(g, [0, 1, bad, 3, 4])
    assert not DiCycle((0, 1, bad, 3, 4)).is_valid_in(g)


def test_verify_hamilton_cycle_numpy_vertices():
    # n > 63: a shift by np.int64 used to overflow inside has_arc
    g = cycle_graph(70)
    assert verify_hamilton_cycle(g, np.arange(70))
    assert verify_hamilton_cycle(g, DiCycle(tuple(np.arange(70, dtype=np.int32))))
    assert not verify_hamilton_cycle(g, np.arange(70)[::-1])


@pytest.mark.parametrize("bad", [1.0, "1", None, (1,)])
def test_verify_hamilton_cycle_non_integer_vertex(bad):
    assert not verify_hamilton_cycle(C3, [0, bad, 2])
    assert not verify_hamilton_cycle(cycle_graph(70), [bad] + list(range(1, 70)))


@given(st.integers(3, 9), st.integers(0, 8))
def test_verify_rotation_invariant(n, shift):
    g = cycle_graph(n)
    order = [(i + shift) % n for i in range(n)]
    assert verify_hamilton_cycle(g, order)


# -- partitions ----------------------------------------------------------------


def test_partition_of_and_lookup():
    part = Partition4.of([0, 1], [2], [3], [4])
    assert part.classes()["A"] == frozenset({0, 1})
    assert part.classes()["C"] == frozenset({3})
    assert part.sizes() == {"A": 2, "B": 1, "C": 1, "D": 1}
    assert part.support() == frozenset(range(5))
    assert part.covers(OrientedGraph(5))
    assert not part.covers(OrientedGraph(6))


def test_partition_rejects_overlap():
    with pytest.raises(ValueError):
        Partition4.of([0, 1], [1], [2], [3])


def test_partition_empty_classes():
    part = Partition4.of([0, 1], [], [2], [])
    assert part.sizes() == {"A": 2, "B": 0, "C": 1, "D": 0}


# -- connectivity ---------------------------------------------------------------


def test_strongly_connected():
    assert strongly_connected(C3)
    assert not strongly_connected(T3)
    assert strongly_connected(OrientedGraph(1))
    assert not strongly_connected(OrientedGraph(2))
    with pytest.raises(OutOfRangeError):
        strongly_connected(OrientedGraph(0))


def test_extremal_instance_strongly_connected():
    g, _ = generate_extremal(table_params(7, 0))
    assert strongly_connected(g)
