"""The seeded generators: ``random_min_semidegree`` reproduces its
one-draw-at-a-time reference loop, its bulk draws reproduce CPython's
``randrange``, and the generators and the starting tournament refuse an
oversized order up front."""

import random
import time
import tracemalloc

import pytest

from oriham import (MAX_VERTICES, OutOfRangeError, near_regular_tournament,
                    random_min_semidegree, random_oriented)
from oriham.generators import _DRAW_CHUNK, _randrange_chunks
from oriham.seeds import derive_seed

import _oracles


@pytest.mark.parametrize("n", [1, 2, 3, 191, 192, 255, 256, 257, 4096])
@pytest.mark.parametrize("drawn", [0, 400])
def test_randrange_chunks_match_randrange(n, drawn):
    # ties the bulk draws to CPython's randrange: one 32-bit word per try,
    # shifted down to n.bit_length() bits, retried while >= n
    rng = random.Random(derive_seed(n, "randrange", drawn))
    for _ in range(drawn):  # 800 words: past one twist of the 624-word state
        rng.random()
    twin = random.Random()
    twin.setstate(rng.getstate())
    count = 2 * _DRAW_CHUNK + 7  # at most one value per word: three chunks
    chunks = list(_randrange_chunks(rng, n, count))
    assert len(chunks) >= 3
    values = [v for chunk in chunks for v in chunk.tolist()]
    assert values == [twin.randrange(n) for _ in range(count)]


def test_randrange_chunks_empty_range():
    assert list(_randrange_chunks(random.Random(0), 0, 0)) == []
    with pytest.raises(ValueError):
        list(_randrange_chunks(random.Random(0), 0, 1))


def _same_graph(g, h):
    return g == h and g._in == h._in and g.arc_count == h.arc_count


@pytest.mark.parametrize("n, bound", [(3, 1), (8, 3), (17, 0), (17, 6),
                                      (17, 8), (48, 18), (96, 36)])
def test_min_semidegree_matches_oracle(n, bound):
    for flips in (0, 1, 57, None):
        for seed in (0, 5):
            g = random_min_semidegree(n, bound, seed, flips)
            assert _same_graph(g, _oracles.min_semidegree_oracle(n, bound, seed, flips))
            assert g.min_semidegree() >= bound


@pytest.mark.parametrize("j", range(4))
def test_min_semidegree_matches_oracle_on_bench_inputs(j):
    # the four dense-pipeline benchmark graphs at seed 1
    seed = derive_seed(1, "dense", j)
    assert _same_graph(random_min_semidegree(192, 72, seed),
                       _oracles.min_semidegree_oracle(192, 72, seed))


def test_min_semidegree_memory_is_bounded():
    # one array of all 16 n^2 draws peaks near 10 MiB
    random_min_semidegree(8, 3, 0)  # first-call costs outside the trace
    tracemalloc.start()
    try:
        random_min_semidegree(192, 72, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_oversized_order_fails_before_building():
    start = time.perf_counter()
    with pytest.raises(OutOfRangeError):
        random_min_semidegree(MAX_VERTICES + 1, 0, 0)
    with pytest.raises(OutOfRangeError):
        random_oriented(MAX_VERTICES + 1, 0.5, 0)
    with pytest.raises(OutOfRangeError):
        near_regular_tournament(MAX_VERTICES + 1)  # before its int16 offsets
    assert time.perf_counter() - start < 1.0
