import random

import numpy as np
import pytest

from contile import philox

SEEDS = [0, 1, 2**32 + 3, 2**64 + 1, 2**130 + 7]  # 1, 2, 3 and 5 words of SeedSequence entropy


def numpys(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


@pytest.mark.parametrize(
    "m,k",
    [(1, 1), (7, 7), (1005, 1), (1005, 20), (50000, 1000)]  # Floyd's algorithm
    + [(10000, 1), (10000, 200), (10000, 201), (10000, 9999), (10000, 10000), (10001, 1), (10001, 200)]
    + [(10001, 201), (10001, 10000), (10001, 10001), (12000, 5000), (50000, 1001), (65025, 6503)],  # the tail shuffle
)
@pytest.mark.parametrize("seed", SEEDS)
def test_choice_is_numpys(m, k, seed):
    want = numpys(seed).choice(m, size=k, replace=False)
    assert philox.choice(m, k, seed).tolist() == sorted(want.tolist())


@pytest.mark.parametrize("seed", [1, 3])
def test_choice_of_a_million_cells_is_numpys(seed):
    # the flip of the 1005 x 1005 benchmark input: long swap chains, and rejected words
    want = numpys(seed).choice(1010025, size=101003, replace=False)
    assert np.array_equal(philox.choice(1010025, 101003, seed), np.sort(want))


def test_choice_refuses_what_it_cannot_draw():
    for m, k in ((3, 4), (3, -1), (2**32, 1)):  # a population past 2**32 - 1 would need 64-bit draws
        with pytest.raises(ValueError):
            philox.choice(m, k, 0)
    with pytest.raises(ValueError, match="non-negative"):
        philox.choice(5, 2, -1)


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_draws_are_numpys(seed):
    # bounds just above 2**31 reject about half the words, so most runs end early and restart a word later;
    # numpy keeps the high half of a 64-bit output for the next 32-bit draw, as the words do
    rng = random.Random(seed)
    bounds = [rng.choice([1, 2**31 + rng.randrange(8), 2**32 - 1, rng.randrange(1, 2**32)]) for _ in range(300)]
    gen = numpys(seed)
    want = [gen.integers(0, j, endpoint=True, dtype=np.uint64).item() for j in bounds]
    assert philox.bounded(philox.round_keys(seed), np.array(bounds, dtype=np.uint64) + np.uint64(1)).tolist() == want


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_numpys_random(seed):
    want = numpys(seed).random(1001)
    keys = philox.round_keys(seed)
    for start, count in [(0, 1001), (1, 999), (3, 5), (6, 1), (997, 4)]:  # every offset into a counter's 4 outputs
        assert np.array_equal(philox.uniform(keys, start, count), want[start : start + count])


@pytest.mark.parametrize("seed", range(40))
def test_tail_shuffle_is_the_swap_loop(seed):
    # small populations with many self-swaps and long chains, which numpy only shuffles past m = 10000
    rng = random.Random(seed)
    m = rng.randrange(2, 40)
    k = rng.randrange(1, m)
    drawn = [rng.randrange(i + 1) if rng.random() < 0.8 else i for i in range(m - 1, m - k - 1, -1)]
    order = list(range(m))
    for i, j in zip(range(m - 1, m - k - 1, -1), drawn):
        order[i], order[j] = order[j], order[i]
    assert philox._tail_shuffle(m, np.array(drawn, dtype=np.uint64)).tolist() == order[: m - k - 1 : -1]  # place m - 1 first
