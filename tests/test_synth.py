import numpy as np
import pytest

from contile.bitmat import hamming_error
from contile.factorizer import factorize
from contile.synth import DRAW_ROWS, BlockSpec, flip_noise, gen_blocks, gen_random

from conftest import peak_bytes


class TestBlocks:
    def test_paper_parameters_give_95(self):
        spec = BlockSpec(6, 20, 5)
        assert spec.side == 95
        d = gen_blocks(spec)
        assert d.shape == (95, 95)
        assert np.array_equal(d.dense(), d.dense().T)

    def test_single_block_all_ones(self):
        d = gen_blocks(BlockSpec(1, 4, 0))
        assert d.nnz == 16

    def test_two_overlapping_blocks(self):
        d = gen_blocks(BlockSpec(2, 2, 1))
        want = np.ones((3, 3), dtype=bool)
        want[0, 2] = want[2, 0] = False
        assert np.array_equal(d.dense(), want)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BlockSpec(2, 3, 3)
        with pytest.raises(ValueError):
            BlockSpec(0, 3, 0)
        with pytest.raises(ValueError):
            BlockSpec(1, 3, 1, wrap=True)  # a block of 3 on a cycle of 2

    def test_wrapping_blocks_close_the_cycle(self):
        spec = BlockSpec(5, 25, 5, wrap=True)
        assert spec.side == 100
        dense = gen_blocks(spec).dense()
        assert np.array_equal(dense, dense.T)
        assert dense.sum() == 5 * 25 * 25 - 5 * 5 * 5
        # the last block covers 80..99 and 0..4, overlapping the first
        assert dense[80:100, 0:5].all() and not dense[80:100, 5:20].any()
        rolled = np.roll(np.roll(dense, -80, axis=0), -80, axis=1)
        assert np.array_equal(rolled, dense)  # no block is special on the cycle

    def test_ground_truth_rank_exists(self):
        d = gen_blocks(BlockSpec(4, 5, 1))
        f = factorize(d, 4, variant="sym")
        assert f.error == 0


class TestFlipNoise:
    def test_zero_rate_unchanged(self):
        d = gen_blocks(BlockSpec(2, 3, 1))
        assert flip_noise(d, 0.0, 3) == d

    def test_exact_count_half(self):
        d = gen_blocks(BlockSpec(2, 3, 1))  # 5x5
        noisy = flip_noise(d, 0.5, 9)
        assert hamming_error(d, noisy) == 13  # round(12.5) half-up

    def test_exact_count_ten_by_ten(self):
        d = gen_random(10, 0.3, 0)
        assert hamming_error(d, flip_noise(d, 0.5, 4)) == 50

    def test_blocks_ten_percent(self):
        d = gen_blocks(BlockSpec(6, 20, 5))
        assert hamming_error(d, flip_noise(d, 0.1, 7)) == 903

    def test_double_flip_restores(self):
        d = gen_blocks(BlockSpec(3, 4, 1))
        assert flip_noise(flip_noise(d, 0.2, 11), 0.2, 11) == d

    def test_deterministic(self):
        d = gen_blocks(BlockSpec(3, 4, 1))
        assert flip_noise(d, 0.3, 5) == flip_noise(d, 0.3, 5)

    def test_rate_range(self):
        d = gen_blocks(BlockSpec(2, 3, 1))
        for bad in (-0.1, 0.51):
            with pytest.raises(ValueError):
                flip_noise(d, bad, 0)

    @pytest.mark.parametrize("spec,flips,seed", [(BlockSpec(6, 20, 5), 903, 7), (BlockSpec(10, 30, 5), 6503, 1),
                                                 (BlockSpec(10, 30, 5), 6503, 7)])
    def test_flips_are_numpys_choice(self, spec, flips, seed):
        # 95x95 takes Floyd's algorithm, 255x255 the tail shuffle
        d = gen_blocks(spec)
        want = d.dense().copy()
        want.reshape(-1)[np.random.Generator(np.random.Philox(seed)).choice(want.size, flips, replace=False)] ^= True
        assert np.array_equal(flip_noise(d, 0.1, seed).dense(), want)


class TestGenRandom:
    def test_density_within_three_sigma(self):
        n, p = 200, 0.24
        d = gen_random(n, p, 12)
        sigma = (n * n * p * (1 - p)) ** 0.5
        assert abs(d.nnz - p * n * n) <= 3 * sigma

    def test_deterministic(self):
        assert gen_random(50, 0.3, 8) == gen_random(50, 0.3, 8)

    def test_near_one_density_pinned(self):
        assert gen_random(1, 0.999, 0).nnz == 1

    @pytest.mark.parametrize("n,seed", [(2 * DRAW_ROWS + 5, 3), (DRAW_ROWS + 1, 2**130 + 7), (DRAW_ROWS - 1, 0)])
    def test_row_blocks_are_one_draw(self, n, seed):
        # the blocks continue one Philox stream: the cells of a single n x n draw, across each block's end
        want = np.random.Generator(np.random.Philox(seed)).random((n, n)) < 0.3
        assert np.array_equal(gen_random(n, 0.3, seed).dense(), want)

    def test_memory_is_result_plus_one_block(self):
        # 4 MB of result and 0.8 MB for a block's draw; one n x n draw of numpy's peaked at 36.8 MB
        assert peak_bytes(lambda: gen_random(2000, 0.1, 1)) < 1.5 * 2000 * 2000

    def test_invalid(self):
        with pytest.raises(ValueError):
            gen_random(10, 0.0, 0)
        with pytest.raises(ValueError):
            gen_random(0, 0.5, 0)
