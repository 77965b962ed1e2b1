"""Synthetic benchmark inputs: overlapping diagonal blocks, bit-flip noise,
and uniform random matrices.

All randomness is the counter-based Philox stream keyed by an explicit seed,
so outputs are reproducible regardless of call order or parallelism.
`philox` computes it vectorized, bit for bit as numpy's
`Generator(Philox(seed))` draws it, without loading numpy.random:
`flip_noise` flips the cells of its `choice`, and `gen_random` thresholds its
`random` doubles.  `factorizer.seeds_sample` samples seed columns from it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import philox
from .bitmat import BinaryMatrix

DRAW_ROWS = 16  # rows of uniforms `gen_random` draws at once, about 26 bytes per cell in flight


@dataclass(frozen=True)
class BlockSpec:
    n_blocks: int
    block_size: int
    overlap: int
    wrap: bool = False  # blocks on a cycle: the last one also overlaps the first

    def __post_init__(self):
        if self.n_blocks < 1 or self.block_size < 1:
            raise ValueError("need at least one block of positive size")
        if not 0 <= self.overlap < self.block_size:
            raise ValueError("overlap must satisfy 0 <= overlap < block_size")
        if self.wrap and self.side < self.block_size:
            raise ValueError("a wrapping block must fit on the cycle")

    @property
    def side(self) -> int:
        stride = self.block_size - self.overlap
        return self.n_blocks * stride if self.wrap else (self.n_blocks - 1) * stride + self.block_size


def gen_blocks(spec: BlockSpec) -> BinaryMatrix:
    """Symmetric union of all-ones diagonal blocks, consecutive blocks
    sharing `overlap` indices; with `wrap`, block t covers indices
    t*stride .. t*stride + block_size - 1 modulo the side."""
    side = spec.side
    try:
        dense = np.zeros((side, side), dtype=bool)
    except MemoryError:  # numpy refuses a side past the address space at once
        raise ValueError(f"{side}x{side} matrix does not fit in memory") from None
    stride = spec.block_size - spec.overlap
    span = np.arange(spec.block_size)
    for t in range(spec.n_blocks):
        block = (t * stride + span) % side
        dense[np.ix_(block, block)] = True
    return BinaryMatrix._owning(dense)


def flip_noise(m: BinaryMatrix, rate: float, rng_seed: int) -> BinaryMatrix:
    """Flip an exact count of distinct uniformly chosen cells."""
    if not 0 <= rate <= 0.5:
        raise ValueError(f"flip rate must be in [0, 0.5], got {rate}")
    cells = m.n_rows * m.n_cols
    count = math.floor(rate * cells + 0.5)  # round half up, so e.g. 10% of 95x95 flips exactly 903 cells
    if count == 0:
        return m
    flips = philox.choice(cells, count, rng_seed)
    dense = m.dense().copy()
    flat = dense.reshape(-1)
    flat[flips] ^= True
    return BinaryMatrix._owning(dense)


def gen_random(n: int, density: float, rng_seed: int) -> BinaryMatrix:
    """n x n matrix with i.i.d. ones at the given density."""
    if n < 1:
        raise ValueError("matrix side must be positive")
    if not 0 < density < 1:
        raise ValueError(f"density must be in (0, 1), got {density}")
    try:
        dense = np.empty((n, n), dtype=bool)
    except MemoryError:  # numpy refuses a side past the address space at once
        raise ValueError(f"{n}x{n} matrix does not fit in memory") from None
    keys = philox.round_keys(rng_seed)
    for i in range(0, n, DRAW_ROWS):  # one stream: the same cells as a single n x n draw
        rows = min(DRAW_ROWS, n - i)
        dense[i : i + rows] = philox.uniform(keys, i * n, rows * n).reshape(rows, n) < density
    return BinaryMatrix._owning(dense)
