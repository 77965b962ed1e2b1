"""Greedy alternating factorization of binary matrices into contiguous tiles.

One factor is accepted per round: every seed column starts an alternating
loop (best row set for the fixed columns, best column set for the fixed
rows, repeat while the tile's net gain strictly improves), the best seed
wins, and the PQ-trees are reduced so all accepted sets stay simultaneously
contiguous.  Cyclic variants allow sets wrapping around the order; the
symmetric variants keep a single tree over the nodes of a square matrix and
score a 2-approximation surrogate per step.

Invariant: every accepted row set and column set is contiguous (cyclically
so in the cyclic variants) under one order admitted by its tree.  In the
symmetric variants that is one tree, so the rows and the cols of each tile
must fit it jointly; that each fits alone does not mean both fit.  The
alternation picks each half-step from the tree alone; only the final pair
is repaired (`_joint_cols`), which keeps the alternation as cheap as in the
plain variants.

Within a round the trees and the scores do not change, so a half-step is a
pure function of its side and its fixed set.  The seeds run in lockstep
(`_lockstep`) over one memo per round, keyed by the tree picked on and the
fixed set (the symmetric variants' row and column steps share a key); the
sets it lacks are weighed one set size at a time into blocks of
`optset.block_rows`, a function of the tree alone (the DP picks its
counters' width itself), one batched tree DP per block, so each seed's final
pair is that of running it alone.  `alternate_seeds` keeps only the round's
winner: it finishes each distinct symmetric pair at most once, and repairs
one only while its bound can reach the best exact gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .bitmat import _LINE_END, _TOKEN, BinaryMatrix, FormatError, hamming_error, integers, positions, reconstruct, run_under
from . import optset, philox
from .optset import best_compatible_sets, best_cyclic_sets, block_rows
from .pqtree import PQTree

VARIANTS = ("plain", "cyclic", "sym", "cyclic-sym")

MAX_SWEEPS = 100  # safety cap for alternation under tie-breaks


@dataclass
class Variant:
    """A variant name, and the one definition of what it stands for."""

    variant: str

    @property
    def cyclic(self) -> bool:
        """Sets may wrap around the end of the order."""
        return self.variant in ("cyclic", "cyclic-sym")

    @property
    def symmetric(self) -> bool:
        """A square matrix with one node order; every tile comes with its transpose."""
        return self.variant in ("sym", "cyclic-sym")


@dataclass
class Factorization(Variant):
    factors: list[tuple[tuple[int, ...], tuple[int, ...]]]  # (rows, cols), sorted
    row_order: tuple[int, ...]
    col_order: tuple[int, ...]
    error: int
    rank_requested: int
    rel_error: float = 0.0

    @property
    def rank_used(self) -> int:
        return len(self.factors)

    @property
    def node_order(self) -> tuple[int, ...]:
        if not self.symmetric:
            raise ValueError("node order only exists for symmetric variants")
        return self.row_order


@dataclass
class StepState(Variant):
    """Working state between rounds: one tree and one score strip per side.

    Side 0 picks rows for fixed columns and side 1 columns for fixed rows.
    Row i of `strips[side]` scores the picked side against element i of the
    fixed side: +1 for an uncovered one, -1 for an uncovered zero and 0 for a
    covered cell, so the weight of a region is the sum of its scores.  Plain
    and cyclic keep the strips (score^T, score), the first a view of the
    second.  The symmetric variants keep one node tree and one strip,
    score + score^T, for both sides: both objective terms of the surrogate.
    """

    trees: tuple[PQTree, PQTree]
    strips: tuple[np.ndarray, np.ndarray]  # int8

    @classmethod
    def initial(cls, d: BinaryMatrix, variant: str) -> "StepState":
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if not d.n_rows or not d.n_cols:
            raise ValueError(f"cannot factorize a {d.n_rows} x {d.n_cols} matrix: it has no cells")
        score = np.where(d.dense(), np.int8(1), np.int8(-1))
        if not Variant(variant).symmetric:
            return cls(variant, (PQTree(d.n_rows), PQTree(d.n_cols)), (score.T, score))
        if d.n_rows != d.n_cols:
            raise ValueError("symmetric variants require a square matrix")
        tree, strip = PQTree(d.n_rows), score + score.T
        return cls(variant, (tree, tree), (strip, strip))

    def mark(self, rows: Sequence[int], cols: Sequence[int]) -> None:
        """Mark a tile as covered (with its transpose, in the symmetric variants' shared strip)."""
        self.strips[1][np.ix_(rows, cols)] = 0
        self.strips[0][np.ix_(cols, rows)] = 0

    def reduction_set(self, tree: PQTree, s: Sequence[int]) -> Sequence[int]:
        """The set `tree` is reduced by to keep s contiguous: in the cyclic
        variants s or its complement, whichever avoids the anchor element 0."""
        if not self.cyclic or 0 not in s:
            return s
        inside = set(s)
        return tuple(u for u in range(tree.n) if u not in inside)

    @property
    def pick(self):
        """The batched set picker of this variant, one (set, gain) per weight
        row: `best_compatible_sets`, or `best_cyclic_sets` (w, then some -w)."""
        return best_cyclic_sets if self.cyclic else best_compatible_sets


# -- per-step weights -----------------------------------------------------


def step_weights(state: StepState, fixed, side: int = 1) -> np.ndarray:
    """Weights of `side`'s elements for a tile on the `fixed` set of the other
    side: the sum of the strip over `fixed`, uncovered ones minus uncovered
    zeros (and in the symmetric variants those of the mirrored strip too, so
    a diagonal cell of the region counts twice).  |weight| <= 2n for the n
    elements of the fixed side, so the sum is exact in int16 while
    2n <= 32767 and in int32 past it.  A (count, size) array of equal-size
    fixed sets gives their count weight rows from one gather."""
    fx = np.asarray(fixed, dtype=np.intp)
    if fx.shape[-1] == 0:
        raise ValueError("fixed set is empty")
    strip = state.strips[side]
    return np.add.reduce(strip[fx], axis=-2, dtype=np.int16 if 2 * len(strip) <= 32767 else np.int32)


# -- alternation ------------------------------------------------------------


def _overlap(strip, rows, cols) -> int:
    """The score of (rows & cols) x (rows & cols), where a tile and its
    transpose overlap: half the sum of the symmetric strip there."""
    both = np.asarray(list(set(rows).intersection(cols)), dtype=np.int64)
    return int(strip[np.ix_(both, both)].sum(dtype=np.int64)) // 2


def _half_steps(state: StepState, memo: dict, fixed: list[tuple[int, ...]], side: int) -> list:
    """The picked set of `side` and its gain for each set in `fixed`; the
    ones `memo` lacks are evaluated, each once and smallest first (a DP
    row's answer ignores the others), in blocks of `block_rows` sets, so a
    pick's traced peak fits `optset.BLOCK_BYTES` at either counter width."""
    tree = state.trees[side]
    keys = [(tree, fx) for fx in fixed]
    todo = sorted(dict.fromkeys(key for key in keys if key not in memo), key=lambda key: len(key[1]))
    size = block_rows(tree)
    for i in range(0, len(todo), size):
        block = todo[i : i + size]
        memo.update(zip(block, state.pick(tree, _block_weights(state, [fx for _, fx in block], side))))
    return [memo[key] for key in keys]


def _block_weights(state: StepState, fixed: list[tuple[int, ...]], side: int) -> np.ndarray:
    """The weight rows of `fixed`, sorted by size: one gather per size, split
    where its int8 gather and intp indices would not fit `optset.BLOCK_BYTES`."""
    parts = []
    for k, group in groupby(fixed, key=len):
        sets, per = list(group), max(1, optset.BLOCK_BYTES // (k * (state.trees[side].n + 8)))
        parts += [step_weights(state, sets[j : j + per], side) for j in range(0, len(sets), per)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _lockstep(state: StepState, seeds: Sequence[int]) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Each seed's final (rows, cols, column-step gain), ((), (), 0) for the empty tile.

    Row and column picks alternate, each from its own tree alone, over one
    memo of half-steps that the call makes and drops.  A seed stays live
    while its last pick is non-empty and its column-step gain rose, so per
    seed only its sets and that last gain are kept; an empty last pick ends
    it with the empty tile.
    """
    memo: dict = {}
    cols = [(int(j),) for j in seeds]
    rows: list[tuple[int, ...]] = [()] * len(cols)
    gains = [0] * len(cols)  # last column-step gain; a non-empty pick's is positive, so the first sweep rises
    live = list(range(len(cols)))
    for _ in range(MAX_SWEEPS):
        for i, found in zip(live, _half_steps(state, memo, [cols[i] for i in live], 0)):
            rows[i] = found[0]
        live = [i for i in live if rows[i]]
        rising = []
        for i, (picked, g) in zip(live, _half_steps(state, memo, [rows[i] for i in live], 1)):
            if picked and g > gains[i]:
                rising.append(i)
            cols[i], gains[i] = picked, g
        live = rising
        if not live:
            break
    return [(r, c, g) if r and c else ((), (), 0) for r, c, g in zip(rows, cols, gains)]


def alternate_seeds(state: StepState, seeds: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """The round's winner (rows, cols, exact gain): of the tiles grown from
    each seed column (`_lockstep`), the first of highest exact gain.

    In the symmetric variants a final pair's exact gain is that of its
    repaired cols (`_joint_cols`) less the `_overlap`, which the column-step
    gain g counts twice; when rows == cols, g is twice the overlap.  A pair
    needing a tree copy is first bounded by g plus half the negative mass of
    the strip over rows x rows (the repaired gain is at most g, and the
    overlap at least minus that half), and is finished, in falling bound
    order, only while its bound reaches the best exact gain so far.
    """
    finals = _lockstep(state, seeds)
    if not state.symmetric:
        return max(finals, key=lambda f: f[2])  # the first seed among equal gains
    strip = state.strips[1]
    finished, costly = {}, []  # pair -> its repaired cols and exact gain; (bound, pair) of those needing a copy
    for pair in dict.fromkeys(finals):
        r, c, g = pair
        if _copy_free(state, r, c):  # rows == cols includes the empty tile
            finished[pair] = c, g // 2 if r == c else g - _overlap(strip, r, c)
        else:
            square = strip[np.ix_(r, r)]
            costly.append((g - int(square[square < 0].sum()) // 2, pair))
    best = max((gain for _, gain in finished.values()), default=-math.inf)
    for bound, pair in sorted(costly, key=lambda item: -item[0]):
        if bound < best:
            break
        jc, jg = _joint_cols(state, *pair)
        finished[pair] = jc, jg - _overlap(strip, pair[0], jc)
        best = max(best, finished[pair][1])
    winner = max((f for f in finals if f in finished), key=lambda f: finished[f][1])
    return (winner[0], *finished[winner])


def _copy_free(state: StepState, rows: tuple[int, ...], cols: tuple[int, ...]) -> bool:
    """Whether `_joint_cols` would keep `cols`, known without its copy: rows ==
    cols, or a reduction set of at most one element (a no-op, always admitted)."""
    n = state.trees[0].n  # cyclic: a sorted s holding the anchor 0 is reduced by its n - len(s) complement
    return rows == cols or min(n - len(s) if state.cyclic and s[0] == 0 else len(s) for s in (rows, cols)) <= 1


def _joint_cols(state: StepState, rows: tuple[int, ...], cols: tuple[int, ...], gain: int):
    """A column set that fits the node tree together with `rows`, and its gain.

    Returns `cols` and its column-step `gain` when a copy of the tree,
    reduced by `rows`, still admits it; otherwise picks again on that copy
    with the column weights of `rows`, the ones `cols` was picked with.
    The new pick is never empty: `cols` had positive gain, so some node has
    positive weight, and every singleton is admitted.  A pair `_copy_free`
    accepts keeps `cols` without this copy.
    """
    tree = state.trees[0].copy()
    tree.reduce(state.reduction_set(tree, rows))
    if tree.admits(state.reduction_set(tree, cols)):
        return cols, gain
    return state.pick(tree, step_weights(state, [rows]))[0]


# -- seeds --------------------------------------------------------------------


def seeds_sample(d: BinaryMatrix, fraction: float, rng_seed: int) -> list[int]:
    """Uniform sample (without replacement) of the seed columns, sorted.

    The sample size is floor(fraction * n_cols), at least 1. It is
    `philox.choice`: numpy's `Generator(Philox(rng_seed)).choice`, drawn
    without numpy.random, whose load costs a process about 6 MB.
    """
    if not 0 < fraction <= 1:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return philox.choice(d.n_cols, max(1, math.floor(fraction * d.n_cols)), rng_seed).tolist()


# -- full factorization ---------------------------------------------------------


def factorize(
    d: BinaryMatrix,
    k: int,
    variant: str = "plain",
    seeds: Sequence[int] | None = None,
) -> Factorization:
    """Greedy rank-k factorization; stops early when no tile helps.

    Every round starts one alternation from each seed column (default: all
    columns) and accepts the tile of highest gain, the earliest seed among
    equal gains.  The seeds of a round run in lockstep (`_lockstep`)
    over one memo of half-steps: the trees and scores change only when a
    tile is accepted, so each distinct half-step is evaluated once per
    round, with the result a fresh evaluation would give.

    The symmetric variants assume D = D^T and do not check it.  On a
    non-symmetric square input the surrogate scores D and D^T together,
    every tile is added with its transpose, and `error` counts the
    disagreements against D as given.

    The score strips are freed once the orders are read off the trees, before
    the reconstruction for `error` is built, and `hamming_error` counts in
    blocks of rows: so the end of a run holds `d` and the reconstruction, as
    the rounds hold `d` and the strip, and never a third matrix-sized array.
    """
    if k < 1:
        raise ValueError(f"rank must be at least 1, got {k}")
    state = StepState.initial(d, variant)
    seeds = list(range(d.n_cols)) if seeds is None else [int(j) for j in seeds]
    if not seeds:
        raise ValueError("seed list is empty")
    if not all(0 <= j < d.n_cols for j in seeds):
        raise ValueError(f"seed columns must lie in 0..{d.n_cols - 1}")
    factors: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for _ in range(k):
        rows, cols, gain = alternate_seeds(state, seeds)
        if gain <= 0:
            break
        _accept(state, rows, cols)
        factors.append((rows, cols))

    row_order, col_order = (tree.frontier() for tree in state.trees)
    del state  # frees the score strips before the reconstruction is built
    f = Factorization(variant, factors, row_order, col_order, error=0, rank_requested=k)
    f.error = hamming_error(d, reconstruct(f))
    f.rel_error = f.error / d.nnz if d.nnz else 0.0
    return f


def _accept(state: StepState, rows: tuple[int, ...], cols: tuple[int, ...]) -> None:
    for side, tree, s in zip(("row", "column"), state.trees, (rows, cols)):
        if not tree.reduce(state.reduction_set(tree, s)):
            raise AssertionError(f"accepted {side} set {s} incompatible with its tree")
    state.mark(rows, cols)


# -- report format -----------------------------------------------------------


def format_report(f: Factorization) -> str:
    """Stable plain-text serialization of a factorization."""
    lines = [
        f"VARIANT {f.variant}",
        f"RANK {f.rank_used}/{f.rank_requested}",
        f"ERROR {f.error} RELERR {f.rel_error:.4f}",
    ]
    if f.symmetric:
        lines.append("NODE-ORDER " + " ".join(map(str, f.node_order)))
    else:
        lines.append("ROW-ORDER " + " ".join(map(str, f.row_order)))
        lines.append("COL-ORDER " + " ".join(map(str, f.col_order)))
    for t, (rows, cols) in enumerate(f.factors):
        lines.append(
            f"FACTOR {t} ROWS " + " ".join(map(str, rows)) + " COLS " + " ".join(map(str, cols))
        )
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> Factorization:
    """Read a report written by `format_report`.

    Raises FormatError, with the 1-based line number, when the report is
    truncated or malformed: a missing or non-integer field, a negative ERROR,
    a RELERR that is negative or not finite, a RANK whose used count exceeds
    the requested one (or a requested count below 1), an order that is not a
    permutation, a factor numbered out of sequence, with an empty side or an
    index out of range, a factor that is not contiguous (cyclically, in the
    cyclic variants) under the stored orders, or fewer or more factors than
    its RANK line says.  Factor sides are returned as sorted tuples without
    duplicates.  Lines and tokens follow the sparse loader's rules: "\\n",
    "\\r\\n" and a lone "\\r" end a line, and tokens are separated by the
    ASCII blanks of `bitmat._BLANKS` alone, so any other character, such as
    "\\u3000" or "\\u2028", is part of a token.
    """
    raw = _LINE_END.split(text)  # "" after a final line end: no line of its own
    lines = [(no, toks) for no, ln in enumerate(raw, start=1) if (toks := _TOKEN.findall(ln))]
    end = len(raw) + (raw[-1] != "")  # the line a truncated report is missing

    def fields(i: int, key: str) -> tuple[int, list[str]]:
        if i >= len(lines):
            raise FormatError(f"report ends before its {key} line", end)
        no, toks = lines[i]
        if toks[0] != key:
            raise FormatError(f"expected a {key} line, got {toks[0]!r}", no)
        return no, toks[1:]

    no, toks = fields(0, "VARIANT")
    variant = " ".join(toks)
    if variant not in VARIANTS:
        raise FormatError(f"unknown variant {variant!r}", no)
    no, toks = fields(1, "RANK")
    parts = toks[0].split("/") if len(toks) == 1 else []
    if len(parts) != 2:
        raise FormatError("expected 'RANK <used>/<requested>'", no)
    used, requested = integers(parts, no)
    if requested < 1 or not 0 <= used <= requested:
        raise FormatError(f"RANK {used}/{requested} needs 0 <= used <= requested and requested >= 1", no)
    no, toks = fields(2, "ERROR")
    if len(toks) != 3 or toks[1] != "RELERR":
        raise FormatError("expected 'ERROR <cells> RELERR <ratio>'", no)
    (error,) = integers(toks[:1], no)
    if error < 0:
        raise FormatError(f"ERROR is negative: {error}", no)
    try:
        rel = float(toks[2])
    except ValueError:
        raise FormatError(f"RELERR is not a number: {toks[2]!r}", no) from None
    if not (math.isfinite(rel) and rel >= 0):
        raise FormatError(f"RELERR is not a finite non-negative number: {toks[2]!r}", no)
    kind = Variant(variant)
    keys = ("NODE-ORDER",) if kind.symmetric else ("ROW-ORDER", "COL-ORDER")
    orders = []
    for i, key in enumerate(keys, start=3):
        no, toks = fields(i, key)
        order = integers(toks, no)
        if sorted(order) != list(range(len(order))):
            raise FormatError(f"{key} is not a permutation of 0..{len(order) - 1}", no)
        orders.append((order, positions(order)))
    (row_order, row_pos), (col_order, col_pos) = orders[0], orders[-1]

    factors = []
    for no, toks in lines[3 + len(keys) :]:
        if len(toks) < 3 or toks[0] != "FACTOR" or toks[2] != "ROWS" or "COLS" not in toks:
            raise FormatError("expected 'FACTOR <t> ROWS <rows> COLS <cols>'", no)
        if integers(toks[1:2], no) != (len(factors),):
            raise FormatError(f"expected factor number {len(factors)}, got {toks[1]}", no)
        split_at = toks.index("COLS")
        tile = []
        for side, pos in ((toks[3:split_at], row_pos), (toks[split_at + 1 :], col_pos)):
            members = tuple(sorted(set(integers(side, no))))
            if not members:
                raise FormatError("factor has an empty side", no)
            if members[0] < 0 or members[-1] >= len(pos):
                raise FormatError(f"factor index out of range 0..{len(pos) - 1}", no)
            if run_under(members, pos, kind.cyclic) is None:
                raise FormatError("factor is not contiguous under the stored order", no)
            tile.append(members)
        factors.append(tuple(tile))
    if len(factors) != used:
        raise FormatError(f"RANK says {used} factors, the report has {len(factors)}", end)
    return Factorization(variant, factors, row_order, col_order, error=error, rank_requested=requested, rel_error=rel)
