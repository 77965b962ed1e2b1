"""Maximum-weight tree-compatible set selection, for a block of weight rows at once.

Each universe element carries an integer weight.  A set is *compatible*
with a PQ-tree when some admitted order keeps it contiguous, and
*border-compatible* when some admitted order additionally places it at the
first or last position.  Three counters per node solve the maximization in
one bottom-up pass:

  total(v)   weight of all leaves under v
  border(v)  best non-empty border-compatible set within v's subtree
  inner(v)   best compatible set within v's subtree (empty set allowed,
             so inner(v) >= 0)

Every counter is one integer tie key `gain * (2n + 1) - size`, so one
comparison prefers the higher gain and then fewer elements.  The pass is run
for S weight rows together: each counter is an array of shape
(nodes + 1, S), row u < n the leaf of element u, then the P- and Q-nodes in
the tree's canonical numbering, and last a sentinel row (total 0, border and
inner far below any key, so it never wins and adds nothing) that pads the
children matrices of `PQTree.compiled`.  The pass visits those groups
children first.  A group is the P-nodes or the Q-nodes of one height, its
children gathered to (nodes, arity, S): a P group is reduced along the arity
axis, a Q group runs `cumsum` and `maximum.accumulate` down it.  Every choice
is an `argmax`, which returns the first maximum, so among equal keys the
earlier candidate in the canonical child order wins; the Q-node candidates
are interleaved (the run ending at the left before the one ending at the
right, and one child's inner set before the run ending at it) so that order
is the scalar reference's in `oracle`.

The decisions are index tags, three arrays of shape (nodes, S) per group:

  border_tag  P: the child taken by its border set; Q: 2i + side, the i-th
              child taken by its border set and the children left (side 0)
              or right (side 1) of it taken whole
  inner_tag   EMPTY; 2c, child c's inner set; or 2e + 1, a run.  P: the
              positive children taken whole, with e in 0..2 border-set ends
              (the border_tag child, then the end_tag child); Q: the
              children from the end_tag-th to the e-th, those two taken by
              their border sets
  end_tag     P: the second end of a run; Q: the run's first child

One top-down pass over the groups (`_extract`) reads every row's chosen set
off the tags as an S x n membership mask.  All arithmetic is exact
integers: int32 when a bound taken from the block proves it, else int64.
Every counter and candidate is the key of a set of one row's elements, or
its negative, so |value| <= bound = max over rows of sum(|w|) * (2n + 1) + n;
or it is such a value plus one NEG (a pad, after a node's real children, or
a masked candidate).  With bound <= 2**27 and NEG = -2**29 (int32's minimum
over 4), every value lies in [NEG - bound, bound], inside int32, and one
holding NEG, at most NEG + bound, stays below every real key.

`best_cyclic_sets` adds the wrap-around sets, complements of best sets for
-w, in a second pass over just the rows where they can still win.

`BLOCK_BYTES` bounds all that one pick holds at its traced peak: the weight
rows and their negation, counters, tags, marks, mask and the widest group's
gathers.  `block_rows` counts it per row from the tree's group shapes alone,
at int64, for callers to size their blocks by; an int32 pick holds about half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pqtree import PNODE, PQTree

BLOCK_BYTES = 9 * 2**19  # 4.5 MiB: bound on the traced peak of one pick, counted at int64 (`block_rows`)
EMPTY = -1  # inner_tag of an empty inner set

# what `_extract` takes of a node's subtree
_NONE, _WHOLE, _BORDER, _INNER = 0, 1, 2, 3


def split(key, scale: int):
    """The (gain, size) pair a tie key encodes, for an int or an array of keys."""
    gain = (key + scale // 2) // scale
    return gain, gain * scale - key


@dataclass
class Counters:
    """Per-node counters of a block of weight rows, each (nodes + 1, rows), and
    per group of `PQTree.compiled` its (border_tag, inner_tag, end_tag)."""

    total: np.ndarray
    border: np.ndarray
    inner: np.ndarray
    tags: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    scale: int
    ops: int = 0


def block_rows(tree: PQTree) -> int:
    """Weight rows per pick on `tree` within `BLOCK_BYTES`, counted for int64
    counters; at least 1.  Per row: three counters and two mark bytes per node
    and the sentinel, three intp tags per internal node, 9 bytes per element
    (w and -w at int32, the mask), and per cell of the widest group's children
    two counters (P) or five and an int32 (Q: `bx`, `pref`, `best_t` and the
    two of `cand`, beside `first`).  An int32 pick holds about half."""
    widest = max((cs.size * (16 if kind == PNODE else 44) for kind, _, cs in tree.compiled()), default=0)
    per_row = 26 * (len(tree.kind) + 1) + 24 * (len(tree.kind) - tree.n) + 9 * tree.n + widest
    return max(1, BLOCK_BYTES // per_row)


def compute_counters(tree: PQTree, w) -> Counters:
    """Bottom-up counters of every node for the S x n weight rows `w`.

    Sizes (and the size differences the recurrences form) lie in [-n, n],
    so sums of keys are the keys of the unions.  `ops` is the number of
    (node, row) visits: S * (n + the number of parent-child links).
    """
    n = tree.n
    w = np.asarray(w)
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"weight block of shape {w.shape} does not have {n} columns")
    s = w.shape[0]
    sentinel = len(tree.kind)
    scale = 2 * n + 1
    bound = int(np.abs(w).sum(axis=1, dtype=np.int64).max(initial=0)) * scale + n  # |key| of any set
    dtype = np.int32 if bound <= 2**27 else np.int64  # the width rule of the module docstring
    neg = np.iinfo(dtype).min // 4  # below every tie key; pads and masked candidates
    total, border, inner = (np.empty((sentinel + 1, s), dtype=dtype) for _ in range(3))
    np.multiply(w.T, scale, out=total[:n], dtype=dtype)  # in the counters' width, so int64 widens an int32 block
    total[:n] -= 1
    border[:n] = total[:n]
    np.maximum(total[:n], 0, out=inner[:n])
    total[sentinel], border[sentinel], inner[sentinel] = 0, neg, neg
    cols = np.arange(s)
    tags = []

    for kind, nodes, cs in tree.compiled():
        at = np.arange(len(nodes))[:, None]
        if kind == PNODE:  # one gathered (nodes, arity, S) array at a time
            gv = total.take(cs, axis=0)
            total[nodes] = np.einsum("gas->gs", gv)  # sums over the children; faster than sum(axis=1)
            np.maximum(gv, 0, out=gv)  # the positive children, taken whole
            base = np.einsum("gas->gs", gv)
            np.subtract(border.take(cs, axis=0), gv, out=gv)  # what making a child a border end adds
            x1 = gv.argmax(axis=1)
            g1 = gv[at, x1, cols]
            gv[at, x1, cols] = neg
            x2 = gv.argmax(axis=1)
            g2 = gv[at, x2, cols]
            del gv
            ix = inner.take(cs, axis=0)
            xv = ix.argmax(axis=1)
            iv = ix[at, xv, cols]
            del ix
            run = base + np.maximum(g1, 0) + np.maximum(g2, 0)
            best = np.maximum(iv, 0)
            take_run = run > best
            border[nodes] = base + g1
            inner[nodes] = np.where(take_run, run, best)
            tags.append((x1, np.where(take_run, 1 + 2 * (g1 > 0) + 2 * (g2 > 0), np.where(iv > 0, 2 * xv, EMPTY)), x2))
            continue

        g, a = cs.shape  # Q: prefix sums down the ordered children, (nodes, arity, S), each freed once used
        bx = border.take(cs, axis=0)
        pref = np.zeros((g, a + 1, s), dtype=dtype)
        np.cumsum(total.take(cs, axis=0), axis=1, out=pref[:, 1:])
        ends = np.empty((g, 2 * a, s), dtype=dtype)
        np.add(pref[:, :-1], bx, out=ends[:, 0::2])  # full prefix, the border child at the right
        np.subtract(pref[:, -1:], pref[:, 1:], out=ends[:, 1::2])  # full suffix
        ends[:, 1::2] += bx
        bt = ends.argmax(axis=1)
        total[nodes] = pref[:, -1]  # already: no node of a group is a child of one
        border[nodes] = ends[at, bt, cols]
        del ends
        # best border(c_i) - pref(i + 1) over i < j, and the first i reaching it
        t = bx - pref[:, 1:]
        best_t = np.maximum.accumulate(t, axis=1)
        first = np.zeros((g, a, s), dtype=np.int32)
        first[:, 1:] = np.where(t[:, 1:] > best_t[:, :-1], np.arange(1, a, dtype=np.int32)[:, None], 0)
        del t
        np.maximum.accumulate(first, axis=1, out=first)
        cand = np.empty((g, 2 * a, s), dtype=dtype)
        np.add(bx[:, 1:], pref[:, 1:-1], out=cand[:, 3::2])  # run from first[j - 1] to j
        cand[:, 3::2] += best_t[:, :-1]
        del bx, pref, best_t
        cand[:, 0::2] = inner.take(cs, axis=0)
        cand[:, 1] = neg
        it = cand.argmax(axis=1)
        best = cand[at, it, cols]
        del cand
        inner[nodes] = np.maximum(best, 0)
        tags.append((bt, np.where(best > 0, it, EMPTY), first[at, np.maximum(it // 2 - 1, 0), cols]))

    ops = s * (n + sentinel - 1)
    return Counters(total, border, inner, tags, scale, ops)


def _extract(tree: PQTree, positive: np.ndarray, tags: list) -> np.ndarray:
    """The inner sets of the root that the tags chose, an S x n bool mask.

    `positive` is `total > 0` per node and row, all the pass needs of the
    counters: a leaf's inner set is the leaf exactly when its total is
    positive.  Walks the groups parents first and marks what each child
    contributes: all its leaves, its border set, its inner set, or nothing.
    The inner tag (an inner pick or a run) is decoded once for both kinds.
    The children taken whole are marked in one pass; the few taken by their
    own border or inner sets are then written by index, one per (node, row),
    and a spare column takes the writes for the rows where a mark does not
    apply.
    """
    n, s = tree.n, positive.shape[1]
    mode = np.zeros((len(tree.kind) + 1, s), dtype=np.int8)
    mode[tree.root] = _INNER
    cols = np.arange(s)
    for (kind, nodes, cs), (bt, it, et) in zip(reversed(tree.compiled()), reversed(tags)):
        m = mode.take(nodes, axis=0)  # (nodes, S) against children (nodes, arity, S)
        g, a = cs.shape
        as_border = m == _BORDER
        j = it // 2
        run = (m == _INNER) & (it >= 0) & (it % 2 == 1)
        pick = ((m == _INNER) & (it >= 0) & (it % 2 == 0), j, _INNER)
        if kind == PNODE:  # a run of j border ends: bt, then et
            whole = positive.take(cs, axis=0) & (as_border | run)[:, None]
            marks = ((as_border | run & (j >= 1), bt, _BORDER), (run & (j >= 2), et, _BORDER), pick)
        else:  # a run from child et to child j
            i = bt // 2
            pos = np.arange(a)[:, None]
            beside = np.where((bt % 2 == 1)[:, None], pos > i[:, None], pos < i[:, None])
            whole = as_border[:, None] & beside | (run[:, None] & (pos > et[:, None]) & (pos < j[:, None]))
            marks = ((as_border, i, _BORDER), (run, et, _BORDER), (run, j, _BORDER), pick)
        whole |= (m == _WHOLE)[:, None]
        child = np.zeros((g, a + 1, s), dtype=np.int8)
        child[:, :a] = whole  # _WHOLE is 1
        at = np.arange(g)[:, None]
        for applies, x, mark in marks:
            child[at, np.where(applies, x, a), cols] = mark
        mode[cs] = child[:, :a]
    leaves = mode[:n]
    return ((leaves != _NONE) & ((leaves != _INNER) | positive[:n])).T


def _answers(mask: np.ndarray, gains: np.ndarray) -> list[tuple[tuple[int, ...], int]]:
    """Each row's (set, gain), the set read off its row of the S x n mask."""
    return list(zip((tuple(row.nonzero()[0].tolist()) for row in mask), gains.tolist()))


def _solve(tree: PQTree, w) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best set, an S x n mask, and its gain; the counters are freed on return."""
    c = compute_counters(tree, w)
    return _extract(tree, c.total > 0, c.tags), split(c.inner[tree.root], c.scale)[0]


def best_compatible_sets(tree: PQTree, w) -> list[tuple[tuple[int, ...], int]]:
    """Best tree-compatible set and its total weight for each row of the block `w`."""
    return _answers(*_solve(tree, w))


def best_cyclic_sets(tree: PQTree, w) -> list[tuple[tuple[int, ...], int]]:
    """Best set contiguous or co-contiguous under an admitted order, for each row of `w`.

    Pass one solves and extracts every row's straight set.  A wrap-around set,
    the complement of a -w answer, weighs sum(w) + gain(-w) <= P, the sum of
    the positive weights, so pass two solves -w only for the rows with P above
    their straight gain, and takes the complement where strictly heavier.
    """
    w = np.asarray(w)
    mask, gains = _solve(tree, w)
    need = np.flatnonzero(np.maximum(w, 0).sum(axis=1, dtype=np.int64) > gains)
    if need.size:
        c = compute_counters(tree, -w[need])
        wrapped = w[need].sum(axis=1, dtype=np.int64) + split(c.inner[tree.root], c.scale)[0]
        win = wrapped > gains[need]
        if win.any():
            gains[need[win]] = wrapped[win]
            mask[need[win]] = ~_extract(tree, (c.total > 0)[:, win], [tuple(t[:, win] for t in group) for group in c.tags])
    return _answers(mask, gains)
