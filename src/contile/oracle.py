"""References for the engine, and the batteries that run them.

The brute-force references are deliberately naive: they define correct
answers for the engine, the set-selection DP, and the rank-1 heuristic at
test scale, and hard size guards keep them from ever running on production
inputs.  The scalar DP (`scalar_counters`, `scalar_extract`) is the
set-selection recurrence one weight vector and one node at a time: the
exact reference, tie-breaks included, for the batched kernel in `optset`.

Each battery in `BATTERIES` runs random cases against them and returns a
counterexample string, or None when every case agrees; `contile check` runs
them all, and the tests call them with fixed seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, combinations, permutations
from typing import Iterable, Sequence

import numpy as np

from .bitmat import BinaryMatrix, is_cyclic_under, is_unimodal_under
from .factorizer import StepState, _half_steps, factorize
from .optset import best_compatible_sets, best_cyclic_sets, compute_counters, split
from .pqtree import PNODE, PQTree

MAX_ORDER_UNIVERSE = 8
MAX_STEP_UNIVERSE = 10
MAX_RANK1_CELLS = 16


def brute_orders(sets: Iterable[Iterable[int]], n: int, cyclic: bool = False) -> set[tuple[int, ...]]:
    """All permutations of range(n) keeping every set contiguous."""
    if n > MAX_ORDER_UNIVERSE:
        raise ValueError(f"universe {n} exceeds brute-force bound {MAX_ORDER_UNIVERSE}")
    sets = [tuple(s) for s in sets]
    check = is_cyclic_under if cyclic else is_unimodal_under
    return {p for p in permutations(range(n)) if check(sets, p)}


def brute_compatible_sets(tree: PQTree) -> tuple[set[frozenset], set[frozenset]]:
    """All compatible sets (the empty set included) and all border-compatible
    sets of the tree, read off its enumerated orders.  Runs are collected as
    bitmasks: a universal tree over 8 elements has 40,320 orders."""
    comp, bord = {0}, set()
    for o in tree.enumerate_orders():
        for i in range(len(o)):
            mask = 0
            for u in o[i:]:
                mask |= 1 << u
                comp.add(mask)
                if i == 0:
                    bord.add(mask)  # a prefix
            bord.add(mask)  # the suffix o[i:]
    members = lambda mask: frozenset(u for u in range(tree.n) if mask >> u & 1)  # noqa: E731
    return {members(m) for m in comp}, {members(m) for m in bord}


def brute_best_row(d: BinaryMatrix, cover: np.ndarray, fixed: Sequence[int], tree: PQTree):
    """Exhaustive best tree-compatible column set for the given fixed rows.

    Maximizes the sum of per-column weights (uncovered ones minus uncovered
    zeros restricted to the fixed rows) over every admissible subset plus
    the empty set.  Ties prefer fewer columns, then lexicographic order.
    """
    if tree.n > MAX_STEP_UNIVERSE:
        raise ValueError(f"universe {tree.n} exceeds brute-force bound {MAX_STEP_UNIVERSE}")
    fixed = np.asarray(sorted(fixed), dtype=np.int64)
    if fixed.size == 0:
        raise ValueError("fixed row set is empty")
    sub = d.dense()[fixed, :]
    uncov = ~cover[fixed, :]
    w = (sub & uncov).sum(axis=0).astype(np.int64) - (~sub & uncov).sum(axis=0).astype(np.int64)
    gain = lambda s: int(w[list(s)].sum())  # noqa: E731
    subsets = (s for size in range(tree.n + 1) for s in combinations(range(tree.n), size))
    best = next(s for s in sorted(subsets, key=lambda s: (-gain(s), len(s), s)) if not s or tree.admits(s))
    return best, gain(best)


def brute_rank1(d: BinaryMatrix):
    """Exhaustive best single tile (row set x column set) by disagreements."""
    n, m = d.shape
    if n + m > MAX_RANK1_CELLS:
        raise ValueError(f"{n}+{m} exceeds brute-force bound {MAX_RANK1_CELLS}")
    dense = d.dense()
    nnz = d.nnz
    best = ((), (), nnz)  # empty tile
    for rmask in range(1, 1 << n):
        rows = [i for i in range(n) if rmask >> i & 1]
        ones_per_col = dense[rows, :].sum(axis=0)
        for cmask in range(1, 1 << m):
            cols = [j for j in range(m) if cmask >> j & 1]
            inside_ones = int(ones_per_col[cols].sum())
            err = nnz - 2 * inside_ones + len(rows) * len(cols)
            if err < best[2]:
                best = (tuple(rows), tuple(cols), err)
    return best


# -- scalar set-selection DP ---------------------------------------------------


@dataclass
class ScalarCounters:
    """Per-node counters of one weight vector, each a tie key `gain * scale - size`."""

    total: list[int]
    border: list[int]
    inner: list[int]
    border_tag: dict[int, tuple]
    inner_tag: dict[int, tuple]
    scale: int


def scalar_counters(tree: PQTree, w: Sequence[int]) -> ScalarCounters:
    """Bottom-up counters for weights `w`, one node at a time over `tree.internal`.

    Every value is the key `gain * scale - size` with scale = 2n + 1.  Each
    comparison is a strict `>`, so among equal keys the first candidate in
    the canonical child order wins.
    """
    n = tree.n
    w_arr = np.asarray(w, dtype=np.int64)
    if w_arr.shape != (n,):
        raise ValueError(f"weight vector length {w_arr.shape} != universe {n}")
    scale = 2 * n + 1
    keys, pad = (w_arr * scale - 1).tolist(), [0] * (len(tree.kind) - n)  # a leaf's keys; 0 until a node is visited
    total, border, inner = keys + pad, keys + pad, [max(key, 0) for key in keys] + pad
    border_tag: dict[int, tuple] = {}
    inner_tag: dict[int, tuple] = {}

    for v in tree.internal:
        cs = tree.children[v]
        if tree.kind[v] == PNODE:
            tot = base = 0
            g1 = x1 = None  # top-2 g values: the border child, and inner's run ends
            g2 = x2 = None
            iv_best = xv = None  # best child inner
            for x in cs:
                tx = total[x]
                tot += tx
                if tx > 0:
                    base += tx
                    gv = border[x] - tx
                else:
                    gv = border[x]
                if x1 is None or gv > g1:
                    g2, x2 = g1, x1
                    g1, x1 = gv, x
                elif x2 is None or gv > g2:
                    g2, x2 = gv, x
                if xv is None or inner[x] > iv_best:
                    iv_best, xv = inner[x], x
            total[v] = tot
            border[v] = base + g1
            border_tag[v] = ("pb", x1)

            ig, itag = 0, ("empty",)
            if iv_best > ig:
                ig, itag = iv_best, ("px", xv)
            chosen = []
            y = base
            for gv, x in ((g1, x1), (g2, x2)):
                if x is not None and gv > 0:
                    chosen.append(x)
                    y += gv
            if y > ig:
                ig, itag = y, ("py", tuple(chosen))
            inner[v] = ig
            inner_tag[v] = itag
            continue

        # Q-node
        pref = [0, *accumulate(total[x] for x in cs)]
        acc = total[v] = pref[-1]

        bg = btag = None
        ig, itag = 0, ("empty",)
        # running best of border(c_i) - pref(i+1) makes the i<j search O(1) per j
        best_t = border[cs[0]] - pref[1]
        best_i = 0
        for i, x in enumerate(cs):
            bxv = border[x]
            key = pref[i] + bxv  # full prefix, partial child at the right
            if btag is None or key > bg:
                bg, btag = key, ("qb", "L", i)
            key = (acc - pref[i + 1]) + bxv  # full suffix
            if key > bg:
                bg, btag = key, ("qb", "R", i)
            if inner[x] > ig:
                ig, itag = inner[x], ("qx", x)
            if i > 0:
                key = bxv + pref[i] + best_t
                if key > ig:
                    ig, itag = key, ("qy", best_i, i)
                t = bxv - pref[i + 1]
                if t > best_t:
                    best_t, best_i = t, i
        border[v] = bg
        border_tag[v] = btag
        inner[v] = ig
        inner_tag[v] = itag

    return ScalarCounters(total, border, inner, border_tag, inner_tag, scale)


def scalar_extract(tree: PQTree, c: ScalarCounters, v: int, inner: bool = True) -> list[int]:
    """The inner (or border) set of v's subtree that the counters chose.

    Every tag names end children, taken by their own border sets, and the
    children between or beside them, taken whole.
    """
    if v < tree.n:
        return [] if inner and c.inner[v] <= 0 else [v]
    tag = (c.inner_tag if inner else c.border_tag)[v]
    if tag[0] == "empty":
        return []
    if tag[0] in ("px", "qx"):
        return scalar_extract(tree, c, tag[1], True)
    cs = tree.children[v]
    if tag[0] in ("pb", "py"):
        ends = (tag[1],) if tag[0] == "pb" else tag[1]
        whole = [x for x in cs if x not in ends and c.total[x] > 0]
    elif tag[0] == "qb":
        _, side, i = tag
        ends, whole = (cs[i],), cs[:i] if side == "L" else cs[i + 1 :]
    else:  # qy
        _, i, j = tag
        ends, whole = (cs[i], cs[j]), cs[i + 1 : j]
    out = []
    for x in ends:
        out.extend(scalar_extract(tree, c, x, False))
    for x in whole:
        out.extend(u for u in tree._postorder(x) if u < tree.n)
    return out


def scalar_compatible_set(tree: PQTree, w: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """`optset.best_compatible_sets` for the one weight row `w`, by the scalar DP."""
    c = scalar_counters(tree, w)
    return tuple(sorted(scalar_extract(tree, c, tree.root))), split(c.inner[tree.root], c.scale)[0]


def scalar_cyclic_set(tree: PQTree, w: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """`optset.best_cyclic_sets` for one weight row by the scalar DP: the straight
    answer for w, or the complement of the one for -w when that weighs strictly more."""
    w_arr = np.asarray(w, dtype=np.int64)
    c1 = scalar_counters(tree, w_arr)
    c2 = scalar_counters(tree, -w_arr)
    g1 = split(c1.inner[tree.root], c1.scale)[0]
    g_comp = int(w_arr.sum()) + split(c2.inner[tree.root], c2.scale)[0]
    if g_comp > g1:
        inside = set(scalar_extract(tree, c2, tree.root))
        return tuple(u for u in range(tree.n) if u not in inside), g_comp
    return tuple(sorted(scalar_extract(tree, c1, tree.root))), g1


def batched_mismatch(tree: PQTree, w: np.ndarray) -> str | None:
    """Where the batched kernel and pickers differ from the scalar DP on the
    rows of `w`, in its own dtype: per-node counters (for w and -w), sets and gains."""
    w = np.asarray(w)
    both = np.concatenate([w, -w])
    c = compute_counters(tree, both)
    for r, row in enumerate(both):
        ref = scalar_counters(tree, row)
        for name in ("total", "border", "inner"):
            got = getattr(c, name)[: len(tree.kind), r].tolist()
            if got != getattr(ref, name):
                return f"row {r} {name}: batched {got}, scalar {getattr(ref, name)}"
    for batched, scalar in ((best_compatible_sets, scalar_compatible_set), (best_cyclic_sets, scalar_cyclic_set)):
        got = batched(tree, w)
        want = [scalar(tree, row) for row in w]
        if got != want:
            return f"{batched.__name__}: batched {got}, scalar {want}"
    return None


# -- batteries ------------------------------------------------------------------


def check_orders(rng: random.Random, cases: int) -> str | None:
    """`admits` and `reduce` agree with brute force; a failed reduce leaves the orders alone."""
    for _ in range(cases):
        n = rng.randint(2, 6)
        tree = PQTree(n)
        family: list[frozenset] = []
        for _ in range(rng.randint(1, 5)):
            # half the sets are pairs, which build the sibling subtrees that a
            # later set leaves partial side by side (template P6)
            s = frozenset(rng.sample(range(n), rng.choice((2, rng.randint(1, n)))))
            where = f"orders: family={[set(x) for x in family]} set={set(s)} n={n}"
            expect = brute_orders(family + [s], n)
            admitted = tree.admits(s)
            ok = tree.reduce(s)
            if admitted != bool(expect) or ok != bool(expect):
                return f"{where}: admits={admitted} reduce={ok}, brute says {bool(expect)}"
            if not ok:
                if tree.enumerate_orders() != brute_orders(family, n):
                    return f"{where}: the failed reduce changed the orders"
                break
            family.append(s)
            try:
                tree.validate()
            except AssertionError as exc:
                return f"{where}: invalid tree {tree.to_string()}: {exc}"
            if tree.enumerate_orders() != expect:
                return f"{where}: enumerate != brute"
    return None


def check_optset(rng: random.Random, cases: int) -> str | None:
    """The scalar DP's best compatible set and border counter agree with brute
    force on trees of n <= 8, and the batched kernel agrees with the scalar DP
    on trees of n <= 30: int16 blocks, as `step_weights` makes them, and a
    quarter int64 blocks past the int32 key bound."""
    for _ in range(cases):
        n = rng.randint(2, 8)
        tree = PQTree(n)
        for _ in range(rng.randint(0, 3)):
            tree.reduce(frozenset(rng.sample(range(n), rng.randint(2, n))))
        w = [rng.randint(-5, 5) for _ in range(n)]
        comp, bord = brute_compatible_sets(tree)
        want_inner = max(sum(w[u] for u in s) for s in comp)
        want_border = max(sum(w[u] for u in s) for s in bord)
        c = scalar_counters(tree, w)
        border = split(c.border[tree.root], c.scale)[0]
        s, g = scalar_compatible_set(tree, w)
        if (g != want_inner or border != want_border or sum(w[u] for u in s) != g
                or frozenset(s) not in comp or split(c.inner[tree.root], c.scale) != (g, len(s))):
            return (
                f"optset: tree={tree.to_string()} w={w}: got {s} inner={g} border={border}, "
                f"want {want_inner}/{want_border}"
            )
        n = rng.randint(2, 30)
        tree, order = PQTree(n), rng.sample(range(n), n)
        for i in (rng.randrange(n) for _ in range(rng.randint(0, 6))):  # intervals of one order: overlaps build Q-nodes
            tree.reduce(order[i : rng.randint(i + 1, n)])
        weights = rng.choice(((-1, 0, 0, 1), range(-5, 6)))
        rows = [[rng.choice(weights) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        block = np.array([rng.choice(rows) for _ in range(rng.randint(1, 6))])
        block = block << 27 if rng.random() < 0.25 else block.astype(np.int16)
        bad = batched_mismatch(tree, block)
        if bad is not None:
            return f"optset: tree={tree.to_string()} w={block.tolist()}: {bad}"
    return None


def check_step(rng: random.Random, cases: int) -> str | None:
    """One row step and one column step of the factorizer reach the
    brute-force best gain with as few elements, on a cover the battery keeps
    itself."""
    for _ in range(cases):
        n, m = rng.randint(3, 8), rng.randint(3, 8)
        dense = np.array([[rng.random() < 0.4 for _ in range(m)] for _ in range(n)])
        d = BinaryMatrix(dense)
        state = StepState.initial(d, "plain")
        row_tree, col_tree = state.trees
        cover = np.zeros((n, m), dtype=bool)
        for _ in range(rng.randint(0, 3)):
            r = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            cset = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
            if row_tree.admits(r) and col_tree.admits(cset):
                row_tree.reduce(r)
                col_tree.reduce(cset)
                state.mark(r, cset)
                cover[np.ix_(r, cset)] = True
        fixed = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        fixed_cols = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
        for side, dd, cov, fx in ((1, d, cover, fixed), (0, BinaryMatrix(dense.T), cover.T, fixed_cols)):
            s, g = _half_steps(state, {}, [fx], side)[0]
            s2, g2 = brute_best_row(dd, cov, fx, state.trees[side])
            if (g, len(s)) != (g2, len(s2)):
                return (
                    f"step: D={dense.astype(int).tolist()} side={side} fixed={fx} "
                    f"tree={state.trees[side].to_string()}: got {s}/{g}, brute {s2}/{g2}"
                )
    return None


def check_symmetric(rng: random.Random, cases: int) -> str | None:
    """Every symmetric tile fits the one node order the factorization reports."""
    for case in range(cases):
        variant = ("sym", "cyclic-sym")[case % 2]
        n = rng.randint(3, 6)
        half = np.array([[rng.random() < 0.4 for _ in range(n)] for _ in range(n)])
        dense = half | half.T
        try:
            f = factorize(BinaryMatrix(dense), rng.randint(1, 3), variant=variant)
        except AssertionError as exc:
            return f"symmetric: {variant} D={dense.astype(int).tolist()}: {exc}"
        sets = [s for tile in f.factors for s in tile]
        if f.node_order not in brute_orders(sets, n, cyclic=f.cyclic):
            return (
                f"symmetric: {variant} D={dense.astype(int).tolist()}: "
                f"tiles {f.factors} do not all fit node order {f.node_order}"
            )
    return None


BATTERIES = (
    ("pq-tree orders vs brute force", check_orders),
    ("set selection vs brute force", check_optset),
    ("factor step vs brute force", check_step),
    ("symmetric tiles vs brute-force orders", check_symmetric),
)
