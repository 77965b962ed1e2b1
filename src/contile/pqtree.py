"""PQ-tree over a fixed universe of indices.

The tree encodes exactly the permutations of the universe under which every
accepted set is contiguous: children of a P-node may be permuted freely,
children of a Q-node may only be reversed as a block.  `reduce` intersects
the represented order set with the orders making one more set contiguous,
using the classic template rewriting (P1-P6, Q1-Q3; Booth & Lueker 1976)
applied bottom-up over the pertinent subtree; Q2/Q3 are one pattern over the
children's one-character labels, `_Q_LABELS`: empty* partial? full* partial? empty*.

The tree is `kind` plus `children`, two lists indexed by node id, and the
root's id; there are no parent links.  Node u < n is the leaf of element u.
Every tree a caller holds is in canonical form (see `_canonicalize`): its P-
and Q-nodes are numbered n, n+1, ... in postorder, so `internal` is a range
that lists every node after its children, and the arena holds no other node.
The reduction walks that range, so it runs only on a canonical tree, and
counts pertinence in the same walk.  A template matches on the labels of a
node's children alone, so `_decide` settles the whole reduction, reading the
tree only, before `_rewrite` changes it: `admits` is that decision alone, and
a failed `reduce` returns before any rewrite, so no reduction copies the
tree.  A rewritten tree is canonicalized.  `compiled` lays the internal
nodes out as numpy arrays in the same ids for the batched DP of `optset`, one
padded children matrix per kind and height, built on first use after each
canonicalization.
"""

from __future__ import annotations

import re
from itertools import permutations, product
from typing import Iterable

import numpy as np

LEAF, PNODE, QNODE = 0, 1, 2

_EMPTY, _FULL, _PARTIAL = "e", "f", "p"  # child labels, one character each
_Q_LABELS = re.compile("e*(p)?f*(p)?(e*)")  # Q2/Q3 on a Q-node's labels in one orientation

ENUMERATION_BOUND = 8  # largest universe `enumerate_orders` will expand


class PQTree:
    __slots__ = ("n", "kind", "children", "root", "_compiled")

    def __init__(self, n: int):
        """The tree admitting all n! orders: one P-node over the leaves (a lone leaf if n == 1)."""
        if n < 1:
            raise ValueError("universe must contain at least one element")
        self.n = n
        self.kind: list[int] = [LEAF] * n
        self.children: list[list[int]] = [[] for _ in range(n)]
        self.root = self._group(list(range(n)))
        self._compiled = None

    # -- arena plumbing --------------------------------------------------

    def _new(self, kind: int) -> int:
        self.kind.append(kind)
        self.children.append([])
        return len(self.kind) - 1

    def _group(self, ids: list[int]) -> int:
        """Wrap ids under a fresh P-node; a single id is returned as-is."""
        if len(ids) == 1:
            return ids[0]
        g = self._new(PNODE)
        self.children[g] = ids
        return g

    @property
    def internal(self) -> range:
        """The P- and Q-nodes of a canonical tree, every node after its children."""
        return range(self.n, len(self.kind))

    def copy(self) -> "PQTree":
        t = PQTree.__new__(PQTree)
        t.n = self.n
        t.kind = list(self.kind)
        t.children = [list(c) for c in self.children]
        t.root = self.root
        t._compiled = self._compiled
        return t

    def compiled(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """The internal nodes grouped for the batched DP of `optset`, children first.

        A group is (kind, nodes, children): the nodes of one kind and one
        height, and a `children` matrix with a row per node, its ordered
        children padded with the sentinel id len(kind).  Groups come by
        height, so every child is in an earlier group (or is a leaf).  Built
        on the first call after each canonicalization and kept until the next.
        """
        if self._compiled is None:
            sentinel = len(self.kind)
            height = [0] * sentinel
            by_level: dict[tuple[int, int], list[int]] = {}
            for v in self.internal:
                height[v] = h = 1 + max(height[c] for c in self.children[v])
                by_level.setdefault((h, self.kind[v]), []).append(v)
            groups = []
            for (_, kind), vs in sorted(by_level.items()):
                cs = np.full((len(vs), max(len(self.children[v]) for v in vs)), sentinel)
                for row, v in zip(cs, vs):
                    row[: len(self.children[v])] = self.children[v]
                groups.append((kind, np.array(vs), cs))
            self._compiled = tuple(groups)
        return self._compiled

    # -- queries ----------------------------------------------------------

    def frontier(self) -> tuple[int, ...]:
        """Left-to-right leaf order of the tree as stored."""
        return tuple(v for v in self._postorder(self.root) if v < self.n)

    def admits(self, s: Iterable[int]) -> bool:
        """True iff some admitted order keeps s contiguous; only reads the tree."""
        return self._decide(self._checked(s)) is not None

    def reduce(self, s: Iterable[int]) -> bool:
        """Constrain the tree so s must be contiguous, and put it back in canonical form.

        Returns False (tree untouched) when no admitted order keeps s
        contiguous; the reduction is decided before anything is rewritten.
        Reducing by a set of at most one element is a documented no-op.
        """
        steps = self._decide(self._checked(s))
        if steps is None:
            return False
        if steps:
            for step in steps:
                self._rewrite(*step)
            self._canonicalize()
        return True

    def _checked(self, s: Iterable[int]) -> frozenset:
        s = frozenset(int(u) for u in s)
        for u in s:
            if not 0 <= u < self.n:
                raise ValueError(f"element {u} outside universe of size {self.n}")
        return s

    # -- reduction --------------------------------------------------------

    def _decide(self, s: frozenset) -> list[tuple] | None:
        """The template steps that reduce the tree by s, children first, or None
        when no template matches; reads the tree only.

        The walk follows `internal`, so the tree must be canonical.  A node's
        count of s is its children's sum; the first node counting all of s is
        the pertinent root, and every earlier non-zero count lies under it.
        A template matches on the children's labels alone, so no step waits
        on a rewrite; full nodes (P1/Q1) need none.
        """
        size = len(s)
        if size <= 1:
            return []
        count = [0] * len(self.kind)  # leaves of s under each node; no later node lists a new one
        for u in s:
            count[u] = 1
        labels = dict.fromkeys(s, _FULL)
        steps = []
        for v in self.internal:  # children first, so every child is labelled before its parent
            k = sum(map(count.__getitem__, self.children[v]))
            if k == 0:
                continue
            step = self._match(v, labels, k == size)
            if step is None:
                return None
            if step:
                steps.append(step)
            if k == size:
                return steps
            count[v] = k
            labels[v] = _PARTIAL if step else _FULL
        raise AssertionError("pertinent root missing from internal")

    def _match(self, v: int, labels, root: bool) -> tuple | None:
        """The step for pertinent node v: () when v is full, None when no template matches.

        P2-P6 allow one partial child below the pertinent root and two at it;
        the step is (v, root, empty, full, partial children).  Q2/Q3 need the
        labels of the children, as stored or (below the root) reversed, to
        match `_Q_LABELS`, and below the root its second partial and trailing
        empty groups to be empty, so the run ends full; the step is (v, the
        children so oriented, index of each partial child or -1).
        """
        em, fu, pa = [], [], []
        for c in self.children[v]:
            lab = labels.get(c, _EMPTY)
            (em if lab == _EMPTY else fu if lab == _FULL else pa).append(c)
        if not em and not pa:
            return ()  # P1 / Q1
        if self.kind[v] == PNODE:
            return (v, root, em, fu, pa) if len(pa) <= (2 if root else 1) else None
        for cs in (self.children[v], self.children[v][::-1])[: 1 if root else 2]:
            m = _Q_LABELS.fullmatch("".join([labels.get(c, _EMPTY) for c in cs]))
            if m and (root or not (m[2] or m[3])):
                return (v, cs, m.start(1), m.start(2))
        return None

    def _rewrite(self, v: int, *step) -> None:
        """Apply one step of `_decide` in place; each partial child's step came first.

        Partial children are inlined, the second one reversed, and left
        unlinked for `_canonicalize` to drop.  A P-node groups its full
        children between them; below the pertinent root its empty children
        join the run as one Q-node, so a partial node reads from empty to
        full, and at the root they stay beside the new Q-node.
        """
        if self.kind[v] == QNODE:
            cs, p1, p2 = step
            if p2 >= 0:  # the later index first, so p1 still points at its child
                cs[p2 : p2 + 1] = reversed(self.children[cs[p2]])
            if p1 >= 0:
                cs[p1 : p1 + 1] = self.children[cs[p1]]
            self.children[v] = cs
            return
        root, em, fu, pa = step
        run = list(self.children[pa[0]]) if pa else []
        if fu:
            run.append(self._group(fu))
        if len(pa) == 2:
            run.extend(reversed(self.children[pa[1]]))
        if em and root:
            nq = self._new(QNODE)
            self.children[nq] = run
            self.children[v] = em + [nq]
        else:
            self.kind[v] = QNODE
            self.children[v] = ([self._group(em)] if em else []) + run

    # -- canonical form -----------------------------------------------------

    def _canonicalize(self) -> None:
        """Rebuild the arena from the nodes reachable from the root: leaf u
        stays node u, and the P- and Q-nodes are renumbered n, n+1, ... in
        postorder, so unlinked nodes disappear.  A 1-child node is spliced
        (it takes its child's new id), a 2-child Q-node becomes a P-node, and
        the layout is fixed: P-children sorted by smallest leaf, Q-nodes
        oriented so the first child holds the smaller leaf."""
        n = self.n
        new = list(range(len(self.kind)))  # old id -> new id; leaves keep theirs
        kind, children = self.kind[:n], self.children[:n]
        minleaf = list(range(n))
        stack, walk = [self.root], []  # the P- and Q-nodes under the (internal) root, parents first
        while stack:
            walk.append(v := stack.pop())
            stack.extend([c for c in self.children[v] if c >= n])
        for v in reversed(walk):
            cs = [new[c] for c in self.children[v]]
            if len(cs) == 1:
                new[v] = cs[0]
                continue
            k = PNODE if len(cs) == 2 else self.kind[v]
            if k == PNODE:
                cs.sort(key=minleaf.__getitem__)
            elif minleaf[cs[0]] > minleaf[cs[-1]]:
                cs.reverse()
            new[v] = len(kind)
            kind.append(k)
            children.append(cs)
            minleaf.append(min(minleaf[c] for c in cs))
        self.kind, self.children, self.root = kind, children, new[self.root]
        self._compiled = None

    def _postorder(self, v: int) -> list[int]:
        out = []
        stack = [v]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(self.children[v])
        out.reverse()
        return out

    # -- debugging / test support -------------------------------------------

    def enumerate_orders(self) -> set[tuple[int, ...]]:
        """All admitted leaf orders; exponential, guarded for test scale."""
        if self.n > ENUMERATION_BOUND:
            raise ValueError(f"universe {self.n} exceeds enumeration bound {ENUMERATION_BOUND}")

        def orders(v: int) -> list[tuple[int, ...]]:
            if v < self.n:
                return [(v,)]
            parts = [orders(c) for c in self.children[v]]
            out = []
            if self.kind[v] == PNODE:
                arrangements = permutations(range(len(parts)))
            else:
                idx = list(range(len(parts)))
                arrangements = [idx, idx[::-1]]
            for arr in arrangements:
                for combo in product(*(parts[i] for i in arr)):
                    out.append(tuple(x for piece in combo for x in piece))
            return out

        return set(orders(self.root))

    def to_string(self) -> str:
        """Debug serialization, e.g. ``P(0, Q(1, 2, 3))``."""

        def fmt(v: int) -> str:
            if v < self.n:
                return str(v)
            tag = "P" if self.kind[v] == PNODE else "Q"
            return f"{tag}({', '.join(fmt(c) for c in self.children[v])})"

        return fmt(self.root)

    def validate(self) -> None:
        """Raise AssertionError when structural invariants are broken: no
        node listed twice in `children`, arities, leaf u is node u, every
        child is numbered below its parent, and every node is reachable."""
        seen = set()
        stack = [self.root]
        while stack:
            v = stack.pop()
            assert v not in seen, f"node {v} reached twice"
            seen.add(v)
            assert (self.kind[v] == LEAF) == (v < self.n), f"leaves are not the nodes 0..{self.n - 1}"
            if v < self.n:
                continue
            arity = len(self.children[v])
            if self.kind[v] == PNODE:
                assert arity >= 2, "P-node with fewer than 2 children"
            else:
                assert arity >= 3, "Q-node with fewer than 3 children"
            for c in self.children[v]:
                assert c < v, f"child {c} is not numbered below its parent {v}"
                stack.append(c)
        assert len(seen) == len(self.kind), "unreachable node in the arena"
