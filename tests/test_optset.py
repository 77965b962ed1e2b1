import random

import numpy as np
import pytest

from contile import optset, oracle
from contile.factorizer import StepState, _block_weights, _half_steps, step_weights
from contile.optset import best_compatible_sets, best_cyclic_sets, compute_counters, split
from contile.oracle import brute_compatible_sets
from contile.pqtree import PNODE, QNODE, PQTree
from contile.synth import BlockSpec, flip_noise, gen_blocks

from conftest import peak_bytes, random_interval_tree, random_reduced_tree


def gains(c, *keys):
    return tuple(split(key, c.scale)[0] for key in keys)


def q_tree(n):
    """Fully ordered tree over 0..n-1: the adjacent pairs {i, i+1} chain into
    one Q-node (for n >= 3), which admits two orders, 0..n-1 and its reverse."""
    t = PQTree(n)
    for i in range(n - 1):
        assert t.reduce({i, i + 1})
    return t


class TestLeafRules:
    def test_positive_leaf(self):
        t = PQTree(1)
        c = compute_counters(t, [[5]])
        r = t.root
        assert gains(c, c.total[r, 0], c.border[r, 0], c.inner[r, 0]) == (5, 5, 5)

    def test_negative_leaf_clamps(self):
        t = PQTree(1)
        c = compute_counters(t, [[-2]])
        r = t.root
        assert gains(c, c.total[r, 0], c.border[r, 0], c.inner[r, 0]) == (-2, -2, 0)

    def test_lone_leaf_set(self):
        assert best_compatible_sets(PQTree(1), [[5]])[0] == ((0,), 5)
        assert best_compatible_sets(PQTree(1), [[0]])[0] == ((), 0)
        assert best_compatible_sets(PQTree(1), [[-2]])[0] == ((), 0)

    def test_weight_length_checked(self):
        with pytest.raises(ValueError):
            compute_counters(PQTree(3), [[1, 2]])
        with pytest.raises(ValueError):
            compute_counters(PQTree(3), [1, 2, 3])  # a block is 2-D, even of one row


class TestWeightDtype:
    def test_int32_block_is_widened(self):
        # |weight| at the 2n bound: the leaf keys 80,000 * 80,001 pass 2**31
        n = 40_000
        w = np.full((1, n), -2 * n, dtype=np.int32)
        w[0, : 3 * n // 4] = 2 * n
        ((got, gain),) = best_compatible_sets(PQTree(n), w)
        assert got == tuple(range(3 * n // 4)) and gain == 3 * n // 4 * 2 * n
        ((got, gain),) = best_cyclic_sets(PQTree(n), w)
        assert got == tuple(range(3 * n // 4)) and gain == 3 * n // 4 * 2 * n


class TestQNodeCounters:
    def test_worked_example(self):
        t = q_tree(3)
        c = compute_counters(t, [[2, -1, 3]])
        r = t.root
        assert split(c.total[r, 0], c.scale) == (4, 3)
        assert split(c.border[r, 0], c.scale) == (4, 3)  # whole line from either end
        assert split(c.inner[r, 0], c.scale) == (4, 3)   # the full run beats the single best leaf


class TestBestCompatible:
    def test_all_negative_gives_empty(self):
        s, g = best_compatible_sets(PQTree(3), [[-1, -4, -2]])[0]
        assert s == () and g == 0

    def test_p_node_free_subset(self):
        s, g = best_compatible_sets(PQTree(3), [[3, -1, 2]])[0]
        assert s == (0, 2) and g == 5

    def test_q_node_interval(self):
        s, g = best_compatible_sets(q_tree(3), [[2, -1, 3]])[0]
        assert s == (0, 1, 2) and g == 4

    def test_extracted_set_is_admitted(self, rng):
        for _ in range(60):
            n = rng.randint(2, 7)
            t = random_reduced_tree(rng, n)
            w = [rng.randint(-5, 5) for _ in range(n)]
            s, g = best_compatible_sets(t, [w])[0]
            assert sum(w[u] for u in s) == g
            assert t.admits(s)


class TestBestCyclic:
    def test_wrapping_complement(self):
        s, g = best_cyclic_sets(q_tree(3), [[2, -5, 3]])[0]
        assert s == (0, 2) and g == 5

    def test_all_positive_full_universe(self):
        s, g = best_cyclic_sets(q_tree(4), [[1, 2, 3, 4]])[0]
        assert s == (0, 1, 2, 3) and g == 10

    def test_all_negative_empty(self):
        s, g = best_cyclic_sets(q_tree(3), [[-1, -2, -3]])[0]
        assert s == () and g == 0

    def test_never_worse_than_straight(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            t = random_reduced_tree(rng, n)
            w = [rng.randint(-5, 5) for _ in range(n)]
            _, g1 = best_compatible_sets(t, [w])[0]
            _, g2 = best_cyclic_sets(t, [w])[0]
            assert g2 >= g1

    def test_matches_brute_force(self, rng):
        for _ in range(150):
            n = rng.randint(2, 7)
            t = random_reduced_tree(rng, n)
            w = [rng.randint(-5, 5) for _ in range(n)]
            comp, _ = brute_compatible_sets(t)
            universe = frozenset(range(n))
            cyclic = comp | {universe - x for x in comp}
            s, g = best_cyclic_sets(t, [w])[0]
            assert g == max(sum(w[u] for u in x) for x in cyclic)
            assert sum(w[u] for u in s) == g
            assert t.admits(s) or t.admits(tuple(sorted(universe - frozenset(s))))

    @staticmethod
    def single_pass(tree, w):
        """The one-call picker: the DP over w stacked on -w, each row's winner extracted."""
        w = np.asarray(w, dtype=np.int64)
        s = len(w)
        c = compute_counters(tree, np.concatenate([w, -w]))
        gains = split(c.inner[tree.root], c.scale)[0]
        straight, wrapped = gains[:s], w.sum(axis=1) + gains[s:]
        comp = wrapped > straight
        rows = np.arange(s) + s * comp
        mask = optset._extract(tree, (c.total > 0)[:, rows], [tuple(t[:, rows] for t in group) for group in c.tags])
        mask ^= comp[:, None]
        return optset._answers(mask, np.where(comp, wrapped, straight))

    def test_two_passes_match_one_stacked_pass(self):
        rng = random.Random(0xC1C)
        cases = {"bound rules the wrap out": 0, "wrap ties, stays straight": 0, "wrap wins": 0}
        for _ in range(250):
            n = rng.randint(2, 9)
            t = random_reduced_tree(rng, n, 1, 4)
            w = np.array([[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 8))])
            assert best_cyclic_sets(t, w) == self.single_pass(t, w), (t.to_string(), w.tolist())
            for row, (_, straight), (_, minus) in zip(w, best_compatible_sets(t, w), best_compatible_sets(t, -w)):
                wrapped = int(row.sum()) + minus
                if np.maximum(row, 0).sum() <= straight:
                    cases["bound rules the wrap out"] += 1
                elif wrapped == straight:
                    cases["wrap ties, stays straight"] += 1
                elif wrapped > straight:
                    cases["wrap wins"] += 1
        assert min(cases.values()) >= 10, cases

    def test_one_p_node_needs_no_minus_w_pass(self, monkeypatch):
        # every subset is compatible, so the straight gain is already the positive sum
        w = np.array([[3, -1, 0, 2, -4, 1], [-1, -2, -3, -4, -5, -6], [1, 1, 1, 1, 1, 1]])
        calls = []
        kernel = optset.compute_counters
        monkeypatch.setattr(optset, "compute_counters", lambda tree, w: calls.append(np.array(w)) or kernel(tree, w))
        assert best_cyclic_sets(PQTree(6), w) == [((0, 3, 5), 6), ((), 0), ((0, 1, 2, 3, 4, 5), 6)]
        assert len(calls) == 1 and np.array_equal(calls[0], w)


class TestOracleEquivalence:
    def test_inner_and_border_match_brute_force(self):
        assert oracle.check_optset(random.Random(0xC0FFEE), 150) is None

    def test_ties_pick_a_smallest_max_weight_set(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randint(2, 7)
            t = random_reduced_tree(rng, n, 0, 3)
            w = [rng.choice((-1, 0, 0, 1)) for _ in range(n)]
            comp, _ = brute_compatible_sets(t)
            best = max(sum(w[u] for u in x) for x in comp)
            fewest = min(len(x) for x in comp if sum(w[u] for u in x) == best)
            s, g = best_compatible_sets(t, [w])[0]
            assert (g, len(s)) == (best, fewest), (t.to_string(), w, s)


class TestBatchedEqualsScalar:
    """The batched kernel and pickers against the scalar DP of `oracle`: equal
    per-node counters (for w and -w), sets and gains, ties included."""

    @pytest.mark.parametrize("weights", [(-1, 0, 0, 1), tuple(range(-5, 6))])
    def test_random_blocks(self, weights):
        rng = random.Random(len(weights))
        with_q = q_groups = 0
        for _ in range(150):
            n = rng.randint(2, 30)
            r = rng.random()
            if r < 0.2:  # short intervals: Q-nodes side by side
                t = random_interval_tree(rng, n, n, longest=3)
            elif r < 0.7:
                t = random_interval_tree(rng, n, rng.randint(1, 6))
            else:
                t = random_reduced_tree(rng, n, 0, 3)
            with_q += QNODE in t.kind
            q_groups += any(kind == QNODE and len(nodes) >= 2 for kind, nodes, _ in t.compiled())
            distinct = [[rng.choice(weights) for _ in range(n)] for _ in range(rng.randint(1, 40))]
            w = np.array([rng.choice(distinct) for _ in range(rng.randint(1, 40))], dtype=np.int16)  # duplicates, at the width of `step_weights`
            assert oracle.batched_mismatch(t, w) is None, (t.to_string(), w.tolist())
        assert with_q >= 60 and q_groups >= 10

    @pytest.mark.parametrize("past", [0, 1])
    def test_blocks_at_the_int32_bound(self, past):
        # the heaviest row's key bound, sum(|w|) * (2n + 1) + n, at most 2**27
        # (int32 counters) or just past it (int64); every row of the block is
        # that heavy, some of one sign, so a root key nears the bound
        rng = random.Random(27 + past)
        for _ in range(40):
            n = rng.randint(2, 30)
            t = random_interval_tree(rng, n, rng.randint(1, 6)) if rng.random() < 0.6 else random_reduced_tree(rng, n, 0, 3)
            heaviest = (2**27 - n) // (2 * n + 1) + past
            rows = []
            for _ in range(rng.randint(1, 8)):
                parts = np.diff([0, *sorted(rng.sample(range(1, heaviest), n - 1)), heaviest])
                signs = rng.choice([np.ones(n, dtype=np.int64), -np.ones(n, dtype=np.int64),
                                    np.array([rng.choice((-1, 1)) for _ in range(n)])])
                rows.append(signs * parts)
            w = np.array([rng.choice(rows) for _ in range(rng.randint(1, 12))])
            assert compute_counters(t, w).total.dtype == (np.int64 if past else np.int32)
            assert oracle.batched_mismatch(t, w) is None, (t.to_string(), w.tolist())

    def test_a_padded_q_node_at_the_int32_bound(self):
        # Q(0, 1, 2) is padded to the arity of Q(3, 4, 5, 6), and both its
        # ends weigh -bound / 2: its border key lies near -2**26, and the
        # pad's suffix candidate, NEG itself, must stay below it
        t = PQTree(8)
        for s in ({0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}):
            assert t.reduce(s)
        half = ((2**27 - 8) // 17 - 4) // 2  # sum(|w|) * 17 + 8 <= 2**27, the four +-1 included
        w = np.array([[-half, -1, -half, 1, 0, -1, 0, 1], [-half, 1, -half, -1, 1, 0, 0, -1]])
        assert compute_counters(t, w).total.dtype == np.int32
        assert oracle.batched_mismatch(t, w) is None

    def test_q_nodes_of_one_height_share_a_group(self):
        t = PQTree(8)
        for s in ({0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}):
            assert t.reduce(s)
        assert t.to_string() == "P(Q(0, 1, 2), Q(3, 4, 5, 6), 7)"
        (q_kind, q_nodes, q_cs), (p_kind, _, _) = t.compiled()
        sentinel = len(t.kind)
        assert (q_kind, p_kind) == (QNODE, PNODE) and len(q_nodes) == 2
        assert q_cs.tolist() == [[0, 1, 2, sentinel], [3, 4, 5, 6]]
        rng = random.Random(8)
        w = [[rng.choice((-1, 0, 0, 1)) for _ in range(8)] for _ in range(60)] + [[-1] * 8, [1] * 8]
        assert oracle.batched_mismatch(t, np.array(w)) is None


class TestBlockMemory:
    """What one pick holds at its traced peak, its weight rows included, stays
    within `BLOCK_BYTES` plus SLACK (numpy's buffers and the answers' Python
    objects) at the one block size `block_rows` gives a tree, at both counter
    widths."""

    SLACK = 64 * 1024

    def held(self, state, tree, w):
        tree.compiled()  # built once per tree, not per pick
        return peak_bytes(lambda: state.pick(tree, w)) + w.nbytes

    def assert_fits(self, state, tree, w):
        # the block as the half-step weighs it, and its signs at the other width:
        # times 2**20 the key bound passes 2**27 on these trees (n >= 255), times 1 it stays below
        assert optset.block_rows(tree) == optset.block_rows(tree.copy())  # a function of the tree alone
        wide = compute_counters(tree, w[:1]).total.dtype == np.int64
        other = np.sign(w).astype(np.int32) * (1 if wide else 2**20)
        assert compute_counters(tree, other[:1]).total.dtype == (np.int32 if wide else np.int64)
        for block in (w, other):
            assert self.held(state, tree, block) <= optset.BLOCK_BYTES + self.SLACK

    def test_first_round_block_is_one_call(self, monkeypatch):
        # the 255 x 255 cyclic-sym benchmark input (seed 1) in its first round:
        # 255 singleton fixed columns on one P-node over all 255 leaves
        state = StepState.initial(flip_noise(gen_blocks(BlockSpec(10, 30, 5)), 0.1, 1), "cyclic-sym")
        fixed = [(j,) for j in range(255)]
        calls = []
        kernel = optset.compute_counters
        monkeypatch.setattr(optset, "compute_counters", lambda tree, w: calls.append(len(w)) or kernel(tree, w))
        assert len(_half_steps(state, {}, fixed, 0)) == 255
        assert calls == [255]  # one call, and no -w pass on the one P-node
        monkeypatch.setattr(optset, "compute_counters", kernel)
        assert optset.block_rows(state.trees[0]) >= 255
        self.assert_fits(state, state.trees[0], step_weights(state, fixed, 0))

    def test_a_wide_q_group_fits(self):
        # the same input's node tree reduced to one Q-node over all 255 leaves:
        # a full block of singleton rows, through the cyclic picker's -w pass
        state = StepState.initial(flip_noise(gen_blocks(BlockSpec(10, 30, 5)), 0.1, 1), "cyclic-sym")
        tree = state.trees[0]
        for i in range(254):
            assert tree.reduce((i, i + 1))
        ((kind, nodes, cs),) = tree.compiled()
        assert kind == QNODE and cs.shape == (1, 255)
        # 233 rows, about two thirds of the 255-leaf P-node's 360: a Q cell holds five counters and an int32
        assert optset.block_rows(tree) > 200
        self.assert_fits(state, tree, step_weights(state, [(j,) for j in range(optset.block_rows(tree))], 0))

    def test_a_block_past_the_int32_bound_fits_at_int64(self, monkeypatch):
        # 1005 x 1005 plain: 200-row fixed sets push the key bound past 2**27
        state = StepState.initial(flip_noise(gen_blocks(BlockSpec(40, 30, 5)), 0.1, 1), "plain")
        tree, rng = state.trees[1], random.Random(5)
        rows = optset.block_rows(tree)
        fixed = sorted(tuple(sorted(rng.sample(range(1005), 200))) for _ in range(rows + 1))
        calls = []
        kernel = optset.compute_counters
        monkeypatch.setattr(optset, "compute_counters", lambda tree, w: calls.append(len(w)) or kernel(tree, w))
        assert len(_half_steps(state, {}, fixed, 1)) == rows + 1 and calls == [rows, 1]
        monkeypatch.setattr(optset, "compute_counters", kernel)
        w = _block_weights(state, fixed[:rows], 1)
        assert kernel(tree, w[:1]).total.dtype == np.int64
        self.assert_fits(state, tree, w)


class TestInvariants:
    def test_counter_inequalities_everywhere(self, rng):
        for _ in range(60):
            n = rng.randint(2, 8)
            t = random_reduced_tree(rng, n, 0, 3)
            w = [rng.randint(-5, 5) for _ in range(n)]
            c = compute_counters(t, [w])
            for v in t._postorder(t.root):
                total, border, inner = gains(c, c.total[v, 0], c.border[v, 0], c.inner[v, 0])
                assert inner >= 0
                assert inner >= max(0, border)
                assert border >= total

    def test_monotone_weight_shift(self, rng):
        for _ in range(40):
            n = rng.randint(2, 6)
            t = random_reduced_tree(rng, n)
            w = [rng.randint(-5, 5) for _ in range(n)]
            c = compute_counters(t, [w])
            base = split(c.inner[t.root, 0], c.scale)[0]
            u = rng.randrange(n)
            w2 = list(w)
            w2[u] += rng.randint(1, 4)
            c2 = compute_counters(t, [w2])
            assert split(c2.inner[t.root, 0], c2.scale)[0] >= base

    def test_work_scales_linearly_on_chains(self):
        ops = {}
        for n in (50, 100, 200):
            t = q_tree(n)
            ops[n] = compute_counters(t, [[(-1) ** i for i in range(n)]]).ops
        assert ops[100] / ops[50] <= 2.2
        assert ops[200] / ops[100] <= 2.2

    def test_ties_prefer_fewer_elements(self):
        # zero-weight elements are left out of the chosen set
        s, g = best_compatible_sets(PQTree(4), [[2, 0, 0, 3]])[0]
        assert s == (0, 3) and g == 5
