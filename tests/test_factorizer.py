import dataclasses
import hashlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from contile.bitmat import BinaryMatrix, FormatError, hamming_error, is_cyclic_under, is_unimodal_under, reconstruct
from contile.factorizer import (
    StepState,
    _half_steps,
    _overlap,
    alternate_seeds,
    factorize,
    format_report,
    parse_report,
    seeds_sample,
    step_weights,
)
from contile import factorizer, optset, oracle
from contile.oracle import brute_compatible_sets, brute_rank1
from contile.pqtree import PQTree
from contile.synth import BlockSpec, flip_noise, gen_blocks

from conftest import peak_bytes, random_binary


VARIANTS = ("plain", "cyclic", "sym", "cyclic-sym")


def tile_matrix(n, m, rows, cols):
    dense = np.zeros((n, m), dtype=bool)
    dense[np.ix_(rows, cols)] = True
    return BinaryMatrix(dense)


class TestStepWeights:
    def test_identity_single_row(self):
        d = BinaryMatrix(np.eye(2, dtype=bool))
        st = StepState.initial(d, "plain")
        assert step_weights(st, [0]).tolist() == [1, -1]

    def test_fully_covered_is_zero(self):
        d = BinaryMatrix(np.ones((3, 3), dtype=bool))
        st = StepState.initial(d, "plain")
        st.mark((0, 1, 2), (0, 1, 2))
        assert step_weights(st, [0, 1, 2]).tolist() == [0, 0, 0]

    def test_full_column(self):
        d = tile_matrix(3, 3, (0, 1, 2), (1,))
        st = StepState.initial(d, "plain")
        w = step_weights(st, [0, 1, 2])
        assert w[1] == 3 and w[0] == -3

    def test_empty_fixed_rejected(self):
        d = BinaryMatrix(np.eye(2, dtype=bool))
        with pytest.raises(ValueError):
            step_weights(StepState.initial(d, "plain"), [])

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("side", [0, 1])
    def test_recount_from_the_cover(self, rng, variant, side):
        # side 0 weighs rows for fixed columns, side 1 columns for fixed rows
        symmetric = variant in ("sym", "cyclic-sym")
        for case in range(40):
            n = rng.randint(1, 9)
            m = n if symmetric else rng.randint(1, 9)
            dense = random_binary(rng, n, m)
            if symmetric and case % 2:
                dense = dense | dense.T  # and D != D^T in the other cases
            st = StepState.initial(BinaryMatrix(dense), variant)
            cover = np.zeros((n, m), dtype=bool)
            for _ in range(rng.randint(0, 3)):
                r = sorted(rng.sample(range(n), rng.randint(1, n)))
                c = sorted(rng.sample(range(m), rng.randint(1, m)))
                st.mark(r, c)
                cover[np.ix_(r, c)] = True
                if symmetric:
                    cover[np.ix_(c, r)] = True
            score = (dense & ~cover).astype(int) - (~dense & ~cover)  # uncovered ones minus uncovered zeros
            # one row per element of the fixed side; the symmetric variants add the mirrored strip
            strip = score + score.T if symmetric else (score.T, score)[side]
            fixed = sorted(rng.sample(range(len(strip)), rng.randint(1, len(strip))))
            assert step_weights(st, fixed, side).tolist() == strip[fixed].sum(axis=0).tolist(), (dense.tolist(), cover.tolist())

    def test_a_block_of_one_large_size_is_gathered_in_parts(self, monkeypatch):
        # a DP block of 200-node fixed sets on the 255-node benchmark input: gathered at once, 18.4 MB of int8
        state = StepState.initial(flip_noise(gen_blocks(BlockSpec(10, 30, 5)), 0.1, 1), "cyclic-sym")
        rng = random.Random(4)
        fixed = [tuple(sorted(rng.sample(range(255), 200))) for _ in range(optset.block_rows(state.trees[1]))]
        assert len(fixed) * 200 * 255 > 3 * optset.BLOCK_BYTES
        gather, peaks = factorizer.step_weights, []

        def traced(st, sets, side=1):
            peaks.append((len(sets), peak_bytes(lambda: gather(st, sets, side))))
            return gather(st, sets, side)

        monkeypatch.setattr(factorizer, "step_weights", traced)
        found = _half_steps(state, {}, fixed, 1)
        assert sum(count for count, _ in peaks) == len(fixed) and min(count for count, _ in peaks[:-1]) > 1
        # beside the int8 gather, a call holds the int16 rows it returns, its indices and numpy's casting buffer
        assert max(peak for _, peak in peaks) <= optset.BLOCK_BYTES + 64 * 1024, peaks
        monkeypatch.setattr(factorizer, "step_weights", gather)
        assert found == [_half_steps(state, {}, [fx], 1)[0] for fx in fixed]

    @pytest.mark.parametrize("n,dtype", [(16383, np.int16), (16384, np.int32)])
    def test_weight_width(self, n, dtype):
        # int16 while |weight| <= 2n fits; the n x 3 strips are broadcast views, nothing n-sized is allocated
        strip = np.broadcast_to(np.int8(-2), (n, 3))
        state = StepState("sym", (PQTree(3), PQTree(3)), (strip, strip))
        w = step_weights(state, [range(n)], 0)
        assert w.dtype == dtype and w.tolist() == [[-2 * n] * 3]

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_strip_layout(self, variant):
        st = StepState.initial(BinaryMatrix(np.eye(4, dtype=bool)), variant)
        if variant in ("sym", "cyclic-sym"):  # one node tree and one strip for both sides
            assert st.strips[0] is st.strips[1] and st.trees[0] is st.trees[1]
        else:  # the row strip is a view of the column strip, not an n x m copy
            assert np.shares_memory(st.strips[0], st.strips[1]) and st.trees[0] is not st.trees[1]


class TestSymmetricWeights:
    def test_cell_and_transpose_count(self):
        d = BinaryMatrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool))
        st = StepState.initial(d, "sym")
        w = step_weights(st, [0])
        assert w[1] == 2  # D(0,1) and D(1,0) both count

    def test_diagonal_counts_twice(self):
        d = BinaryMatrix(np.array([[0, 1], [1, 0]], dtype=bool))
        st = StepState.initial(d, "sym")
        w = step_weights(st, [0])
        assert w[0] == -2  # zero diagonal cell appears in both terms

    def test_non_square_rejected(self):
        d = BinaryMatrix.zeros(2, 3)
        with pytest.raises(ValueError):
            StepState.initial(d, "sym")

    def test_step_optimal_for_surrogate(self, rng):
        for _ in range(25):
            n = 5
            half = random_binary(rng, n, n, 0.4)
            d = BinaryMatrix(half | half.T)
            st = StepState.initial(d, "sym")
            fixed = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            w = step_weights(st, fixed)
            s, g = _half_steps(st, {}, [fixed], 1)[0]
            comp, _ = brute_compatible_sets(st.trees[1])
            assert g == max(sum(int(w[u]) for u in x) for x in comp)

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_row_weights_equal_column_weights(self, rng, variant):
        # the sides share one tree, so the round memo keys a row step as the column step of its fixed set
        for _ in range(25):
            n = rng.randint(2, 9)
            d = BinaryMatrix(random_binary(rng, n, n, 0.4))  # D != D^T as well
            st = StepState.initial(d, variant)
            st.mark(sorted(rng.sample(range(n), rng.randint(1, n))), sorted(rng.sample(range(n), rng.randint(1, n))))
            fixed = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            assert np.array_equal(step_weights(st, fixed, 0), step_weights(st, fixed, 1))

    def test_column_step_gain_less_overlap_is_the_error_decrease(self, rng):
        # the gain `alternate_seeds` reports for a symmetric tile rows x cols
        for case in range(100):
            n = rng.randint(2, 9)
            dense = random_binary(rng, n, n, 0.4)
            if case % 2:
                dense = dense | dense.T
            d = BinaryMatrix(dense)
            st = StepState.initial(d, "sym")
            cover = np.zeros((n, n), dtype=bool)
            for _ in range(rng.randint(0, 3)):
                r, c = (sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(2))
                st.mark(r, c)
                cover[np.ix_(r, c)] = cover[np.ix_(c, r)] = True
            r, c = (tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(2))
            added = cover.copy()
            added[np.ix_(r, c)] = added[np.ix_(c, r)] = True
            decrease = hamming_error(d, BinaryMatrix(cover)) - hamming_error(d, BinaryMatrix(added))
            assert step_weights(st, r)[list(c)].sum() - _overlap(st.strips[1], r, c) == decrease, (dense.tolist(), r, c)


class TestObmfStep:
    def test_uncovered_block(self):
        d = tile_matrix(4, 5, (0, 1), (1, 2, 3))
        st = StepState.initial(d, "plain")
        s, g = _half_steps(st, {}, [(0, 1)], 1)[0]
        assert s == (1, 2, 3) and g == 6

    def test_all_covered(self):
        d = BinaryMatrix(np.ones((2, 2), dtype=bool))
        st = StepState.initial(d, "plain")
        st.mark((0, 1), (0, 1))
        s, g = _half_steps(st, {}, [(0, 1)], 1)[0]
        assert s == () and g == 0

    def test_matches_brute_force(self):
        assert oracle.check_step(random.Random(0xC0FFEE), 80) is None


class TestAlternate:
    def test_single_tile_fixpoint(self):
        d = tile_matrix(5, 6, (1, 2, 3), (0, 1))
        st = StepState.initial(d, "plain")
        assert alternate_seeds(st, [0]) == ((1, 2, 3), (0, 1), 6)

    def test_all_zero_matrix(self):
        d = BinaryMatrix.zeros(4, 4)
        st = StepState.initial(d, "plain")
        assert alternate_seeds(st, [2]) == ((), (), 0)

    def test_half_step_gains_non_decreasing(self, rng, monkeypatch):
        half_steps, gains = factorizer._half_steps, []

        def recording(state, memo, fixed, side):
            found = half_steps(state, memo, fixed, side)
            gains.extend(g for picked, g in found if picked)
            return found

        monkeypatch.setattr(factorizer, "_half_steps", recording)
        for _ in range(25):
            d = BinaryMatrix(random_binary(rng, 8, 8, 0.35))
            st = StepState.initial(d, "plain")
            gains.clear()
            alternate_seeds(st, [rng.randrange(8)])
            assert gains == sorted(gains)


class TestFactorize:
    def test_single_tile_rank1(self):
        d = tile_matrix(6, 6, (2, 3), (1, 4, 5))
        f = factorize(d, 1)
        assert f.error == 0 and f.rank_used == 1

    def test_early_stop(self):
        d = tile_matrix(6, 6, (2, 3), (1, 4, 5))
        f = factorize(d, 4)
        assert f.rank_used == 1 and f.error == 0

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            factorize(BinaryMatrix(np.eye(2, dtype=bool)), 0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            factorize(BinaryMatrix(np.eye(2, dtype=bool)), 1, variant="spiral")

    def test_blocks_exact_all_variants(self):
        d = gen_blocks(BlockSpec(3, 6, 2))
        for variant in ("plain", "cyclic", "sym", "cyclic-sym"):
            f = factorize(d, 3, variant=variant)
            assert f.error == 0, variant

    def test_validity_and_self_consistency(self, rng):
        for variant in ("plain", "cyclic", "sym", "cyclic-sym"):
            for _ in range(6):
                n = rng.randint(4, 9)
                dense = random_binary(rng, n, n, 0.4)
                if variant in ("sym", "cyclic-sym"):
                    dense = dense | dense.T
                d = BinaryMatrix(dense)
                f = factorize(d, 3, variant=variant)
                rows_sets = [r for r, _ in f.factors]
                cols_sets = [c for _, c in f.factors]
                check = is_cyclic_under if variant.startswith("cyclic") else is_unimodal_under
                assert check(rows_sets, f.row_order)
                assert check(cols_sets, f.col_order)
                if variant in ("sym", "cyclic-sym"):
                    assert check(rows_sets + cols_sets, f.node_order)
                assert f.error == hamming_error(d, reconstruct(f))

    def test_the_error_is_counted_without_the_strips(self, monkeypatch):
        # 425 x 425 blocks, sampled seeds: when the reconstruction is built, the
        # score strip is freed, so factorize holds less than a byte per cell
        # above its start (a held strip alone would be one)
        d = flip_noise(gen_blocks(BlockSpec(12, 40, 5)), 0.1, 1)
        seeds, held = seeds_sample(d, 0.02, 1), []

        def traced(f):
            held.append(tracemalloc.get_traced_memory()[0] - start)
            return reconstruct(f)

        monkeypatch.setattr(factorizer, "reconstruct", traced)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            factorize(d, 12, seeds=seeds)
        finally:
            tracemalloc.stop()
        assert len(held) == 1 and held[0] < d.n_rows * d.n_cols, held

    def test_each_round_gain_is_the_recounted_error_decrease(self, rng, monkeypatch):
        # each accepted tile's gain against the error recounted from the tiles
        # so far, so the error falls every round and every gain is exact
        lockstep, won = factorizer.alternate_seeds, []

        def recording(state, seeds):
            best = lockstep(state, seeds)
            won.append(best[2])
            return best

        monkeypatch.setattr(factorizer, "alternate_seeds", recording)
        for case in range(100):
            for variant in ("plain", "cyclic", "sym", "cyclic-sym"):
                n = rng.randint(3, 9)
                m = n if variant in ("sym", "cyclic-sym") else rng.randint(3, 9)
                dense = random_binary(rng, n, m, 0.4)
                if variant in ("sym", "cyclic-sym") and case % 2:
                    dense = dense | dense.T
                d = BinaryMatrix(dense)
                won.clear()
                f = factorize(d, 4, variant=variant)
                prefixes = (dataclasses.replace(f, factors=f.factors[:t]) for t in range(f.rank_used + 1))
                errors = [hamming_error(d, reconstruct(prefix)) for prefix in prefixes]
                accepted, rest = won[: f.rank_used], won[f.rank_used :]
                assert accepted == [a - b for a, b in zip(errors, errors[1:])], (variant, dense.astype(int).tolist())
                assert all(g > 0 for g in accepted) and all(g <= 0 for g in rest)
                assert errors[-1] == f.error

    def test_deterministic(self):
        rng = random.Random(5)
        d = BinaryMatrix(random_binary(rng, 10, 10, 0.4))
        f1 = factorize(d, 4)
        f2 = factorize(d, 4)
        assert format_report(f1) == format_report(f2)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("spec,noise_seed", [(BlockSpec(4, 20, 5), 2), (BlockSpec(6, 20, 5), 1)])
    def test_block_size_does_not_change_the_report(self, variant, spec, noise_seed, monkeypatch):
        d = flip_noise(gen_blocks(spec), 0.1, noise_seed)
        gathers = [[]]  # per DP block: the (sets, size) of each gather
        gather = factorizer.step_weights

        def recording(st, sets, side=1):
            gathers[-1].append(np.shape(sets))
            return gather(st, sets, side)

        monkeypatch.setattr(factorizer, "step_weights", recording)
        for name in ("best_compatible_sets", "best_cyclic_sets"):
            pick = getattr(factorizer, name)
            monkeypatch.setattr(factorizer, name, lambda tree, w, pick=pick: gathers.append([]) or pick(tree, w))
        report = format_report(factorize(d, 5, variant))
        counts = [[count for count, _ in block] for block in gathers]
        assert any(1 in block and max(block) > 1 for block in counts)  # a size of one set beside a size of many

        monkeypatch.setattr(optset, "BLOCK_BYTES", 1)  # one weight row per DP call
        gathers[:] = [[]]
        assert format_report(factorize(d, 5, variant)) == report
        assert max(sum(count for count, _ in block) for block in gathers) == 1

        monkeypatch.setattr(optset, "BLOCK_BYTES", 2**62)  # the first tree's bytes per row, exact while rows outnumber them
        per_row = 2**62 // optset.block_rows(PQTree(d.n_rows))
        monkeypatch.setattr(optset, "BLOCK_BYTES", 3 * per_row)  # three rows per DP call on the first tree
        assert optset.block_rows(PQTree(d.n_rows)) == 3
        block_weights = factorizer._block_weights

        def halved(st, sets, side):  # the block's commonest size gathered in parts, at half the bytes it takes at once
            k, c = Counter(map(len, sets)).most_common(1)[0]
            budget, optset.BLOCK_BYTES = optset.BLOCK_BYTES, c * k * (st.trees[side].n + 8) // 2
            try:
                return block_weights(st, sets, side)
            finally:
                optset.BLOCK_BYTES = budget

        monkeypatch.setattr(factorizer, "_block_weights", halved)
        gathers[:] = [[]]
        assert format_report(factorize(d, 5, variant)) == report
        assert max(sum(count for count, _ in block) for block in gathers) > 1  # several rows per DP call
        assert any(len({k for _, k in block}) < len(block) for block in gathers)  # a size in several gathers

    def test_rank1_never_beats_brute_force(self, rng):
        gaps = []
        for _ in range(10):
            d = BinaryMatrix(random_binary(rng, 8, 8, 0.4))
            f = factorize(d, 1)
            _, _, best = brute_rank1(d)
            assert f.error >= best
            gaps.append(f.error - best)
        assert min(gaps) >= 0  # distribution recorded; zero gap is common
        assert gaps.count(0) >= 5

    def test_cyclic_step_dominates_plain_step(self, rng):
        for _ in range(20):
            d = BinaryMatrix(random_binary(rng, 7, 7, 0.4))
            plain = StepState.initial(d, "plain")
            cyc = StepState.initial(d, "cyclic")
            fixed = tuple(sorted(rng.sample(range(7), rng.randint(1, 7))))
            _, g_plain = _half_steps(plain, {}, [fixed], 1)[0]
            _, g_cyc = _half_steps(cyc, {}, [fixed], 1)[0]
            assert g_cyc >= g_plain

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_memo_is_exact_and_evaluates_each_half_step_once(self, variant, monkeypatch):
        d = flip_noise(gen_blocks(BlockSpec(6, 20, 5)), 0.1, 1)
        rounds = []  # per round: [its memo, weight rows the kernel got on the round's trees, half-steps asked for]
        live = {}
        pending = []  # cyclic: the -w rows the second pass of the last first-pass call must solve
        second_passes = []
        kernel = optset.compute_counters

        def counting(tree, w):
            state = live.get("state")
            c = kernel(tree, w)
            if state is not None and any(tree is t for t in state.trees):  # not a repair pick on a copy
                rows = np.asarray(w)
                assert len(rows) <= optset.block_rows(tree)
                if pending:  # exactly -w of the first-pass rows whose positive sum beat their straight gain
                    assert np.array_equal(rows, -pending.pop())
                    second_passes.append(len(rows))
                    return c
                rounds[-1][1].extend((id(tree), row.tobytes()) for row in rows)
                if state.cyclic:
                    need = rows[np.maximum(rows, 0).sum(axis=1) > optset.split(c.inner[tree.root], c.scale)[0]]
                    if len(need):
                        pending.append(need)
            return c

        monkeypatch.setattr(optset, "compute_counters", counting)
        lockstep, half_steps, alternate = factorizer._lockstep, factorizer._half_steps, factorizer.alternate_seeds

        def recording(state, memo, fixed, side):
            if live.get("state") is state:  # the round's own call, not a seed alone below
                if rounds[-1][0] is None:
                    rounds[-1][0] = memo
                assert memo is rounds[-1][0]  # one memo for all of the call's half-steps
                rounds[-1][2] += len(fixed)
            return half_steps(state, memo, fixed, side)

        def checked_lockstep(state, seeds):
            rounds.append([None, [], 0])
            live["state"] = state
            finals = lockstep(state, seeds)
            live.clear()
            for seed, final in zip(seeds, finals):  # each seed alone, on the memo of its own call
                assert final == lockstep(state, [seed])[0], (variant, len(rounds), seed)
            rounds[-1].append(finals)
            return finals

        def alternate_seeds(state, seeds):
            best = alternate(state, seeds)
            finals = rounds[-1][3]
            assert best == round_winner(finals, finish_every_pair(state, finals)), (variant, len(rounds))
            return best

        monkeypatch.setattr(factorizer, "_half_steps", recording)
        monkeypatch.setattr(factorizer, "_lockstep", checked_lockstep)
        monkeypatch.setattr(factorizer, "alternate_seeds", alternate_seeds)
        f = factorize(d, 6, variant=variant)
        assert len(rounds) == f.rank_used == 6
        assert len({id(memo) for memo, _, _, _ in rounds}) == 6  # a fresh memo per round
        for memo, rows, asked, _ in rounds:
            assert len(rows) == len(memo)  # every distinct key reached the kernel once,
            assert len(set(rows)) == len(rows)  # no weight row came twice,
            assert len(rows) < asked  # and seeds did repeat each other
        assert not pending
        assert bool(second_passes) == variant.startswith("cyclic")


def finish_every_pair(state, finals, joint=factorizer._joint_cols, overlap=factorizer._overlap):
    """Each distinct final pair's repaired cols and exact gain, every
    symmetric pair finished through `_joint_cols` and `_overlap`, unbounded."""
    finished = {}
    for r, c, g in dict.fromkeys(finals):
        finished[r, c, g] = c, g
        if state.symmetric and r:
            jc, jg = joint(state, r, c, g)
            finished[r, c, g] = jc, jg - overlap(state.strips[1], r, jc)
    return finished


def round_winner(finals, finished):
    """The first seed's tile of highest exact gain."""
    r, c, g = max(finals, key=lambda final: finished[final][1])
    return (r, *finished[r, c, g])


def gain_bound(state, rows, gain):
    """The bound a symmetric final pair's exact gain stays within: its
    column-step gain plus half the negative mass of the strip over rows x rows."""
    square = state.strips[1][np.ix_(rows, rows)].astype(int)
    return gain - int(square[square < 0].sum()) // 2


class TestPlantedOrder:
    """The extensions earn their keep where the planted order needs them, and
    no variant reads the order off the labels."""

    @pytest.mark.parametrize("variant,error", [("plain", 1018), ("cyclic", 1018), ("sym", 903), ("cyclic-sym", 903)])
    def test_relabelled_paper_input(self, variant, error):
        d = flip_noise(gen_blocks(BlockSpec(6, 20, 5)), 0.1, 1)
        p = np.random.Generator(np.random.Philox(7)).permutation(95)
        relabelled = BinaryMatrix(d.dense()[np.ix_(p, p)])
        assert factorize(relabelled, 6, variant=variant).error == error

    @pytest.mark.parametrize("variant,error", [("plain", 653), ("cyclic", 500), ("sym", 676), ("cyclic-sym", 500)])
    def test_planted_cycle(self, variant, error):
        # 5 blocks of 25 on a cycle of 100 nodes, the last one wrapping; 500 flips
        d = flip_noise(gen_blocks(BlockSpec(5, 25, 5, wrap=True)), 0.05, 1)
        assert factorize(d, 5, variant=variant).error == error


class TestSymmetricJointFit:
    """Rows and cols of each symmetric tile fit the one node tree together."""

    # Each set of the second tile is admitted by the node tree alone, but
    # not both of them: accepting the pair unrepaired raised AssertionError.
    PINNED = [
        ("sym", [[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 0, 0, 0, 1], [1, 0, 0, 1, 0]]),
        ("cyclic-sym", [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 0, 1]]),
    ]

    @staticmethod
    def assert_joint_fit(d, f):
        check = is_cyclic_under if f.variant.startswith("cyclic") else is_unimodal_under
        assert check([s for tile in f.factors for s in tile], f.node_order), f.factors
        assert f.error == hamming_error(d, reconstruct(f))

    @pytest.mark.parametrize("variant,rows", PINNED)
    def test_pinned_crash(self, variant, rows):
        d = BinaryMatrix(np.array(rows, dtype=bool))
        f = factorize(d, 2, variant=variant)
        assert f.rank_used == 2
        self.assert_joint_fit(d, f)

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_seeded_property(self, variant):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(4, 10)
            half = random_binary(rng, n, n, 0.4)
            d = BinaryMatrix(half | half.T)
            self.assert_joint_fit(d, factorize(d, 4, variant=variant))

    @staticmethod
    def pairs(variant, seed):
        """(state, rows, cols, gain) on random symmetric inputs after 0-3 accepted
        tiles.  Rows and cols are each admitted by the node tree: compatible sets
        and their complements, singletons and all-but-one sets.  Cols are either
        the column step for rows or another admitted set with a random gain."""
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(4, 7)
            half = random_binary(rng, n, n, 0.4)
            d = BinaryMatrix(half | half.T)
            state = StepState.initial(d, variant)
            for _ in range(rng.randint(0, 3)):
                rows, cols, gain = alternate_seeds(state, list(range(d.n_cols)))
                if gain <= 0:
                    break
                factorizer._accept(state, rows, cols)
            tree = state.trees[0]
            compatible = [s for s in brute_compatible_sets(tree)[0] if s]
            candidates = compatible + [frozenset(range(n)) - s for s in compatible]
            candidates += [frozenset([u]) for u in range(n)] + [frozenset(range(n)) - {u} for u in range(n)]
            admitted = sorted({tuple(sorted(s)) for s in candidates if s and tree.admits(state.reduction_set(tree, s))})
            for _ in range(20):
                rows = rng.choice(admitted)
                cols, gain = _half_steps(state, {}, [rows], 1)[0]
                if not cols or rng.random() < 0.5:
                    cols, gain = rng.choice(admitted), rng.randint(1, 20)
                yield state, rows, cols, gain

    @staticmethod
    def trivial(state, rows, cols):
        sizes = [len(state.reduction_set(state.trees[0], s)) for s in (rows, cols)]
        return rows == cols or min(sizes) <= 1

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_shortcut_matches_the_copy_path(self, variant):
        seen = {"trivial": 0, "fits": 0, "picked again": 0}
        for state, rows, cols, gain in self.pairs(variant, 5):
            expected = factorizer._joint_cols(state, rows, cols, gain)  # copy, reduce by rows, admit or pick again
            if factorizer._copy_free(state, rows, cols):
                seen["trivial"] += 1
                assert expected == (cols, gain), (state.trees[0].to_string(), rows, cols)
            else:
                seen["fits" if expected == (cols, gain) else "picked again"] += 1
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_trivial_sets_are_decided_without_a_copy(self, variant, monkeypatch):
        cases = list(self.pairs(variant, 6))

        def no_copy(tree):
            raise AssertionError("copied")

        monkeypatch.setattr(PQTree, "copy", no_copy)
        trivial = 0
        for state, rows, cols, gain in cases:
            assert factorizer._copy_free(state, rows, cols) == self.trivial(state, rows, cols), (rows, cols)
            trivial += self.trivial(state, rows, cols)
        assert 100 <= trivial < len(cases)

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_each_distinct_final_pair_is_finished_once(self, variant, monkeypatch):
        d = flip_noise(gen_blocks(BlockSpec(6, 20, 5)), 0.1, 1)
        rounds = []  # per round: [final pairs, _joint_cols arguments, _overlap calls]
        joint, overlap = factorizer._joint_cols, factorizer._overlap
        lockstep, alternate = factorizer._lockstep, factorizer.alternate_seeds

        def counting_joint(state, rows, cols, gain):
            rounds[-1][1].append((rows, cols, gain))
            return joint(state, rows, cols, gain)

        def counting_overlap(strip, rows, cols):
            rounds[-1][2] += 1
            return overlap(strip, rows, cols)

        def recording(state, seeds):
            finals = lockstep(state, seeds)
            rounds.append([finals, [], 0])
            return finals

        def alternate_seeds(state, seeds):
            best = alternate(state, seeds)
            finals, calls, overlaps = rounds[-1]
            finished = finish_every_pair(state, finals)
            assert best == round_winner(finals, finished), len(rounds)
            pairs = list(dict.fromkeys(finals))
            copied = [p for p in pairs if p[0] and not factorizer._copy_free(state, p[0], p[1])]
            assert len(set(calls)) == len(calls) and set(calls) <= set(copied)  # each at most once, by the copy path
            assert overlaps == len(calls) + sum(p[0] != p[1] and p not in copied for p in pairs)
            best_so_far = max((finished[p][1] for p in pairs if p not in copied), default=-np.inf)
            for pair in calls:  # a copy-path pair is finished only when its bound reaches the best so far
                bound = gain_bound(state, pair[0], pair[2])
                assert bound >= best_so_far, (len(rounds), pair)
                seen["finished"] += 1
                seen["by the overlap term"] += pair[2] < best_so_far  # its gain alone would not reach it
                seen["tied"] += bound == best_so_far
                best_so_far = max(best_so_far, finished[pair][1])
            for pair in set(copied) - set(calls):  # and skipped only when its bound is below the round's best
                assert gain_bound(state, pair[0], pair[2]) < best_so_far, (len(rounds), pair)
                seen["skipped"] += 1
            return best

        seen = dict.fromkeys(("finished", "by the overlap term", "tied", "skipped"), 0)
        monkeypatch.setattr(factorizer, "_joint_cols", counting_joint)
        monkeypatch.setattr(factorizer, "_overlap", counting_overlap)
        monkeypatch.setattr(factorizer, "_lockstep", recording)
        monkeypatch.setattr(factorizer, "alternate_seeds", alternate_seeds)
        assert factorize(d, 6, variant=variant).rank_used == len(rounds) == 6
        assert all(len(set(finals)) < len(finals) for finals, _, _ in rounds)  # seeds did share final pairs
        rng = random.Random(9)
        for case in range(80):  # small inputs, where bounds are loose
            n = rng.randint(3, 9)
            dense = random_binary(rng, n, n, 0.4)
            factorize(BinaryMatrix(dense | dense.T if case % 2 else dense), 3, variant=variant)
        assert min(seen.values()) >= 1, seen

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_exact_gain_is_within_the_bound(self, variant):
        # every admitted row set with its column step, after 0-2 accepted tiles, on D = D^T and D != D^T
        rng = random.Random(11)
        checked = tight = 0
        for case in range(40):
            n = rng.randint(2, 9)
            dense = random_binary(rng, n, n, 0.4)
            state = StepState.initial(BinaryMatrix(dense | dense.T if case % 2 else dense), variant)
            for _ in range(rng.randint(0, 2)):
                rows, cols, gain = alternate_seeds(state, list(range(n)))
                if gain <= 0:
                    break
                factorizer._accept(state, rows, cols)
            tree = state.trees[0]
            subsets = (tuple(u for u in range(n) if bits >> u & 1) for bits in range(1, 2**n))
            for rows in (s for s in subsets if tree.admits(state.reduction_set(tree, s))):
                cols, gain = _half_steps(state, {}, [rows], 1)[0]
                if not cols:
                    continue
                jc, jg = factorizer._joint_cols(state, rows, cols, gain)
                exact = jg - _overlap(state.strips[1], rows, jc)
                assert exact <= gain_bound(state, rows, gain), (dense.tolist(), rows, cols)
                if rows == cols:
                    assert gain % 2 == 0 and exact == gain // 2
                checked += 1
                tight += exact == gain_bound(state, rows, gain)
        assert checked >= 1000 and tight >= 10, (checked, tight)


class TestNonSymmetricInput:
    """The symmetric variants do not reject D != D^T: tiles still fit the one
    node order, and the error is counted against D as given."""

    @pytest.mark.parametrize("variant", ["sym", "cyclic-sym"])
    def test_upper_triangular(self, variant):
        d = BinaryMatrix(np.triu(np.ones((5, 5), dtype=bool)))
        f = factorize(d, 3, variant=variant)
        TestSymmetricJointFit.assert_joint_fit(d, f)


class TestSeeds:
    def test_all_singletons(self):
        half = random_binary(random.Random(5), 7, 7)
        d = BinaryMatrix(half | half.T)
        for variant in VARIANTS:
            assert format_report(factorize(d, 3, variant)) == format_report(factorize(d, 3, variant, seeds=range(7)))

    def test_sample_count_is_floor(self):
        d = BinaryMatrix.zeros(2, 348)
        assert len(seeds_sample(d, 0.1, 0)) == 34

    def test_sample_full_fraction_equals_all(self):
        d = BinaryMatrix.zeros(2, 9)
        assert seeds_sample(d, 1.0, 3) == list(range(d.n_cols))

    def test_sample_deterministic(self):
        d = BinaryMatrix.zeros(2, 40)
        assert seeds_sample(d, 0.25, 7) == seeds_sample(d, 0.25, 7)

    def test_seed_columns_in_range(self):
        d = BinaryMatrix(np.eye(3, dtype=bool))
        for bad in ([3], [-1], []):
            with pytest.raises(ValueError):
                factorize(d, 1, seeds=bad)

    def test_fraction_range(self):
        d = BinaryMatrix.zeros(2, 5)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                seeds_sample(d, bad, 0)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            seeds_sample(BinaryMatrix.zeros(2, 5), 0.5, -1)

    @pytest.mark.parametrize(
        "rng,want",
        [
            (1, [5, 7, 63, 65, 78, 171, 243, 257, 299, 359, 393, 415, 453, 464, 554, 674, 800, 836, 896, 987]),
            (2, [2, 14, 56, 154, 195, 290, 302, 343, 428, 474, 504, 542, 591, 669, 751, 757, 789, 804, 807, 844]),
            (3, [44, 126, 183, 207, 266, 324, 441, 481, 517, 569, 648, 723, 875, 896, 916, 932, 935, 954, 955, 997]),
        ],
    )
    def test_sample_of_the_1005_benchmark_input(self, rng, want):
        # pinned, so the stream stays that of the recorded benchmark outputs whatever numpy does
        d = flip_noise(gen_blocks(BlockSpec(40, 30, 5)), 0.1, rng)
        assert seeds_sample(d, 0.02, rng) == want


REPORT = (
    "VARIANT plain\nRANK 1/2\nERROR 3 RELERR 0.5000\n"
    "ROW-ORDER 0 1 2\nCOL-ORDER 1 0\nFACTOR 0 ROWS 0 1 COLS 0 1\n"
)
CYCLIC = REPORT.replace("VARIANT plain", "VARIANT cyclic").replace("ROWS 0 1", "ROWS 2 0")  # wraps
# separators that str.split or str.splitlines would take, each a FormatError at its own line
SEPARATORS = [
    (REPORT.replace("RANK 1/2", "RANK\u30001/2"), 2),  # an ideographic space is no blank
    (REPORT.replace("ROWS 0 1", "ROWS\u30000 1"), 6),
    (REPORT.replace("RANK 1/2\n", "RANK 1/2\n\x1c\n"), 3),  # a file separator is no line end, nor an empty line
    (REPORT.replace("ROW-ORDER 0 1 2", "ROW-ORDER 0 1\u20282"), 4),  # a line separator is no line end
]


class TestReport:
    def test_exact_shape(self):
        f = factorize(tile_matrix(3, 3, (0, 1), (1, 2)), 1)
        lines = format_report(f).splitlines()
        assert lines[0] == "VARIANT plain"
        assert lines[1] == "RANK 1/1"
        assert lines[2].startswith("ERROR 0 RELERR 0.0000")
        assert lines[3].startswith("ROW-ORDER ")
        assert lines[4].startswith("COL-ORDER ")
        assert lines[5].startswith("FACTOR 0 ROWS ")

    def test_symmetric_single_order_line(self):
        d = gen_blocks(BlockSpec(2, 3, 1))
        f = factorize(d, 2, variant="sym")
        text = format_report(f)
        assert "NODE-ORDER" in text and "ROW-ORDER" not in text

    def test_round_trip(self, rng):
        d = BinaryMatrix(random_binary(rng, 7, 9, 0.4))
        f = factorize(d, 3)
        parsed = parse_report(format_report(f))
        assert format_report(parsed) == format_report(f)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_report("hello\nworld\n")

    MALFORMED = [
        ("", 1),
        ("VARIANT plain\n", 2),
        ("VARIANT plain\n\nRANK one/2\n", 3),
        (REPORT.replace("VARIANT plain", "VARIANT spiral"), 1),
        (REPORT.replace("RANK 1/2", "RANK 1"), 2),
        (REPORT.replace("ERROR 3 RELERR 0.5000", "ERROR 3"), 3),
        (REPORT.replace("RELERR 0.5000", "RELERR half"), 3),
        (REPORT.replace("ROW-ORDER 0 1 2", "ROW-ORDER 0 0 2"), 4),
        (REPORT.replace("COL-ORDER 1 0\n", ""), 5),
        (REPORT.replace("ROWS 0 1 COLS", "ROWS 0 x COLS"), 6),
        (REPORT.replace(" COLS 0 1", " 0 1"), 6),
        (REPORT.replace("ROWS 0 1", "ROWS 0 3"), 6),
        (REPORT.replace("ROWS 0 1", "ROWS 0 2"), 6),  # not contiguous under 0 1 2
        (REPORT.replace("RANK 1/2", "RANK 2/2") + "FACTOR 1 ROWS 0 2 COLS 0\n", 7),  # factor 0 fits, factor 1 not
        (REPORT.replace("RANK 1/2", "RANK 2/2"), 7),  # truncated after the first factor
        (CYCLIC.replace("ROW-ORDER 0 1 2", "ROW-ORDER 0 1 2 3"), 6),  # {0, 2} is no arc of 4
        (REPORT.replace("ERROR 3", "ERROR -3"), 3),
        (REPORT.replace("RELERR 0.5000", "RELERR -0.5000"), 3),
        (REPORT.replace("RELERR 0.5000", "RELERR nan"), 3),
        (REPORT.replace("RANK 1/2", "RANK 1/0"), 2),
        (REPORT.replace("RANK 1/2", "RANK 2/1") + "FACTOR 1 ROWS 1 2 COLS 0\n", 2),
        (REPORT.replace("FACTOR 0", "FACTOR 1"), 6),
        (REPORT.replace("ROWS 0 1 COLS", "ROWS COLS"), 6),
        (REPORT.replace("COLS 0 1", "COLS"), 6),
        (REPORT.replace("RANK 1/2", "RANK 1/1_0"), 2),  # only "-" and ASCII digits: int() would read 10
        (REPORT.replace("RANK 1/2", "RANK +1/2"), 2),
        (REPORT.replace("ERROR 3", "ERROR \u0663"), 3),
        (REPORT.replace("ROW-ORDER 0 1 2", "ROW-ORDER 0 1 \uff12"), 4),
        (REPORT.replace("FACTOR 0", "FACTOR 0_0"), 6),
        (REPORT.replace("ROWS 0 1 COLS", "ROWS 0 +1 COLS"), 6),
        *SEPARATORS,
    ]

    @pytest.mark.parametrize("text,line", MALFORMED)
    def test_parse_rejects_malformed(self, text, line):
        with pytest.raises(FormatError, match=f"^line {line}: "):
            parse_report(text)

    def test_parse_normalises_and_accepts_wraps(self):
        f = parse_report(REPORT.replace("ROWS 0 1 COLS 0 1", "ROWS 1 0 1 COLS 1 0"))
        assert f.factors == [((0, 1), (0, 1))]
        assert parse_report(CYCLIC).factors == [((0, 2), (0, 1))]


class TestGoldenReports:
    """Exact reports on the paper's 95x95 input (6 blocks of 20, overlap 5,
    10% flip noise), so a refactor that changes any output fails here."""

    DIGESTS = {
        "plain": "c7800752599fd1eef869566c069707ac02f22c9d5bfaf2fcbc882ed7f01c1ace",
        "cyclic": "1c54d2a716ace0986736bba91faf5976991477d2ea45f2db70e10da6b829d7f6",
        "sym": "323a3f1aadb89a07531eab2f6bac9bb5feadee36a3e897a88b5d83f8019e8bd8",
        "cyclic-sym": "5821398085dac6ccbd0e383568ec796534bbc10e9b905d99f81c96f871728feb",
    }

    @pytest.mark.parametrize("variant", sorted(DIGESTS))
    def test_report_digest(self, variant):
        d = flip_noise(gen_blocks(BlockSpec(6, 20, 5)), 0.1, 1)
        report = format_report(factorize(d, 6, variant=variant))
        assert hashlib.sha256(report.encode()).hexdigest() == self.DIGESTS[variant], report[:200]

    # the planted cycle of TestPlantedOrder (5 blocks of 25 on 100 nodes, 5% flips):
    # the one fixed input whose accepted tiles wrap (both sides of one tile hold 0 and 99),
    # so a wrap-around set that goes missing changes these bytes
    PLANTED_CYCLE = {
        "cyclic": "c4dcdc9ae6dbbcd1fa49a7666c45a223c91077a185f9d1c3ae3c9b8ce5ee2034",
        "cyclic-sym": "25539a966fe5072409ee3cd8d04510c0e25c97a264814d492706d91a4b7295be",
    }

    @pytest.mark.parametrize("variant", sorted(PLANTED_CYCLE))
    def test_planted_cycle_digest(self, variant):
        d = flip_noise(gen_blocks(BlockSpec(5, 25, 5, wrap=True)), 0.05, 1)
        report = format_report(factorize(d, 5, variant=variant))
        assert hashlib.sha256(report.encode()).hexdigest() == self.PLANTED_CYCLE[variant], report[:200]
