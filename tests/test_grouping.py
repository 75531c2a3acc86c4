"""Grouping scheme: pair weights, threshold, membership, main selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgc.grouping import (
    PairWeights,
    _component_roots,
    derive_group_members,
    pairwise_mse,
    predict_and_residual,
    run_grouping,
    select_main,
    select_threshold,
)
from srgc.spectral import LocalGraph, eigendecompose, laplacian
from srgc.transform import gft
from srgc.util import forest_roots

from conftest import (
    connected_components,
    derive_group_members_oracle,
    merge_groups_oracle,
    one_level_groups_oracle,
    pair_index,
)


def _pw(weights, m):
    """Build PairWeights from an explicit {(i,j): w} dict via vectors is
    awkward; construct the condensed array directly."""
    condensed = np.zeros(m * (m - 1) // 2)
    for (i, j), w in weights.items():
        condensed[pair_index(m, i, j)] = w
    return PairWeights(m=m, condensed=condensed)


class TestPairwiseMse:
    def test_counts(self):
        vecs = [np.array([float(i), 0.0]) for i in range(6)]
        assert pairwise_mse(vecs).count == 15

    def test_values(self):
        vecs = [np.array([0.0, 0.0]), np.array([2.0, 4.0])]
        pw = pairwise_mse(vecs)
        assert pw.condensed[pair_index(2, 0, 1)] == pytest.approx((4.0 + 16.0) / 2)
        assert pair_index(2, 1, 0) == pair_index(2, 0, 1)

    def test_identical_vectors_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        pw = pairwise_mse([v, v.copy(), v.copy()])
        assert all(
            pw.condensed[pair_index(3, i, j)] == 0.0 for i in range(3) for j in range(i + 1, 3)
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_mse([np.zeros(3), np.zeros(4)])


class TestSelectThreshold:
    def test_hand_histogram(self):
        pw = _pw({(0, 1): 1, (0, 2): 2, (0, 3): 3, (1, 2): 6, (1, 3): 7, (2, 3): 12}, 4)
        assert select_threshold(pw, 5.0) == 5.0

    def test_all_zero(self):
        pw = _pw({}, 4)  # six zero weights
        assert select_threshold(pw, 5.0) == 5.0

    def test_bimodal_first_max_wins(self):
        weights = {}
        vals = [1, 2, 3, 4, 11, 12, 21, 22, 23, 24]  # counts (4, 2, 4)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for p, v in zip(pairs, vals):
            weights[p] = v
        pw = _pw(weights, 5)
        assert select_threshold(pw, 10.0) == 10.0

    def test_needs_pairs(self):
        with pytest.raises(ValueError):
            select_threshold(_pw({}, 1), 5.0)

    @pytest.mark.filterwarnings("error")
    def test_bin_index_beyond_int64_refused(self):
        """A bin index of 2**62 or more, or one that is not finite, is
        refused before the cast, which would warn and wrap."""
        with pytest.raises(ValueError, match="2\\*\\*62"):
            select_threshold(_pw({(0, 1): 1.0}, 2), 1e-300)
        for mse in (2.0**62 * 5.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="2\\*\\*62"):
                select_threshold(_pw({(0, 1): mse}, 2), 5.0)
        assert select_threshold(_pw({(0, 1): 2.0**61 * 5.0}, 2), 5.0) == 5.0 * (2.0**61 + 1)


class TestOneLevelGroups:
    def test_none_under_threshold(self):
        pw = _pw({(0, 1): 9, (0, 2): 9, (1, 2): 9}, 3)
        assert one_level_groups_oracle(pw, 1.0) == []

    def test_chain_case(self):
        # (A,B) and (B,C) under, (A,C) over
        pw = _pw({(0, 1): 1, (1, 2): 1, (0, 2): 9}, 3)
        assert one_level_groups_oracle(pw, 2.0) == [(0, 1), (0, 1, 2), (1, 2)]

    def test_all_under(self):
        pw = _pw({(0, 1): 0, (0, 2): 0, (1, 2): 0}, 3)
        assert one_level_groups_oracle(pw, 1.0) == [(0, 1, 2)] * 3


class TestMergeGroups:
    def test_transitive_closure(self):
        assert merge_groups_oracle([(0, 1), (1, 2), (3, 4)]) == [(0, 1, 2), (3, 4)]

    def test_disjoint_unchanged(self):
        assert merge_groups_oracle([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_chain_matches_union_find_oracle(self):
        sets = [(i, i + 1) for i in range(1, 10)]

        # independent oracle: naive repeated unification
        def naive_merge(sets):
            pools = [set(s) for s in sets]
            changed = True
            while changed:
                changed = False
                for i in range(len(pools)):
                    for j in range(i + 1, len(pools)):
                        if pools[i] and pools[j] and pools[i] & pools[j]:
                            pools[i] |= pools[j]
                            pools[j] = set()
                            changed = True
            return sorted(
                (tuple(sorted(p)) for p in pools if p), key=lambda t: t[0]
            )

        assert merge_groups_oracle(sets) == naive_merge(sets) == [tuple(range(1, 11))]

    @given(
        st.lists(
            st.lists(st.integers(0, 15), min_size=1, max_size=5),
            min_size=0,
            max_size=10,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_permutation_invariance(self, sets):
        base = merge_groups_oracle([tuple(s) for s in sets])
        assert merge_groups_oracle([tuple(s) for s in reversed(sets)]) == base


def _random_vectors(rng, kind, m):
    """m coefficient vectors of one shared length drawn as ``kind``."""
    n = int(rng.integers(1, 6))
    if kind == "clustered":
        centers = rng.normal(size=(int(rng.integers(1, 5)), n)) * 30
        x = centers[rng.integers(0, len(centers), size=m)] + rng.normal(size=(m, n))
    elif kind == "chain":
        # small steps with rare jumps, shuffled: neighbours link, ends do not
        steps = rng.normal(size=(m, n)) * 1.5 + (rng.random((m, 1)) < 0.2) * 40
        x = np.cumsum(steps, axis=0)[rng.permutation(m)]
    else:  # quantized: few distinct levels, so duplicates and MSEs on bin edges
        x = rng.integers(-3, 4, size=(m, n)) * float(rng.choice([1.0, 2.0, 16.0]))
    return list(x)


class TestDeriveGroupMembers:
    """Threshold-graph components equal the 1-level sets merged transitively."""

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_vectors(self, m):
        assert derive_group_members([np.zeros(3)] * m) == ([], 0.0)

    def test_two_vectors_always_link(self):
        coeffs = [np.array([0.0, 1.0]), np.array([90.0, -40.0])]
        assert derive_group_members(coeffs) == ([(0, 1)], 4895.0)
        assert derive_group_members_oracle(coeffs) == ([(0, 1)], 4895.0)

    def test_isolated_vertex_dropped(self):
        coeffs = [np.full(4, 5.0)] * 4 + [np.array([500.0, -500.0, 500.0, -500.0])]
        assert derive_group_members(coeffs) == ([(0, 1, 2, 3)], 5.0)

    def test_chain_joins_through_third_member(self):
        # mse(0,1) = mse(1,2) = 4 <= 5 < mse(0,2) = 16; index 3 stays alone
        coeffs = [np.array([v]) for v in (0.0, 2.0, 4.0, 100.0)]
        assert one_level_groups_oracle(pairwise_mse(coeffs), 5.0) == [
            (0, 1), (0, 1, 2), (1, 2)
        ]
        assert derive_group_members(coeffs) == ([(0, 1, 2)], 5.0)

    def test_interleaved_groups_ordered_by_smallest_member(self):
        coeffs = [np.array([v]) for v in (0.0, 100.0, 2.0, 102.0)]
        assert derive_group_members(coeffs) == ([(0, 2), (1, 3)], 5.0)

    def test_component_roots_are_smallest_members(self):
        """Scrambled long paths (many hooking rounds, deep pointer chains)
        and random multigraphs against a flood fill."""
        rng = np.random.default_rng(6)
        for case in range(120):
            m = int(rng.integers(1, 300))
            if case % 2:
                p = rng.permutation(m)
                edges = np.column_stack([p[:-1], p[1:]])
            else:
                edges = rng.integers(0, m, size=(int(rng.integers(0, 2 * m)), 2))
                edges = edges[edges[:, 0] != edges[:, 1]]
            edges = np.sort(edges, axis=1).astype(np.int64)
            comp, _ = connected_components(m, edges)
            smallest = np.unique(comp, return_index=True)[1]
            got = _component_roots(m, edges[:, 0], edges[:, 1])
            assert np.array_equal(got, smallest[comp]), case

    def test_forest_roots_follow_every_chain(self):
        """The one pointer-jumping helper (used by the grouping pass and by
        SLIC's connectivity pass) against walking each node's chain, on
        random forests with long chains, in array and list form."""
        rng = np.random.default_rng(7)
        for case in range(60):
            m = int(rng.integers(1, 400))
            parent = np.arange(m)
            for v in rng.permutation(m)[: m * 3 // 4]:
                parent[v] = rng.integers(0, v + 1)  # parents never above their child
            want = []
            for v in range(m):
                while parent[v] != v:
                    v = parent[v]
                want.append(v)
            assert np.array_equal(forest_roots(parent), want), case
            assert np.array_equal(forest_roots(parent.tolist()), want), case

    @pytest.mark.parametrize("kind", ["clustered", "chain", "quantized"])
    def test_matches_oracle_on_random_cases(self, kind):
        rng = np.random.default_rng({"clustered": 3, "chain": 4, "quantized": 5}[kind])
        for case in range(200):
            m = case % 31
            coeffs = _random_vectors(rng, kind, m)
            if m > 2 and case % 3 == 0:  # duplicate some vectors
                for i in rng.integers(0, m, size=3):
                    coeffs[int(rng.integers(0, m))] = coeffs[int(i)].copy()
            bin_width = float(rng.choice([0.5, 2.0, 5.0, 20.0]))
            got = derive_group_members(coeffs, bin_width)
            assert got == derive_group_members_oracle(coeffs, bin_width), (kind, case)


class TestSelectMain:
    def test_hand_example(self):
        signals = {0: np.array([1.0, 2.0]), 1: np.array([3.0, 4.0]), 2: np.array([10.0, 20.0])}
        # elementwise lower median = (3, 4) -> member 1 (0-based)
        assert select_main((0, 1, 2), signals) == 1

    def test_tie_smallest_index(self):
        signals = {3: np.array([5.0]), 7: np.array([5.0])}
        assert select_main((3, 7), signals) == 3

    def test_exact_member_selected(self):
        signals = {
            0: np.array([0.0, 0.0]),
            1: np.array([2.0, 2.0]),
            2: np.array([9.0, 9.0]),
        }
        assert select_main((0, 1, 2), signals) == 1


class TestPredictAndResidual:
    def _basis(self, n, seed):
        rng = np.random.default_rng(seed)
        edges = sorted(
            {(int(a), int(b)) for a, b in rng.integers(0, n, size=(3 * n, 2)) if a != b}
        )
        edges = [(min(a, b), max(a, b)) for a, b in edges]
        g = LocalGraph(n=n, edges=np.array(sorted(set(edges)), dtype=np.int64))
        return eigendecompose(laplacian(g))

    def test_self_prediction_zero_residual(self):
        basis = self._basis(8, 0)
        signal = np.array([10, 20, 30, 40, 50, 60, 70, 80], dtype=np.int64)
        coeffs = gft(basis, signal.astype(float))
        predicted, residual = predict_and_residual(basis, coeffs, signal, 255)
        assert np.array_equal(predicted, signal)
        assert np.all(residual == 0)

    def test_constant_signal_any_basis(self):
        a = self._basis(8, 1)
        b = self._basis(8, 2)
        signal = np.full(8, 42, dtype=np.int64)
        coeffs = gft(b, signal.astype(float))
        predicted, residual = predict_and_residual(a, coeffs, signal, 255)
        assert np.array_equal(predicted, signal)
        assert np.all(residual == 0)

    def test_integer_identity(self):
        rng = np.random.default_rng(3)
        a = self._basis(8, 4)
        b = self._basis(8, 5)
        signal = rng.integers(0, 255, size=8)
        coeffs = gft(b, signal.astype(float))
        predicted, residual = predict_and_residual(a, coeffs, signal, 255)
        assert np.array_equal(predicted + residual, signal)
        assert predicted.dtype.kind == "i" and residual.dtype.kind == "i"

    def test_dimension_mismatch(self):
        basis = self._basis(6, 6)
        with pytest.raises(ValueError):
            predict_and_residual(basis, np.zeros(5), np.zeros(5, dtype=np.int64), 255)


class TestRunGrouping:
    def test_single_vector_no_groups(self):
        gs = run_grouping([np.zeros(4)], [np.zeros(4)])
        assert gs.groups == [] and gs.ungrouped == (0,)

    def test_four_identical_one_distant(self):
        base = np.array([5.0, 5.0, 5.0, 5.0])
        far = np.array([500.0, -500.0, 500.0, -500.0])
        coeffs = [base, base.copy(), base.copy(), base.copy(), far]
        gs = run_grouping(coeffs, coeffs, bin_width=5.0)
        assert len(gs.groups) == 1
        assert gs.groups[0].members == (0, 1, 2, 3)
        assert gs.ungrouped == (4,)

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        coeffs = [rng.normal(size=6) * rng.integers(1, 40) for _ in range(10)]
        gs = run_grouping(coeffs, coeffs, bin_width=2.0)
        seen = set(gs.ungrouped)
        for g in gs.groups:
            assert g.main_index in g.members
            for m in g.members:
                assert m not in seen
                seen.add(m)
        assert seen == set(range(10))

    def test_threshold_monotonicity(self):
        """Raising the threshold never decreases the grouped count."""
        rng = np.random.default_rng(13)
        vecs = [rng.normal(size=5) * 10 for _ in range(12)]
        pw = pairwise_mse(vecs)
        prev = -1
        for thr in np.linspace(0, pw.condensed.max() * 1.1, 25):
            merged = merge_groups_oracle(one_level_groups_oracle(pw, thr))
            grouped = sum(len(m) for m in merged)
            assert grouped >= prev
            prev = grouped

    def test_group_count_ordering(self):
        """Final groups <= 1-level sets <= pairs under threshold + m."""
        rng = np.random.default_rng(14)
        vecs = [rng.normal(size=4) * 6 for _ in range(9)]
        pw = pairwise_mse(vecs)
        thr = select_threshold(pw, 5.0)
        ones = one_level_groups_oracle(pw, thr)
        merged = merge_groups_oracle(ones)
        assert len(merged) <= len(ones)
