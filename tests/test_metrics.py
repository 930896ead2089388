"""Metric tests: frozen hand values, brute-force oracles, and invariants."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ltrnas import metrics
from ltrnas.metrics import (
    DegenerateRelevanceWarning,
    RelevanceMap,
    dcg,
    delta_ndcg,
    fit_relevance_map,
    kendall_tau,
    map_relevance,
    ndcg,
    pairwise_delta_ndcg,
    pearson,
    rank_order,
    top_k_regret,
)


def ndcg_in_order(rels):
    """NDCG of a list whose model order is exactly the given relevance order."""
    n = len(rels)
    return ndcg([float(n - i) for i in range(n)], rels, [f"a{i:02d}" for i in range(n)])


def brute_force_ndcg(rels):
    """Oracle: DCG of the given order divided by the max DCG over every ordering."""
    best = max(dcg(list(perm)) for perm in itertools.permutations(rels))
    if best == 0.0:
        return 1.0
    return dcg(list(rels)) / best


def brute_force_tau(a, b):
    """Oracle: tau-b from integer counts over every pair, then the one float
    formula (con - dis) / sqrt(n0 - ties_a) / sqrt(n0 - ties_b), clipped to
    [-1, 1]. Equal values (-0.0 == 0.0 included) tie."""
    n = len(a)
    concordant = discordant = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                ties_a += 1
                ties_b += 1
            elif da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif da * db > 0:
                concordant += 1
            else:
                discordant += 1
    n0 = n * (n - 1) // 2
    tau = (concordant - discordant) / math.sqrt(n0 - ties_a) / math.sqrt(n0 - ties_b)
    return min(1.0, max(-1.0, tau))


class TestRelevanceMap:
    def test_fit_quantile_and_max(self):
        m = fit_relevance_map([0, 25, 50, 75, 100], q=0.2)
        assert m.lower == pytest.approx(20.0)
        assert m.upper == pytest.approx(100.0)

    def test_default_max_rel_is_20(self):
        m = fit_relevance_map([0, 25, 50, 75, 100])
        assert m.max_rel == 20.0

    def test_degenerate_values_rejected(self):
        with pytest.raises(ValueError):
            fit_relevance_map([50, 50, 50])

    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            fit_relevance_map([50])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            RelevanceMap(lower=10, upper=10)
        with pytest.raises(ValueError):
            RelevanceMap(lower=0, upper=10, max_rel=0)

    def test_map_linear_interior(self):
        m = RelevanceMap(20, 100, 20)
        assert map_relevance(m, 60) == pytest.approx(10.0)

    def test_map_clips_below(self):
        m = RelevanceMap(20, 100, 20)
        assert map_relevance(m, 10) == 0.0

    def test_map_ceiling(self):
        m = RelevanceMap(20, 100, 20)
        assert map_relevance(m, 100) == pytest.approx(20.0)
        assert map_relevance(m, 150) == pytest.approx(20.0)

    def test_map_monotone_and_lipschitz(self):
        m = RelevanceMap(20, 100, 20)
        xs = np.linspace(-10, 120, 400)
        ys = map_relevance(m, xs)
        assert np.all(np.diff(ys) >= 0)
        slope = m.max_rel / (m.upper - m.lower)
        assert np.all(np.abs(np.diff(ys)) <= slope * np.diff(xs) + 1e-12)


class TestDcg:
    def test_zero_relevance(self):
        assert dcg([0, 0, 0]) == 0.0

    def test_hand_value(self):
        # 7/log2(2) + 1/log2(3) + 3/log2(4) = 7 + 0.6309298 + 1.5
        assert dcg([3, 1, 2]) == pytest.approx(9.13093, abs=1e-5)

    def test_single_item(self):
        assert dcg([3]) == pytest.approx(7.0)

    def test_negative_relevance_rejected(self):
        with pytest.raises(ValueError):
            dcg([1, -1])

    def test_promoting_higher_relevance_increases_dcg(self):
        # moving a strictly greater item to a strictly better position raises DCG
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rels = rng.integers(0, 5, size=n).astype(float)
            for i in range(n):
                for j in range(i + 1, n):
                    if rels[j] > rels[i]:
                        swapped = rels.copy()
                        swapped[i], swapped[j] = swapped[j], swapped[i]
                        assert dcg(swapped) > dcg(rels)


class TestNdcg:
    def test_sorted_list_is_one(self):
        assert ndcg_in_order([4, 3, 2, 0]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert ndcg_in_order([3, 1, 2]) == pytest.approx(0.97212, abs=1e-5)

    def test_matches_brute_force_on_random_lists(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            rels = rng.integers(0, 5, size=6).astype(float)
            got = ndcg_in_order(rels)
            assert got == pytest.approx(brute_force_ndcg(rels), abs=1e-12)

    def test_degenerate_all_zero(self):
        with pytest.warns(DegenerateRelevanceWarning):
            assert ndcg_in_order([0, 0, 0]) == 1.0

    def test_bounds_and_equality_condition_exhaustive(self):
        # 0 <= ndcg <= 1 and ndcg == 1 iff relevance-descending, for every
        # permutation of short lists with positive ideal gain
        for rels in [(3, 1, 0), (2, 2, 1), (4, 0, 0, 1), (1, 2, 3, 4)]:
            for perm in itertools.permutations(rels):
                value = ndcg_in_order(perm)
                assert 0.0 <= value <= 1.0 + 1e-12
                is_sorted = all(perm[i] >= perm[i + 1] for i in range(len(perm) - 1))
                assert (abs(value - 1.0) < 1e-12) == is_sorted

    def test_ranks_by_score_then_id(self):
        # equal scores rank by ascending id, so "a" (rel 1) precedes "b" (rel 2)
        got = ndcg([1.0, 1.0, 2.0], [2.0, 1.0, 0.0], ["b", "a", "c"])
        assert got == dcg([0.0, 1.0, 2.0]) / dcg([2.0, 1.0, 0.0])

    def test_rejects_mismatched_lengths_and_negative_relevance(self):
        with pytest.raises(ValueError):
            ndcg([1.0, 2.0], [1.0], ["a", "b"])
        with pytest.raises(ValueError):
            ndcg([1.0, 2.0], [1.0, -0.5], ["a", "b"])

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 3.0, 20.0])),
                    min_size=1, max_size=30), st.randoms(use_true_random=False))
    def test_same_bits_when_items_are_permuted_together(self, items, rnd):
        ids = [f"a{i:02d}" for i in range(len(items))]
        scores, rels = map(list, zip(*items))
        perm = list(range(len(items)))
        rnd.shuffle(perm)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateRelevanceWarning)
            before = ndcg(scores, rels, ids)
            after = ndcg([scores[i] for i in perm], [rels[i] for i in perm], [ids[i] for i in perm])
        assert np.float64(before).view(np.int64) == np.float64(after).view(np.int64)


class TestDeltaNdcg:
    def test_equal_relevance_swap_is_zero(self):
        assert delta_ndcg([2, 2, 1], 0, 1) == 0.0

    def test_top_swap_positive(self):
        assert delta_ndcg([0, 5, 1], 0, 1) > 0.0

    def test_symmetry_and_recompute_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            rels = rng.uniform(0, 4, size=n)
            i, j = rng.choice(n, size=2, replace=False)
            d_ij = delta_ndcg(rels, int(i), int(j))
            d_ji = delta_ndcg(rels, int(j), int(i))
            assert d_ij == d_ji >= 0.0
            swapped = rels.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            full = abs(ndcg_in_order(swapped) - ndcg_in_order(rels))
            assert d_ij == pytest.approx(full, abs=1e-12)

    def test_pairwise_matrix_matches_scalar(self):
        rng = np.random.default_rng(13)
        rels = rng.uniform(0, 4, size=9)
        mat = pairwise_delta_ndcg(rels)
        for i in range(9):
            for j in range(9):
                if i != j:
                    assert mat[i, j] == pytest.approx(delta_ndcg(rels, i, j), abs=1e-15)

    def test_position_validation(self):
        with pytest.raises(IndexError):
            delta_ndcg([1, 2], 0, 5)
        with pytest.raises(ValueError):
            delta_ndcg([1, 2], 1, 1)


_TIED_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0])


class TestKendallTau:
    def test_identity(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reversal(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert kendall_tau([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(3, 20))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert kendall_tau(a, b) == pytest.approx(brute_force_tau(a, b), abs=1e-12)

    # heavy ties from few distinct values (-0.0 and 0.0 among them), lists
    # past the length where numpy's sorts stop being insertion sorts
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(_TIED_VALUES, _TIED_VALUES), min_size=2, max_size=300))
    @example([(0.0, 1.0), (-0.0, 2.0), (1.0, 1.0)])
    @example([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])  # (con - dis) / sqrt(3) / sqrt(3) rounds above 1
    def test_equals_brute_force_exactly(self, pairs):
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        assume(len(set(a)) > 1 and len(set(b)) > 1)
        assert kendall_tau(a, b) == brute_force_tau(a, b)

    def test_pinned_scipy_values(self):
        # computed with scipy.stats.kendalltau(variant="b") 1.17.1, which this function replaced
        assert kendall_tau([12, 2, 1, 12, 2], [1, 4, 7, 1, 0]) == -0.4714045207910316
        assert kendall_tau([1, 1, 2, 2, 3], [1, 2, 1, 2, 3]) == 0.49999999999999994
        assert kendall_tau([0.0, -0.0, 1.0, 1.0, -1.0, 0.5], [3, 2, 2, 1, 0, 3]) == 0.07692307692307693
        rng = np.random.default_rng(7)
        a = rng.integers(0, 5, 300).astype(float)
        assert kendall_tau(a, a + rng.integers(0, 4, 300)) == 0.6893141659368667
        rng = np.random.default_rng(11)
        x = rng.standard_normal(5000)
        assert kendall_tau(x, x + rng.standard_normal(5000)) == 0.504731026205241

    def test_more_ranks_than_a_16_bit_sort_key(self):
        # no ties, and the two halves swapped: exactly h * (n - h) discordant pairs
        n, h = 70_000, 30_000
        total = n * (n - 1) // 2
        y = np.r_[np.arange(h, n), np.arange(h)]
        expected = (total - 2 * h * (n - h)) / math.sqrt(total) / math.sqrt(total)
        assert kendall_tau(np.arange(n), y) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            kendall_tau([1, 1, 1], [1, 2, 3])
        with pytest.raises(ValueError):
            kendall_tau([1], [1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            kendall_tau([1.0, bad, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="non-finite"):
            kendall_tau([1.0, 2.0, 3.0], [bad, 2.0, 3.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(30)
        b = rng.standard_normal(30)
        base = kendall_tau(a, b)
        assert kendall_tau(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(a + 5.0, b + 5.0) == pytest.approx(base, abs=1e-12)


class TestPearson:
    def test_identity(self):
        assert pearson([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_negation(self):
        assert pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.98198, abs=1e-5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal(25)
        b = rng.standard_normal(25)
        assert pearson(a + 3.0, b + 7.0) == pytest.approx(pearson(a, b), abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])


class _Rec:
    def __init__(self, test_acc):
        self.test_acc = test_acc


class _Space:
    def __init__(self, accs):
        self.records = {f"r{i}": _Rec(a) for i, a in enumerate(accs)}


class TestTopKRegret:
    def test_contains_best(self):
        sp = _Space([90.0, 94.34, 80.0])
        assert top_k_regret([_Rec(94.34), _Rec(80.0)], sp, k=2) == pytest.approx(0.0)

    def test_gap(self):
        sp = _Space([94.34, 90.0])
        assert top_k_regret([_Rec(94.10)], sp, k=1) == pytest.approx(0.24)

    def test_k_one(self):
        sp = _Space([94.34, 90.0])
        assert top_k_regret([_Rec(91.5)], sp, k=1) == pytest.approx(94.34 - 91.5)

    def test_only_first_k_count(self):
        sp = _Space([94.34, 90.0])
        assert top_k_regret([_Rec(90.0), _Rec(94.34)], sp, k=1) == pytest.approx(4.34)

    def test_empty_selection(self):
        with pytest.raises(ValueError):
            top_k_regret([], _Space([1.0]), k=1)


# Ids with a shared prefix, tails of different lengths, non-ASCII characters
# and NULs (which a numpy `<U` array would strip from the end).
_IDS = st.text(alphabet=["a", "b", "\x00", "é", "ß", "Ω"], max_size=3).map(lambda tail: "arch-" + tail)


class TestRankOrder:
    # few distinct scores make ties common; lists run past the length where
    # numpy's default sort stops being an insertion sort (and so stable)
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), _IDS), max_size=40))
    @example([(0.0, "b"), (-0.0, "a"), (1.0, "c")])
    @example([(0.5, "arch-a\x00"), (0.5, "arch-a"), (0.5, "arch-é"), (0.5, "arch-b")])
    def test_matches_python_key(self, items):
        scores = [s for s, _ in items]
        ids = [i for _, i in items]
        order = rank_order(np.array(scores), ids)
        assert order.dtype == np.intp
        assert order.tolist() == sorted(range(len(items)), key=lambda i: (-scores[i], ids[i]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_order([1.0, 2.0], ["a"])
