import time

import numpy as np
import pytest

from benchmark_inputs import corpus_treebank, omega_treebank
from conftest import random_tree
from depdist.arrangement import min_arrangement_cost
from depdist.optimality import average_omega, omega
from depdist.treebank import DepTree, TreeStructureError, Treebank
from oracles import (
    _all_positions,
    _minla_subsets_dp,
    brute_force_min_arrangement,
    edges,
    worklist_min_arrangement,
)

FIGURE_TREE = DepTree((2, 0, 2, 5, 2, 8, 8, 5))


def chain(n):
    return DepTree((0,) + tuple(range(1, n)))


def star(n):
    return DepTree((0,) + (1,) * (n - 1))


def broom(leaves, handle):
    """A hub with ``leaves`` leaves and a path of ``handle`` words."""
    return DepTree((0,) + (1,) * (leaves + 1)
                   + tuple(range(leaves + 2, leaves + handle + 1)))


def spider(legs, length):
    """A hub with ``legs`` paths of ``length`` words."""
    heads = [0]
    for _ in range(legs):
        heads += [1] + [len(heads) + 1 + i for i in range(length - 1)]
    return heads


def caterpillar(spine):
    """A chain of ``spine`` words, each with one leaf dependent."""
    return DepTree((0,) + tuple(range(1, spine)) + tuple(range(1, spine + 1)))


def permutation_average(tree):
    """Oracle: mean total distance over every ordering of the sentence."""
    pos = _all_positions(tree.n).astype(np.int32)
    total = np.zeros(len(pos), dtype=np.int64)
    for u, v in edges(tree.heads):
        total += np.abs(pos[:, u] - pos[:, v])
    return total.mean()


def sum_distances(tree):
    return omega(tree).distance_sum


def expected_random(tree):
    return omega(tree).random_baseline


def min_arrangement(tree):
    return min_arrangement_cost(tree.heads)


def min_arrangement_costs(trees):
    """The minima of the trees, solved together as one treebank."""
    return min_arrangement_cost(np.concatenate([tree.heads for tree in trees]),
                                [tree.n for tree in trees])


def dp_minimum(heads):
    return _minla_subsets_dp(edges(heads), len(heads))


class TestSumDistances:
    def test_eight_word_sentence(self):
        assert sum_distances(FIGURE_TREE) == 12

    def test_chain(self):
        assert sum_distances(chain(3)) == 2

    def test_center_headed(self):
        assert sum_distances(DepTree((2, 0, 2))) == 2

    def test_single_word(self):
        assert sum_distances(DepTree((0,))) == 0


class TestExpectedRandom:
    def test_three_words_vs_enumeration(self):
        tree = DepTree((2, 0, 2))
        assert expected_random(tree) == pytest.approx(8 / 3)
        assert expected_random(tree) == pytest.approx(
            permutation_average(tree))

    def test_two_words(self):
        assert expected_random(DepTree((2, 0))) == 1.0

    def test_chain_of_seven(self):
        tree = chain(7)
        assert expected_random(tree) == pytest.approx(16.0)
        assert expected_random(tree) == pytest.approx(
            permutation_average(tree), abs=1e-12)

    def test_any_shape_matches_permutation_average(self):
        rng = np.random.default_rng(1)
        for n in range(2, 8):
            for _ in range(5):
                tree = random_tree(n, rng)
                assert expected_random(tree) == pytest.approx(
                    permutation_average(tree), abs=1e-12)

    def test_single_word_undefined(self):
        assert expected_random(DepTree((0,))) is None


class TestMinArrangement:
    def test_small_star(self):
        assert min_arrangement(star(3)) == 2
        assert min_arrangement(star(4)) == 4

    def test_chain_any_length(self):
        for n in (2, 5, 13, 24, 40, 80, 150):
            assert min_arrangement(chain(n)) == n - 1

    def test_star_split_formula(self):
        # Leaves split around the hub: ranks 1..ceil and 1..floor per side.
        for n in (5, 8, 11, 14, 40, 80, 150):
            leaves = n - 1
            left = leaves // 2
            right = leaves - left
            expected = (left * (left + 1) + right * (right + 1)) // 2
            assert min_arrangement(star(n)) == expected

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for n in range(2, 10):
            for _ in range(30):
                tree = random_tree(n, rng)
                assert min_arrangement(tree) == brute_force_min_arrangement(
                    edges(tree.heads), tree.n)

    def test_matches_subsets_dp(self):
        rng = np.random.default_rng(3)
        trees = [random_tree(int(rng.integers(2, 17)), rng)
                 for _ in range(2000)]
        for tree, cost in zip(trees, min_arrangement_costs(trees)):
            assert cost == dp_minimum(tree.heads)

    def test_matches_subsets_dp_at_16_to_18(self):
        # Random trees first need case B at 16 words; one of these does.
        rng = np.random.default_rng(6)
        trees = [random_tree(int(rng.integers(16, 19)), rng)
                 for _ in range(200)]
        for tree, cost in zip(trees, min_arrangement_costs(trees)):
            assert cost == dp_minimum(tree.heads)

    def test_matches_subsets_dp_at_18_and_20(self):
        rng = np.random.default_rng(4)
        for n in (18, 20):
            for _ in range(5):
                tree = random_tree(n, rng)
                assert min_arrangement(tree) == dp_minimum(tree.heads)

    def test_long_sentences_solve_fast(self):
        for tree in (random_tree(150, np.random.default_rng(5)), star(150),
                     star(3001)):
            start = time.perf_counter()
            min_arrangement(tree)
            assert time.perf_counter() - start < 0.5

    def test_stars_settle_by_the_split_formula(self):
        # A star of k leaves is solved in one step: free, D = s(k); anchored
        # at its hub, s(k - 1) + k, as in a broom, whose handle is T_0 at
        # the hub and leaves an anchored star.
        for leaves in range(1, 16):
            tree = star(leaves + 1)
            assert min_arrangement(tree) == dp_minimum(tree.heads)
            for handle in (2, 3):
                tree = broom(leaves, handle)
                assert min_arrangement(tree) == dp_minimum(tree.heads)

    def test_spider_is_not_quadratic(self):
        # A hub with 1,001 legs of 3 words: at each step case B may hold,
        # and keeping a copy of the part there cost seconds.
        heads = spider(1001, 3)
        start = time.perf_counter()
        assert min_arrangement_cost(heads) == 753_003
        assert time.perf_counter() - start < 1.0

    def test_very_long_path_and_caterpillar(self):
        # The solver keeps a work list, so depth is no concern; the
        # caterpillar minimum 3k - 3 is checked against the DP below.
        assert min_arrangement(chain(1500)) == 1499
        assert min_arrangement(caterpillar(750)) == 3 * 750 - 3

    @pytest.mark.parametrize("heads", [
        (), (2, 1), (0, 1, 0), (0, 2, 2), (0, 4, 1), (0, 3, 4, 2), (2, 1, 0),
        (0, 1.5), (0, None), (0, float("nan")),
    ], ids=["empty", "no-root", "two-roots", "self-loop", "out-of-range",
            "cycle", "two-cycle", "fraction", "none", "nan"])
    def test_rejects_non_trees(self, heads):
        with pytest.raises(ValueError):
            min_arrangement_cost(heads)

    @pytest.mark.parametrize("heads, sizes", [
        ((2, 1), (2,)), ((0, 3, 4, 2), (4,)), ((0, 2, 0, 3), (2, 2)),
        ((0, 1, 0, 3, 4, 2), (2, 4)), ((0, 1), (1, 2)), ((0, 0), (1,)),
    ], ids=["two-cycle", "three-cycle", "self-loop-second",
            "three-cycle-second", "short-sizes", "long-sizes"])
    def test_rejects_treebanks_with_a_non_tree(self, heads, sizes):
        with pytest.raises(ValueError):
            min_arrangement_cost(np.array(heads), np.array(sizes))

    @pytest.mark.parametrize("heads, reason", [
        ((2, 1), "0 roots"), ((0, 3, 4, 2), "cycle through token 2"),
        ((2, 3, 1), "0 roots"),
    ], ids=["two-cycle", "three-cycle", "no-root"])
    def test_average_omega_rejects_raw_non_trees(self, heads, reason):
        # A raw Treebank raises at construction; the solver checks the
        # arrays of one built unchecked all the same.
        arrays = np.array(heads), np.array([len(heads)])
        with pytest.raises(TreeStructureError, match=f"sentence 1: {reason}"):
            Treebank(*arrays)
        with pytest.raises(TreeStructureError, match=f"sentence 1: {reason}"):
            average_omega(Treebank._unchecked(*arrays))

    def test_head_beyond_int64_is_out_of_range(self):
        with pytest.raises(TreeStructureError, match="sentence 1: token 2: "
                           f"head {10**30} out of range 1..2"):
            min_arrangement_cost([0, 10**30])

    @pytest.mark.parametrize("heads", [(0,), (2, 0, 2), (0, 1, 1, 3, 1, 5)])
    def test_tuple_list_and_int64_slice_agree(self, heads):
        # Heads are read as DepTree reads them: integral floats count.
        treebank = np.array((0, 1) + heads + (0,), dtype=np.int64)
        window = treebank[2:2 + len(heads)]
        assert min_arrangement_cost(heads) \
            == min_arrangement_cost(list(heads)) \
            == min_arrangement_cost(window) \
            == min_arrangement_cost(window.astype(np.float64)) \
            == min_arrangement_cost([float(head) for head in heads])

    @pytest.mark.parametrize("heads, minimum", [
        ((0, 1, 1, 3, 1, 5, 4, 4, 7, 1, 1, 3, 12, 13, 14, 8, 12), 27),
        ((2, 4, 6, 7, 6, 7, 9, 14, 12, 11, 13, 15, 14, 15, 16, 0, 16, 16,
          17, 18), 30),
        ((0, 1, 2, 3, 1, 5, 5, 4, 8, 6, 7, 1, 12, 12, 12, 15, 14, 15, 17,
          19), 30),
        # Token 14 joins three components of 5 words, one a path; the other
        # two and token 14 form an anchored part that needs case B.
        ((0, 9, 1, 7, 7, 8, 14, 1, 16, 9, 6, 5, 9, 11, 4, 14), 23),
    ])
    def test_needs_case_b(self, heads, minimum):
        assert min_arrangement_cost(heads) == minimum == dp_minimum(heads)

    def test_never_above_observed(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            tree = random_tree(int(rng.integers(2, 14)), rng)
            assert min_arrangement(tree) <= sum_distances(tree)


class TestLockStep:
    """One call solves a whole treebank; the work-list solver it replaced
    is the oracle for sentences beyond the subset DP."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_the_oracle_on_the_omega_benchmark(self, seed):
        treebank = omega_treebank(seed)
        assert min_arrangement_cost(treebank.heads, treebank.sizes).tolist() \
            == [worklist_min_arrangement(tree.heads) for tree in treebank]

    def test_matches_the_oracle_on_the_corpus(self):
        treebank = corpus_treebank()
        assert min_arrangement_cost(treebank.heads, treebank.sizes).tolist() \
            == [worklist_min_arrangement(tree.heads) for tree in treebank]

    def test_matches_the_oracle_on_hubs_and_paths(self):
        shapes = [spider(legs, length) for legs, length in (
            (40, 2), (25, 3), (9, 5), (301, 1))] + [
            list(chain(700).heads), list(caterpillar(200).heads)]
        heads = np.concatenate([np.array(shape) for shape in shapes])
        sizes = np.array([len(shape) for shape in shapes])
        assert min_arrangement_cost(heads, sizes).tolist() \
            == [worklist_min_arrangement(shape) for shape in shapes]

    def test_means_are_the_sums_in_sentence_order(self):
        # Bit for bit: Python's left-to-right sum of the scores, in the
        # order of the sentences.
        treebank = omega_treebank(1)
        scores: dict[int, list[float]] = {}
        for tree in treebank:
            n, d = tree.n, sum_distances(tree)
            denominator = n * n - 1 - 3 * worklist_min_arrangement(tree.heads)
            if denominator:
                scores.setdefault(n, []).append(
                    (n * n - 1 - 3 * d) / denominator)
        stats = average_omega(treebank)
        assert scores and all(stats[n].mean_omega == sum(group) / len(group)
                              for n, group in scores.items())


class TestOmega:
    def test_fully_minimized_three_words(self):
        result = omega(DepTree((2, 0, 2)))  # distances {1, 1}
        assert result.omega == 1.0
        assert result.distance_sum == 2
        assert result.minimum == 2

    def test_anti_minimized_three_words(self):
        result = omega(DepTree((0, 3, 1)))  # distances {1, 2}: d(1,3)=2
        assert result.distance_sum == 3
        assert result.omega == -0.5  # exact: (8/3 - 3) / (8/3 - 2)

    def test_two_words_undefined(self):
        result = omega(DepTree((2, 0)))
        assert result.omega is None
        assert result.random_baseline == result.minimum == 1

    def test_single_word_undefined(self):
        result = omega(DepTree((0,)))
        assert result.omega is None

    def test_numpy_integer_heads(self):
        heads = tuple(np.arange(14, dtype=np.int64))  # a chain rooted at 1
        tree = DepTree(heads)
        assert all(type(h) is int for h in tree.heads)
        assert tree == chain(14)
        assert omega(tree).omega == 1.0

    def test_at_most_one(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            tree = random_tree(int(rng.integers(3, 12)), rng)
            assert omega(tree).omega <= 1.0

    def test_reversal_invariance(self):
        # Mirroring the sentence preserves every distance, hence the score.
        rng = np.random.default_rng(8)
        for _ in range(40):
            tree = random_tree(int(rng.integers(3, 11)), rng)
            n = tree.n
            mirrored = DepTree(tuple(
                0 if tree.heads[n - 1 - i] == 0
                else n + 1 - tree.heads[n - 1 - i]
                for i in range(n)
            ))
            assert omega(mirrored).omega == omega(tree).omega


class TestAverageOmega:
    def test_single_sentence_group(self):
        tree = DepTree((2, 0, 2))
        stats = average_omega([tree])
        assert stats[3].mean_omega == 1.0
        assert stats[3].count == 1
        assert stats[3].skipped == 0

    def test_mean_of_two(self):
        trees = [DepTree((2, 0, 2)), DepTree((0, 3, 1))]  # scores 1, -0.5
        stats = average_omega(trees)
        assert stats[3].mean_omega == pytest.approx(0.25)

    def test_chains_are_fully_optimized(self):
        trees = [chain(n) for n in (3, 4, 5, 6)] * 2
        stats = average_omega(trees)
        for n in (3, 4, 5, 6):
            assert stats[n].mean_omega == 1.0
            assert stats[n].count == 2

    def test_undefined_scores_skipped_not_zero(self):
        trees = [DepTree((2, 0)), DepTree((2, 0)), DepTree((2, 0, 2))]
        stats = average_omega(trees)
        assert stats[2].mean_omega is None
        assert stats[2].skipped == 2
        assert stats[3].mean_omega == 1.0


class TestStructuredShapes:
    def test_spider_trees_search_equals_dp(self):
        # Crossing optima appear on stars with subdivided legs; the solver
        # must agree with the exhaustive DP there.
        for legs, length in ((5, 3), (4, 4), (6, 3), (3, 5)):
            heads = [0]
            for _ in range(legs):
                attach = 1  # leg root hangs off the hub (token 1)
                for _ in range(length):
                    heads.append(attach)
                    attach = len(heads)
            tree = DepTree(tuple(heads))
            assert min_arrangement(tree) == dp_minimum(tree.heads)

    def test_double_star_search_equals_dp(self):
        for left, right in ((8, 8), (10, 6), (5, 11)):
            heads = [0] + [1] * left + [1] + [2 + left] * right
            tree = DepTree(tuple(heads))
            assert tree.n == left + right + 2
            assert min_arrangement(tree) == dp_minimum(tree.heads)

    def test_caterpillars_equal_dp(self):
        for spine in range(1, 10):
            tree = caterpillar(spine)
            expected = dp_minimum(tree.heads)
            assert min_arrangement(tree) == expected
            if spine > 1:
                assert expected == 3 * spine - 3
