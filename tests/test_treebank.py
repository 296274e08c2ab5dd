import math
import re
import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_tree
from depdist import reports, treebank
from depdist.optimality import average_omega
from depdist.treebank import (
    BOM,
    ConlluFormatError,
    DepTree,
    DistanceSample,
    LengthDistribution,
    TreeStructureError,
    Treebank,
    build_samples,
    distances,
    parse_conllu,
    read_manifest,
    to_conllu,
)
from oracles import reference_parse_conllu
from test_cli import MALFORMED_CONLLU, mutants

# "John gave Bill the painting that Mary hated": gave is the root; the
# relative clause head attaches to "painting".
EIGHT_WORD_HEADS = (2, 0, 2, 5, 2, 8, 8, 5)


def conllu_line(i, head, form="w"):
    return f"{i}\t{form}{i}\t_\t_\t_\t_\t{head}\t_\t_\t_"


def block(heads, start_id=1):
    return "\n".join(
        conllu_line(i, h) for i, h in enumerate(heads, start=start_id)
    )


class TestParsing:
    def test_eight_word_sentence(self):
        trees = parse_conllu(block(EIGHT_WORD_HEADS) + "\n")
        assert len(trees) == 1
        assert trees[0].heads == EIGHT_WORD_HEADS
        assert sorted(distances(trees[0])) == [1, 1, 1, 1, 2, 3, 3]
        assert sum(distances(trees[0])) == 12
        assert np.isclose(np.mean(distances(trees[0])), 12 / 7)

    def test_single_token_sentence(self):
        trees = parse_conllu("1\tword\t_\t_\t_\t_\t0\t_\t_\t_\n")
        assert trees[0].n == 1
        assert trees[0].heads == (0,)
        assert distances(trees[0]) == []

    def test_multiword_range_line_skipped(self):
        text = "\n".join([
            conllu_line(1, 3),
            conllu_line(2, 3),
            "3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
            conllu_line(3, 0),
            conllu_line(4, 3),
        ]) + "\n"
        trees = parse_conllu(text)
        assert trees[0].heads == (3, 3, 0, 3)

    def test_empty_node_skipped_and_renumbered(self):
        text = "\n".join([
            conllu_line(1, 2),
            "1.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_",
            conllu_line(2, 0),
            conllu_line(3, 2),
        ]) + "\n"
        trees = parse_conllu(text)
        assert trees[0].heads == (2, 0, 2)

    def test_renumbering_noncontiguous_ids(self):
        # Token ids with gaps: renumbered 1..n in order of appearance.
        text = "\n".join([
            conllu_line(2, 0),
            conllu_line(5, 2),
            conllu_line(9, 5),
        ]) + "\n"
        trees = parse_conllu(text)
        assert trees[0].heads == (0, 1, 2)

    def test_wrong_column_count_is_fatal_with_line_number(self):
        text = conllu_line(1, 0) + "\n2\tword\t0\n"
        with pytest.raises(ConlluFormatError) as err:
            parse_conllu(text)
        assert err.value.line_number == 2

    def test_comments_and_blank_lines(self):
        text = (
            "# sent_id = a\n# text = Hi there\n"
            + block((2, 0)) + "\n\n\n"
            + block((0, 1)) + "\n"
        )
        trees = parse_conllu(text)
        assert [t.heads for t in trees] == [(2, 0), (0, 1)]

    def test_head_to_skipped_token_skips_sentence(self):
        text = "\n".join([
            conllu_line(1, 0),
            conllu_line(2, 9),  # head 9 does not exist
        ]) + "\n\n" + block((2, 0)) + "\n"
        issues = []
        trees = parse_conllu(text, issues=issues)
        assert len(trees) == 1  # the good sentence survives
        assert len(issues) == 1
        assert "head 9" in issues[0].reason

    @pytest.mark.parametrize("heads", [(1, 2), (0, 0), (2, 1)])
    def test_structural_errors_skip_sentence(self, heads):
        issues = []
        trees = parse_conllu(block(heads) + "\n", issues=issues)
        assert trees == []
        assert len(issues) == 1

    def test_cycle_detected(self):
        with pytest.raises(TreeStructureError, match="cycle"):
            DepTree((0, 3, 2, 2))  # tokens 2 and 3 head each other
        with pytest.raises(TreeStructureError, match="cycle"):
            DepTree((0, 4, 2, 3, 2))  # 2 -> 4 -> 3 -> 2

    def test_bytes_input(self):
        trees = parse_conllu(block((0,)).encode("utf-8") + b"\n")
        assert trees[0].n == 1

    def test_byte_order_mark_dropped(self):
        text = "\ufeff# sent_id = a\n1\tw\t_\t_\t_\t_\t0\t_\t_\t_\n\n"
        assert [t.heads for t in parse_conllu(text.encode())] == [(0,)]
        assert [t.heads for t in parse_conllu(text)] == [(0,)]
        # Only one mark is dropped; a second is text on line 1.
        with pytest.raises(ConlluFormatError, match="line 1: expected 10"):
            parse_conllu("\ufeff" + text)


def outcome(parse, data):
    """Head vectors, issues and error (type and message) of one parse."""
    issues = []
    try:
        heads = [tree.heads for tree in parse(data, issues=issues)]
    except ValueError as exc:
        return None, issues, (type(exc), str(exc))
    return heads, issues, None


# Parts of the generated text.  Odd numbers are IDs and HEADs at the edge of
# the rule of 1 to 18 ASCII digits: mostly bad fields, or IDs that mark a
# dropped token.
ODD_NUMBERS = ["+1", "-1", " 1", "1 ", "1_0", "\u0663", "\uff11", "_", "",
               "x", "1:", "1/", "1\r", "\r1", "\udc80", "0" * 18 + "1",
               "1" * 19, "0" * 17 + "1", "1" * 17 + "x", "1" * 18 + ".1",
               "\xff" * 9]
RANGE_IDS = ["1-2", "2-3", "1.1", "0.1", "1-", ".", "1" * 18 + "-2"]
BLANKS = ["", "\r", "\r\r", " ", "\t", "\t" * 9, "\xa0", "\x0c"]
COMMENTS = ["# sent_id = s1", "#sent_id=x y ", "# sent_id = \udc80",
            "# text = caf\xe9", "#", "# sent_id", "# a\tb"]
WRONG_COLUMNS = ["1", "1\tw\t_", "\t".join("1" * 9), "\t".join("1" * 11)]
ENDINGS = ["\n"] * 8 + ["\r\n"] * 4 + ["\r\r\n", "\r"]


def token_line(token_id, head):
    return f"{token_id}\tw\t_\t_\t_\t_\t{head}\t_\t_\t_"


EXTRA_LINES = ([token_line(i, "_") for i in RANGE_IDS] * 2 + BLANKS + COMMENTS
               + WRONG_COLUMNS)


@st.composite
def sentence_heads(draw):
    """A tree (shuffled attachment order) or any head vector."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))] + 1
    return heads


@st.composite
def conllu_texts(draw):
    """CoNLL-U text with mostly valid sentences, among odd lines, fields
    and line ends."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(st.sampled_from(COMMENTS), max_size=2))
        heads = draw(sentence_heads())
        n = len(heads)
        ids = list(range(1, n + 1))
        if draw(st.integers(0, 5)) == 0:  # gaps, duplicates, disorder
            ids = draw(st.lists(st.integers(0, n + 2), min_size=n,
                                max_size=n))
        fields = [[str(i), str(h)] for i, h in zip(ids, heads)]
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
            row = fields[draw(st.integers(0, n - 1))]
            row[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_NUMBERS))
        sentence = [token_line(*row) for row in fields]
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            extra = draw(st.sampled_from(EXTRA_LINES))
            sentence.insert(draw(st.integers(0, len(sentence))), extra)
        lines += sentence
        lines.append(draw(st.sampled_from(["", "", "", "\r"] + BLANKS)))
    # LF, CRLF, or each line's end drawn.
    end = draw(st.sampled_from(["\n", "\r\n", None]))
    ends = [end] * len(lines) if end else draw(st.lists(
        st.sampled_from(ENDINGS), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:len(text) - draw(st.integers(0, 1))]


# IDs and HEADs that int() reads as numbers but CoNLL-U does not.
NOT_PLAIN = ["+1", " 1", "1 ", "1_0", "\u0663", "\uff11", "1\r",
             "1" * 19, "0" * 18 + "1"]


class TestReferenceParser:
    """The array pass reads everything as the reference parser does: the
    same trees, issues and errors, whatever the piece boundaries."""

    PIECES = [1, 2, 16, 64, treebank.PIECE_BYTES]

    @settings(max_examples=400)
    @given(text=conllu_texts(), piece=st.sampled_from(PIECES),
           as_bytes=st.booleans(), bom=st.booleans())
    def test_generated(self, text, piece, as_bytes, bom):
        data = text.encode("utf-8", "surrogatepass") if as_bytes else text
        expected = outcome(reference_parse_conllu, data)
        # A mark moves the reported position of an invalid byte.
        if bom and not (expected[2] and expected[2][0] is UnicodeDecodeError):
            data = (BOM if as_bytes else BOM.decode()) + data
        with mock.patch.object(treebank, "PIECE_BYTES", piece):
            assert outcome(parse_conllu, data) == expected

    def test_odd_fields(self):
        # In a long sentence: as the root's head, another token's head or
        # another token's id.
        chain = [[str(i), str(i - 1)] for i in range(1, 31)]
        for odd in ODD_NUMBERS:
            for row, column in ((0, 1), (24, 1), (2, 0)):
                fields = [list(f) for f in chain]
                fields[row][column] = odd
                text = "\n".join(token_line(*f) for f in fields) + "\n"
                assert outcome(parse_conllu, text) \
                    == outcome(reference_parse_conllu, text), (odd, row)

    @pytest.mark.parametrize("odd, row, column", [
        *[(odd, row, column) for odd in NOT_PLAIN
          for row, column in ((0, 1), (24, 1), (2, 0))],
        ("-1", 0, 1), ("-1", 24, 1)])
    def test_field_not_plain_digits_is_fatal(self, odd, row, column):
        fields = [[str(i), str(i - 1)] for i in range(1, 31)]
        fields[row][column] = odd
        text = ("\n".join(token_line(*f) for f in fields) + "\n\n"
                + block((0, 1)) + "\n")
        name = ("token id", "head")[column]
        with pytest.raises(ConlluFormatError,
                           match=f"line {row + 1}: bad {name} ") as err:
            parse_conllu(text)
        assert str(err.value).endswith(repr(odd))

    @pytest.mark.parametrize("piece", PIECES)
    @pytest.mark.parametrize("separator", ["\n\n", "\n \n", "\n\t\r\n"])
    def test_whitespace_separators(self, separator, piece):
        rng = np.random.default_rng(4)
        trees = [random_tree(int(rng.integers(1, 12)), rng)
                 for _ in range(40)]
        # The last sent_id comment of a sentence names it.
        text = (to_conllu(trees[:20]) + "# sent_id = first\n"
                + block((1, 0)) + "\n# sent_id = loop\n\n"
                + to_conllu(trees[20:]))
        expected = ([tree.heads for tree in trees],
                    [treebank.StructuralIssue(21, "token 1 is its own head",
                                              "loop")], None)
        data = text.replace("\n\n", separator)
        with mock.patch.object(treebank, "PIECE_BYTES", piece), \
                mock.patch.object(treebank, "_read_piece",
                                  wraps=treebank._read_piece) as read:
            assert outcome(parse_conllu, data) == expected
        # The file is read in pieces of about PIECE_BYTES.
        assert read.call_count > len(data) // (piece + 200)

    @pytest.mark.parametrize("piece", PIECES)
    @pytest.mark.parametrize("case", [*sorted(MALFORMED_CONLLU),
                                      *range(12)])
    def test_malformed_and_mutated(self, case, piece):
        data = MALFORMED_CONLLU[case] if isinstance(case, str) \
            else mutants(case)
        with mock.patch.object(treebank, "PIECE_BYTES", piece):
            assert outcome(parse_conllu, data) \
                == outcome(reference_parse_conllu, data)


class TestDepTree:
    def test_validation(self):
        with pytest.raises(TreeStructureError):
            DepTree((1, 0))  # self-loop at token 1
        with pytest.raises(TreeStructureError):
            DepTree((0, 5))  # head out of range
        with pytest.raises(TreeStructureError):
            DepTree(())
        with pytest.raises(TreeStructureError, match=re.escape(
                f"token 2: head {10**30} out of range 1..2")):
            DepTree((0, 10**30))

    @pytest.mark.parametrize("head", [1.5, np.float64(1.5), "1", None])
    def test_non_integral_head_rejected(self, head):
        with pytest.raises(TreeStructureError):
            DepTree((0, head))

    def test_long_chain_builds_in_linear_time(self):
        # Every token climbs to the root through all the tokens after it,
        # so a check that rescans the climb so far takes quadratic time
        # (seconds at this length).
        n = 20_000
        start = time.perf_counter()
        tree = DepTree(tuple(range(2, n + 1)) + (0,))
        with pytest.raises(TreeStructureError, match="cycle through token 1"):
            DepTree(tuple(range(2, n)) + (1, 0))
        assert time.perf_counter() - start < 0.5
        assert tree.n == n

    def test_distances_chain(self):
        assert distances(DepTree((0, 1, 2))) == [1, 1]

    def test_distances_star(self):
        assert sorted(distances(DepTree((0, 1, 1, 1)))) == [1, 2, 3]

    def test_distance_count_and_bound_random(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            n = int(rng.integers(1, 30))
            tree = random_tree(n, rng)
            ds = distances(tree)
            assert len(ds) == n - 1
            assert all(1 <= d <= n - 1 for d in ds)


class TestDistanceSample:
    def test_sufficient_statistics(self):
        sample = DistanceSample({1: 2, 3: 1})
        assert sample.total == 3
        assert sample.weighted_sum == 5
        assert math.isclose(sample.log_weighted_sum, math.log(3))
        assert sample.stats_upto(2) == (2, 2, 0.0)
        assert sample.stats_upto(3) == (3, 5, pytest.approx(math.log(3)))
        assert sample.stats_upto(0) == (0, 0, 0.0)

    def test_extremes(self):
        sample = DistanceSample({2: 1, 5: 3, 9: 1})
        assert (sample.min_d, sample.min2_d) == (2, 5)
        assert (sample.max_d, sample.max2_d) == (9, 5)
        assert sample.distinct == 3

    def test_invariants(self):
        with pytest.raises(ValueError):
            DistanceSample({})
        with pytest.raises(ValueError):
            DistanceSample({0: 3})
        with pytest.raises(ValueError):
            DistanceSample({1: 0})
        with pytest.raises(ValueError):
            DistanceSample({5: 1}, length_class=4)  # d > n - 1

    @pytest.mark.parametrize("freq", [
        {1.5: 2, 1: 3, 2: 4},    # 1.5 read as 1 gave the support [1, 1, 2]
        {1.5: 2, 2: 4, 3: 1},    # ... and a KeyError from the counts
        {2: 2.5}, {"3": 1}, {float("nan"): 1}, {2: float("inf")}])
    def test_non_integers_are_rejected(self, freq):
        # Distances and counts are read as heads are: a value counts when
        # it equals its int.
        with pytest.raises(ValueError, match="must be integers"):
            DistanceSample(freq)

    def test_integral_values_read_as_ints(self):
        sample = DistanceSample({2.0: 3, np.int64(5): np.float64(1.0)})
        assert sample == DistanceSample({2: 3, 5: 1})
        assert {type(v) for item in sample.freq.items() for v in item} \
            == {int}
        assert sample.support.tolist() == [2, 5]
        assert sample.counts.tolist() == [3, 1]

    def test_from_values_reads_arrays_as_lists(self):
        values = np.random.default_rng(5).integers(1, 40, size=1000)
        sample = DistanceSample.from_values(values)
        assert sample == DistanceSample.from_values(values.tolist())
        assert sample == DistanceSample.from_values(iter(values.tolist()))
        assert {type(v) for item in sample.freq.items() for v in item} \
            == {int}


class TestLengthDistribution:
    def test_proportions(self):
        dist = LengthDistribution.from_counts({3: 2, 4: 1})
        assert dist.probs[3] == pytest.approx(2 / 3)
        assert dist.probs[4] == pytest.approx(1 / 3)
        assert (dist.min_n, dist.max_n) == (3, 4)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LengthDistribution({3: 0.5, 4: 0.4})

    def test_one_word_sentences_left_out(self):
        dist = LengthDistribution.from_counts({1: 7, 3: 1})
        assert dist.probs == {3: 1.0}


class TestBuildSamples:
    def test_fixed_length_grouping(self):
        trees = [DepTree((0, 1, 2)), DepTree((2, 0, 2))]
        sset = build_samples(trees)
        assert set(sset.by_length) == {3}
        assert sset.by_length[3].total == 4

    def test_pooled_equals_fixed_total(self):
        rng = np.random.default_rng(3)
        trees = [random_tree(int(rng.integers(2, 15)), rng)
                 for _ in range(100)]
        sset = build_samples(trees)
        assert sum(s.total for s in sset.by_length.values()) \
            == sset.pooled.total

    def test_length_distribution(self):
        trees = [DepTree((0, 1, 2)), DepTree((0, 1, 2)),
                 DepTree((0, 1, 2, 3))]
        sset = build_samples(trees)
        assert sset.lengths.probs[3] == pytest.approx(2 / 3)
        assert sset.lengths.probs[4] == pytest.approx(1 / 3)
        assert sset.sentence_counts == {3: 2, 4: 1}

    def test_matches_per_tree_distances(self):
        rng = np.random.default_rng(8)
        trees = [random_tree(int(rng.integers(1, 25)), rng)
                 for _ in range(400)]
        by_length = {}
        for tree in trees:
            if tree.n >= 2:
                by_length.setdefault(tree.n, Counter()).update(
                    distances(tree))
        sset = build_samples(trees)
        assert {n: s.freq for n, s in sset.by_length.items()} == by_length
        assert list(sset.by_length) == sorted(by_length)
        assert sset.pooled.freq == sum(by_length.values(), Counter())
        assert sset.sentence_counts == dict(sorted(
            Counter(tree.n for tree in trees).items()))

    def test_reparse_roundtrip_identical(self):
        rng = np.random.default_rng(11)
        trees = [random_tree(int(rng.integers(2, 12)), rng)
                 for _ in range(50)]
        reparsed = parse_conllu(to_conllu(trees))
        original = build_samples(trees)
        again = build_samples(reparsed)
        assert original.pooled.freq == again.pooled.freq
        assert {n: s.freq for n, s in original.by_length.items()} \
            == {n: s.freq for n, s in again.by_length.items()}


@st.composite
def corpora(draw):
    """Random trees of 1 to 12 words, at least one with a dependency."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=30)
                 .filter(lambda sizes: max(sizes) >= 2))
    return [random_tree(n, rng) for n in sizes]


class TestTreebank:
    TREES = [DepTree((0,)), DepTree((2, 0, 2)), DepTree((0, 1, 2, 3))]

    def treebank(self):
        return parse_conllu(to_conllu(self.TREES))

    def test_columns_len_and_iteration(self):
        trees = self.treebank()
        assert isinstance(trees, Treebank)
        assert trees.heads.tolist() == [0, 2, 0, 2, 0, 1, 2, 3]
        assert trees.sizes.tolist() == [1, 3, 4]
        assert len(trees) == 3
        assert [tree.heads for tree in trees] \
            == [tree.heads for tree in self.TREES]
        assert len(parse_conllu("")) == 0 and parse_conllu("") == []

    @pytest.mark.parametrize("index, expected", [
        (0, 0), (2, 2), (-1, 2), (-3, 0), (np.int64(1), 1),
        (np.int64(-2), 1), (np.int32(2), 2)])
    def test_indexing(self, index, expected):
        tree = self.treebank()[index]
        assert tree == self.TREES[expected]
        assert type(tree.heads) is tuple
        assert {type(head) for head in tree.heads} == {int}

    @pytest.mark.parametrize("index", [3, -4, np.int64(3), np.int64(-4)])
    def test_index_past_either_end(self, index):
        with pytest.raises(IndexError):
            self.treebank()[index]

    def test_slices_are_lists_of_trees(self):
        assert self.treebank()[1:] == self.TREES[1:]
        assert self.treebank()[::-1] == self.TREES[::-1]

    def test_indexing_a_large_treebank(self):
        # 20,000 sentences: every kind of index against the iterated trees.
        rng = np.random.default_rng(17)
        trees = parse_conllu(to_conllu(
            random_tree(int(n), rng) for n in rng.integers(1, 12, 20_000)))
        expected = list(trees)
        assert len(expected) == 20_000
        for index in (0, 1, 9_999, 19_999, -1, -2, -20_000, np.int64(12_345),
                      np.int64(-7), np.int32(19_998), np.intp(-19_999)):
            assert trees[index] == expected[index], index
        for part in (slice(None), slice(None, None, -1), slice(5, 17),
                     slice(-30, None), slice(None, None, -997),
                     slice(100, 10, -3), slice(np.int64(3), np.int64(-3), 2),
                     slice(19_999, None), slice(20_000, None)):
            assert trees[part] == expected[part], part

    @pytest.mark.parametrize("heads, sizes, reason", [
        ((2, 1, 2), (3,), "sentence 1: 0 roots (exactly one required)"),
        ((0, 4, 1), (3,), "sentence 1: token 2: head 4 out of range 1..3"),
        ((0, 1, 0, 3, 4, 2), (2, 4), "sentence 2: cycle through token 2"),
        ((0, 1, 0.5), (2, 1), "heads must be integers"),
    ])
    def test_raw_arrays_must_hold_trees(self, heads, sizes, reason):
        with pytest.raises(TreeStructureError, match=re.escape(reason)):
            build_samples(Treebank(np.array(heads), np.array(sizes)))

    @pytest.mark.parametrize("sizes", [(2,), (1, 1), (4, -1), (2.9, 1.2)])
    def test_raw_sizes_must_add_up(self, sizes):
        with pytest.raises(ValueError, match="do not add up"):
            Treebank(np.array([0, 1, 0]), np.array(sizes))

    def test_equality(self):
        trees = self.treebank()
        assert trees == self.TREES and self.TREES == trees
        assert trees == Treebank.from_trees(self.TREES)
        assert not trees != self.treebank()
        other = [*self.TREES[:2], DepTree((0, 1, 1, 3))]
        assert trees != other and other != trees
        assert trees != Treebank.from_trees(other)
        assert trees != self.TREES[:2]
        assert trees != "abc" and trees != 3

    @settings(max_examples=60)
    @given(trees=corpora())
    def test_parsed_corpus_builds_the_samples_of_its_trees(self, trees):
        parsed = parse_conllu(to_conllu(trees))
        assert parsed == trees
        expected, got = build_samples(trees), build_samples(parsed)
        assert list(got.by_length) == list(expected.by_length)
        assert got.by_length == expected.by_length
        assert got.pooled == expected.pooled
        assert got.sentence_counts == expected.sentence_counts
        assert got.lengths == expected.lengths
        assert reports.corpus_summary_record("C", "L", parsed, got, 0) \
            == reports.corpus_summary_record("C", "L", trees, expected, 0)


class TestTreesBuiltOnlyWhenAsked:
    """Parsing, sample building, the summary record and the Omega scores
    read the arrays and build no DepTree.  The tree check runs once per
    piece of the parse and once in the Omega solver, not again when the
    parsed Treebank is built."""

    def counted(self, text, piece=treebank.PIECE_BYTES):
        with mock.patch.object(DepTree, "_unchecked",
                               wraps=DepTree._unchecked) as unchecked, \
                mock.patch.object(DepTree, "__post_init__", autospec=True,
                                  side_effect=DepTree.__post_init__) as check, \
                mock.patch.object(treebank, "check_trees",
                                  wraps=treebank.check_trees) as checks, \
                mock.patch.object(treebank, "_renumbered",
                                  wraps=treebank._renumbered) as renumbered, \
                mock.patch.object(treebank, "PIECE_BYTES", piece), \
                mock.patch.object(treebank, "_read_piece",
                                  wraps=treebank._read_piece) as read:
            trees = parse_conllu(text)
            assert checks.call_count == read.call_count
            sset = build_samples(trees)
            reports.corpus_summary_record("C", "L", trees, sset, 0)
            average_omega(trees)
            assert checks.call_count == read.call_count + 1
        return trees, unchecked.call_count, check.call_count, \
            renumbered.call_count, read.call_count

    def test_valid_corpus_builds_no_tree(self):
        rng = np.random.default_rng(5)
        expected = [random_tree(int(rng.integers(1, 20)), rng)
                    for _ in range(200)]
        trees, unchecked, checked, renumbered, pieces = self.counted(
            to_conllu(expected), piece=1024)
        assert pieces > 1
        assert (unchecked, checked, renumbered) == (0, 0, 0)
        assert trees == expected

    @pytest.mark.parametrize("last_id, renumbered", [(3, 0), (4, 1)])
    def test_a_renumbered_sentence_builds_no_tree(self, last_id, renumbered):
        # The pass drops the range line; ids 1, 2, 3 then read 1..n, while
        # ids 1, 2, 4 must be renumbered, after which the piece's check
        # covers it with the rest.
        rng = np.random.default_rng(6)
        expected = [random_tree(int(rng.integers(1, 20)), rng)
                    for _ in range(50)]
        text = to_conllu(expected[:30]) + "\n".join([
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_",
            conllu_line(1, 2), conllu_line(2, 0), conllu_line(last_id, 2),
        ]) + "\n\n" + to_conllu(expected[30:])
        trees, *counts, _ = self.counted(text)
        assert counts == [0, 0, renumbered]
        assert trees == [*expected[:30], DepTree((2, 0, 2)),
                         *expected[30:]]


class TestManifest:
    def test_read(self, tmp_path):
        corpus = tmp_path / "x.conllu"
        corpus.write_text(block((0,)) + "\n")
        manifest = tmp_path / "man.txt"
        manifest.write_text(
            "# comment\nx.conllu\tPUD\tEnglish\n\nx.conllu SUD English\n"
        )
        entries = read_manifest(manifest)
        assert len(entries) == 2
        assert entries[0].collection == "PUD"
        assert entries[1].collection == "SUD"
        assert entries[0].path == corpus

    def test_byte_order_mark_dropped(self, tmp_path):
        manifest = tmp_path / "man.txt"
        manifest.write_bytes(BOM + b"x.conllu\tPUD\tEnglish\n")
        assert read_manifest(manifest)[0].path == tmp_path / "x.conllu"

    def test_bad_line(self, tmp_path):
        manifest = tmp_path / "man.txt"
        manifest.write_text("only-two fields\n")
        with pytest.raises(ConlluFormatError):
            read_manifest(manifest)
