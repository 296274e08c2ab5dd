"""Parse CoNLL-U corpora into dependency trees and distance samples.

A sentence is kept as a bare head vector: token ``i`` (1-based) depends on
token ``heads[i-1]``, with 0 marking the root.  The distance of a dependency
is the absolute difference of the two token positions, so adjacent words are
at distance 1.

A corpus is a :class:`Treebank`, its head vectors back to back in one
array, that builds each :class:`DepTree` only when asked.

Usage:

    from depdist.treebank import load_conllu, build_samples, distances

    trees = load_conllu("corpus.conllu")    # a Treebank
    sset = build_samples(trees, language="English", collection="PUD")
    sset.pooled.total          # number of dependencies
    sset.by_length[12].freq    # distance frequencies in 12-word sentences

Reading CoNLL-U: the input is read as UTF-8 bytes (not decoded when all
ASCII), in pieces of about 256 KB that each end after a line of ASCII
spaces, tabs and CRs, with one numpy pass per piece.  One leading BOM is
dropped, and lines may end in CRLF.  A line is blank when it is all
whitespace (as ``str.strip`` has it), a comment when it starts with '#',
and otherwise a token line, which must have 10 tab-separated columns.  The
lines between two blank lines that hold a token line are a sentence.  A
token's ID is 1 to 18 ASCII digits, or holds '-' or '.' (a multiword range
or an empty node, dropped); the HEAD of every other token is 1 to 18 ASCII
digits.  A wrong column count raises :class:`ConlluFormatError` at its
line, a bad ID or HEAD when its sentence ends.  A sentence whose ids are
not 1..n, or with a head past n, is renumbered first.  Then one call of
:func:`check_trees` per piece, the check that :class:`DepTree` and
``Treebank(heads, sizes)`` run too, words why a sentence is skipped.
"""

from __future__ import annotations

import logging
import math
import re
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

PROB_TOL = 1e-12  # tolerance on sum(p(n)) == 1


class ConlluFormatError(ValueError):
    """A line of the input is not valid CoNLL-U (carries the line number)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TreeStructureError(ValueError):
    """A sentence block does not encode a valid dependency tree."""


@dataclass(frozen=True)
class StructuralIssue:
    """One skipped sentence: its ordinal in the file and the reason."""

    sentence_index: int
    reason: str
    sent_id: str | None = None


def _as_ints(values) -> tuple[int, ...] | None:
    """The values as Python ints, or None unless each equals its int value
    (so numpy integers and integral floats are read)."""
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == tuple(values) else None


def integer_heads(heads) -> tuple[int, ...]:
    """A head vector as Python ints (:func:`_as_ints`), else raises."""
    ints = _as_ints(heads)
    if ints is None:
        raise TreeStructureError(f"heads must be integers: {heads!r}")
    return ints


def check_trees(heads, sizes) -> tuple[dict[int, str], np.ndarray]:
    """Which sentences of ``sizes`` words, their 1-based head vectors back
    to back in ``heads`` (ints), are not trees, and why: the first rule
    each breaks of "empty sentence"; at its first bad token, "token k:
    head h out of range 1..n" or "token k is its own head"; "r roots
    (exactly one required)"; "cycle through token k", where a climb from
    its first word that misses the root meets itself.  Returns the reasons
    by sentence index (``.get(i)`` is None for a tree) and each word's
    head as an index into ``heads``, -1 at a root."""
    try:
        values = np.asarray(heads, dtype=np.int64)
    except OverflowError:  # a head beyond int64 is out of range
        values = np.array([h if abs(h) < 2**62 else -1 for h in heads])
    sizes = np.asarray(sizes, dtype=np.int64)
    sentence = np.repeat(np.arange(len(sizes)), sizes)
    starts = np.cumsum(sizes) - sizes
    word = np.arange(len(values))
    token = word - np.repeat(starts, sizes) + 1
    bad = (values < 0) | (values > np.repeat(sizes, sizes)) | (values == token)
    root = values == 0
    parent = np.where(root, -1, word + values - token)
    # Pointer doubling: after k rounds each word points 2^k steps up, or
    # to its root; a word that never gets there is on or below a cycle.
    # Roots and bad words point to themselves.
    up = np.where(root | bad, word, parent)
    for _ in range(int(sizes.max(initial=1) - 1).bit_length()):
        up = up[up]
    missed = ~root[up]
    roots = np.bincount(sentence[root], minlength=len(sizes))
    reasons = {}
    for s in np.flatnonzero((sizes == 0) | (roots != 1) | (np.bincount(
            sentence[missed], minlength=len(sizes)) > 0)).tolist():
        a, n = int(starts[s]), int(sizes[s])
        k = int(np.argmax(bad[a:a + n])) if n else 0
        if not n:
            reasons[s] = "empty sentence"
        elif bad[a + k]:
            reasons[s] = (f"token {k + 1} is its own head"
                          if values[a + k] == k + 1 else f"token {k + 1}: "
                          f"head {heads[a + k]} out of range 1..{n}")
        elif roots[s] != 1:
            reasons[s] = f"{roots[s]} roots (exactly one required)"
        else:
            vector, seen = values[a:a + n].tolist(), set()
            k = int(np.argmax(missed[a:a + n])) + 1
            while k not in seen:
                seen.add(k)
                k = vector[k - 1]
            reasons[s] = f"cycle through token {k}"
    return reasons, parent


def tree_arrays(heads, sizes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``heads`` and ``sizes``, each read by :func:`_as_ints`' rule, as
    int64 arrays, and the parents of :func:`check_trees`; raises ValueError
    unless the sizes are integers that add up to the heads, and
    TreeStructureError naming the first sentence that is not a tree."""
    if getattr(getattr(heads, "dtype", None), "kind", None) not in ("i", "u"):
        heads = integer_heads(heads)
    sizes = np.asarray(sizes)
    if ((sizes.dtype.kind not in ("i", "u") and _as_ints(sizes) is None)
            or (sizes < 0).any() or sizes.sum() != len(heads)):
        raise ValueError("the sentence lengths do not add up to the heads")
    sizes = np.asarray(sizes, dtype=np.int64)
    reasons, parent = check_trees(heads, sizes)
    for s, reason in reasons.items():
        raise TreeStructureError(f"sentence {s + 1}: {reason}")
    return np.asarray(heads, dtype=np.int64), sizes, parent


@dataclass(frozen=True)
class DepTree:
    """A dependency tree over ``n`` tokens.

    ``heads[i]`` is the 1-based position of the head of token ``i+1``;
    exactly one entry is 0 (the root).  Heads must be integral (stored as
    Python ints, so numpy integers are accepted), and a head vector that
    :func:`check_trees` finds is no tree, as a treebank of one, raises
    TreeStructureError with its reason: it would corrupt every statistic.
    """

    heads: tuple[int, ...]

    @classmethod
    def _unchecked(cls, heads: tuple[int, ...]) -> DepTree:
        """A tree over a head vector of ints already checked to be one."""
        tree = object.__new__(cls)
        object.__setattr__(tree, "heads", heads)
        return tree

    def __post_init__(self):
        object.__setattr__(self, "heads", integer_heads(self.heads))
        for reason in check_trees(self.heads, [len(self.heads)])[0].values():
            raise TreeStructureError(reason)

    @property
    def n(self) -> int:
        """Number of tokens."""
        return len(self.heads)


def distances(tree: DepTree) -> list[int]:
    """Dependency distances |position(head) - position(dependent)|.

    Returns exactly ``n - 1`` values, each in ``[1, n - 1]``; the root
    contributes no distance.
    """
    return [
        abs(pos - head)
        for pos, head in enumerate(tree.heads, start=1)
        if head != 0
    ]


class Treebank(Sequence):
    """Dependency trees held as two int64 arrays: ``heads``, the head
    vectors of all sentences back to back, and ``sizes``, the token count
    of each.  Indexing and iteration build each :class:`DepTree` only when
    asked; a treebank equals any sequence of the same trees.  Built from
    raw arrays, it checks them as :func:`tree_arrays` does."""

    def __init__(self, heads, sizes):
        self.heads, self.sizes, _ = tree_arrays(heads, sizes)

    @classmethod
    def _unchecked(cls, heads: np.ndarray, sizes: np.ndarray) -> Treebank:
        """The treebank of int64 arrays already checked to hold trees."""
        trees = object.__new__(cls)
        trees.heads, trees.sizes = heads, sizes
        return trees

    @classmethod
    def from_trees(cls, trees: Iterable[DepTree]) -> Treebank:
        """The treebank of ``trees``, or ``trees`` itself if it is one."""
        if isinstance(trees, Treebank):
            return trees
        vectors = [tree.heads for tree in trees]
        sizes = np.fromiter(map(len, vectors), np.int64, len(vectors))
        return cls._unchecked(np.fromiter(chain.from_iterable(vectors),
                                          np.int64, int(sizes.sum())), sizes)

    def __len__(self) -> int:
        return len(self.sizes)

    @cached_property
    def _starts(self) -> np.ndarray:
        """Where each sentence's heads start, then where the last ends."""
        return np.concatenate([[0], np.cumsum(self.sizes)])

    def __getitem__(self, index):
        i = range(len(self))[index]  # a slice gives a list of trees
        if isinstance(i, range):
            return [self[k] for k in i]
        a, b = self._starts[i:i + 2].tolist()
        return DepTree._unchecked(tuple(self.heads[a:b].tolist()))

    def __iter__(self) -> Iterator[DepTree]:
        flat, cut = tuple(self.heads.tolist()), self._starts.tolist()
        return (DepTree._unchecked(flat[a:b]) for a, b in zip(cut, cut[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)


@dataclass(frozen=True)
class DistanceSample:
    """Frequency table of dependency distances.

    ``length_class`` is the sentence length for a fixed-length sample and
    None for a pooled (mixed-lengths) sample; a pooled sample built from a
    corpus carries the per-length samples it sums in ``by_length``, outside
    equality.  Sufficient statistics used by the likelihood functions are
    cached lazily.  The dataclass is frozen, but the sample is not
    immutable: the cached statistics and ``memo``, a dict that fits fill
    with starting values and break-point bounds, are written on first use.
    """

    freq: Mapping[int, int]
    language: str | None = None
    collection: str | None = None
    length_class: int | None = None
    by_length: Mapping[int, DistanceSample] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.freq:
            raise ValueError("empty distance sample")
        distances, counts = _as_ints(self.freq), _as_ints(self.freq.values())
        if distances is None or counts is None:
            raise ValueError("distances and counts must be integers: "
                             f"{dict(self.freq)!r}")
        object.__setattr__(self, "freq", dict(zip(distances, counts)))
        for d, count in self.freq.items():
            if d < 1:
                raise ValueError(f"distance {d} < 1")
            if count < 1:
                raise ValueError(f"count {count} < 1 for distance {d}")
        if self.length_class is not None:
            if max(self.freq) > self.length_class - 1:
                raise ValueError(
                    f"distance {max(self.freq)} impossible in "
                    f"{self.length_class}-word sentences"
                )

    @classmethod
    def from_values(
        cls,
        values: Iterable[int],
        *,
        language: str | None = None,
        collection: str | None = None,
        length_class: int | None = None,
    ) -> "DistanceSample":
        arr = np.asarray(values if isinstance(values, np.ndarray)
                         else list(values), dtype=np.int64)
        support, counts = np.unique(arr, return_counts=True)
        freq = dict(zip(support.tolist(), counts.tolist()))
        return cls(freq, language=language, collection=collection,
                   length_class=length_class)

    @cached_property
    def support(self) -> np.ndarray:
        """Observed distances, sorted ascending."""
        return np.array(sorted(self.freq), dtype=np.int64)

    @cached_property
    def counts(self) -> np.ndarray:
        """Counts aligned with ``support``."""
        return np.array([self.freq[int(d)] for d in self.support],
                        dtype=np.int64)

    @cached_property
    def total(self) -> int:
        """N: number of observed dependencies."""
        return int(self.counts.sum())

    @cached_property
    def weighted_sum(self) -> int:
        """M: sum of distances weighted by frequency."""
        return int((self.support * self.counts).sum())

    @cached_property
    def log_weighted_sum(self) -> float:
        """M': sum of log distances weighted by frequency."""
        return float((self.counts * np.log(self.support)).sum())

    @cached_property
    def _cumulative(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """N*, M* and M'* up to each entry of the support, after a 0."""
        return tuple(np.concatenate([[0], np.cumsum(values)]) for values in (
            self.counts, self.support * self.counts,
            self.counts * np.log(self.support)))

    @cached_property
    def memo(self) -> dict:
        """Values other modules derive from the sample and share."""
        return {}

    def stats_upto(self, d):
        """(N*, M*, M'*) restricted to distances <= d: on an int, or on an
        array of them, one array each."""
        idx = np.searchsorted(self.support, d, side="right")
        cum_n, cum_m, cum_mlog = self._cumulative
        if np.ndim(idx):
            return cum_n[idx], cum_m[idx], cum_mlog[idx]
        return int(cum_n[idx]), int(cum_m[idx]), float(cum_mlog[idx])

    @property
    def min_d(self) -> int:
        return int(self.support[0])

    @property
    def max_d(self) -> int:
        return int(self.support[-1])

    @property
    def distinct(self) -> int:
        """Number of distinct observed distances."""
        return len(self.support)

    @property
    def min2_d(self) -> int | None:
        """Second smallest distinct distance (None when fewer than 2)."""
        return int(self.support[1]) if self.distinct >= 2 else None

    @property
    def max2_d(self) -> int | None:
        """Second largest distinct distance (None when fewer than 2)."""
        return int(self.support[-2]) if self.distinct >= 2 else None

    @property
    def mean_d(self) -> float:
        return self.weighted_sum / self.total

    def label(self) -> str:
        cls = "mixed" if self.length_class is None else f"n={self.length_class}"
        parts = [p for p in (self.collection, self.language, cls) if p]
        return "/".join(parts)


@dataclass(frozen=True)
class LengthDistribution:
    """Proportion of sentences per length, for the length-mixture null model.

    Only lengths >= 2 enter the distribution: one-word sentences carry no
    dependency, and including them would leave the mixture unnormalized.
    """

    probs: Mapping[int, float]

    def __post_init__(self):
        if not self.probs:
            raise ValueError("empty length distribution")
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"length proportions sum to {total!r}, not 1")
        if min(self.probs) < 2:
            raise ValueError("length distribution includes n < 2")

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "LengthDistribution":
        kept = {n: c for n, c in counts.items() if n >= 2}
        total = sum(kept.values())
        if total == 0:
            raise ValueError("no sentences of length >= 2")
        return cls({n: c / total for n, c in sorted(kept.items())})

    @property
    def min_n(self) -> int:
        return min(self.probs)

    @property
    def max_n(self) -> int:
        return max(self.probs)

    def items(self) -> Iterator[tuple[int, float]]:
        return iter(sorted(self.probs.items()))


@dataclass
class SampleSet:
    """Distance samples for one (collection, language) corpus."""

    pooled: DistanceSample
    by_length: dict[int, DistanceSample]
    lengths: LengthDistribution
    sentence_counts: dict[int, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# CoNLL-U parsing
# ---------------------------------------------------------------------------

N_COLUMNS = 10
ID_COLUMN = 0
HEAD_COLUMN = 6
# The array pass reads the input in pieces of about this many bytes, each
# ending after a blank line, so its index arrays stay small.
PIECE_BYTES = 1 << 18
# Plain ids and heads of up to 18 digits fit an int64.
MAX_DIGITS = 18
BOM = "\ufeff".encode()
# A line after which a piece may end.
_SEPARATOR = re.compile(rb"\n[ \t\r]*\n")


def parse_conllu(
    text: str | bytes,
    *,
    issues: list[StructuralIssue] | None = None,
) -> Treebank:
    """Parse CoNLL-U text into a :class:`Treebank`.

    Sentences are blocks of 10-column tab-separated token lines separated by
    blank lines; ``#`` lines are comments.  Multiword-token ranges ("1-2")
    and empty nodes ("1.1") are dropped, the remaining tokens renumbered
    1..n in order of appearance, and heads remapped.  Bytes must be UTF-8
    (checked by decoding them, unless all are ASCII); one leading
    byte-order mark is dropped, and lines may end in ``\\r\\n``.

    A malformed line (wrong column count, an ID or HEAD that is not 1 to 18
    ASCII digits) raises :class:`ConlluFormatError` with its line number.
    A sentence whose head vector is structurally invalid (bad reference,
    zero or several roots, cycle) is skipped and recorded in ``issues``; a
    summary is logged.  The module docstring gives the rules in full.
    """
    if isinstance(text, bytes):
        if not text.isascii():
            text.decode("utf-8")  # invalid UTF-8 fails here, before any line
        data = text
    else:
        data = text.encode("utf-8", "surrogatepass")
    if issues is None:
        issues = []

    pieces = [(np.zeros(0, dtype=np.int64),) * 2]
    sentence_index = 0
    line_number = 1
    pos = len(BOM) if data.startswith(BOM) else 0
    while pos < len(data):
        end = _piece_end(data, pos)
        sentence_index, line_number = _read_piece(
            data, pos, end, line_number, pieces, issues, sentence_index)
        pos = end

    if issues:
        log.warning(
            "skipped %d structurally invalid sentence(s) out of %d",
            len(issues), sentence_index,
        )
    return Treebank._unchecked(*map(np.concatenate, zip(*pieces)))


def _piece_end(data: bytes, start: int) -> int:
    """End of the piece that begins at ``start``: just after the first line
    of ASCII spaces, tabs and CRs at least PIECE_BYTES on, else the end of
    the data."""
    match = _SEPARATOR.search(data, start + PIECE_BYTES)
    return match.end() if match else len(data)


def _read_piece(data, lo, hi, first_line, pieces, issues,
                sentence_index) -> tuple[int, int]:
    """Append the trees of ``data[lo:hi]`` (first line ``first_line``) to
    ``pieces`` as a (heads, sizes) pair and its issues to ``issues``; return
    the sentence count and the next line number, or raise the piece's first
    :class:`ConlluFormatError` once the sentences that end before it are
    read."""
    chunk = np.frombuffer(data, dtype=np.uint8, count=hi - lo, offset=lo)
    # Tabs and newlines; an unterminated last line ends at the piece end.
    sep = np.flatnonzero(chunk - np.uint8(9) < 2)
    line_end = np.flatnonzero(chunk[sep] == 10)
    if chunk[-1] != 10:
        sep = np.append(sep, len(chunk))
        line_end = np.append(line_end, len(sep) - 1)
    ends = sep[line_end]
    starts = np.concatenate(([0], ends[:-1] + 1))
    first_tab = np.concatenate(([0], line_end[:-1] + 1))  # index into sep
    length = ends - starts
    first = chunk[starts]
    blank = (length == 0) | ((length == 1) & (first == 13))
    # A line that starts with a space, a control byte or a non-ASCII byte
    # may be all whitespace: str.strip decides.
    maybe = ((first <= 32) | (first >= 128)) & ~blank
    for i in np.flatnonzero(maybe).tolist():
        blank[i] = not _text(data, lo + starts[i], lo + ends[i]).strip()
    comment = first == 35
    columns = line_end - first_tab + 1
    token = np.flatnonzero(~blank & ~comment & (columns == N_COLUMNS))
    wrong = np.flatnonzero(~blank & ~comment & (columns != N_COLUMNS))
    tab = first_tab[token]
    field_start = np.concatenate((starts[token],
                                  sep[tab + HEAD_COLUMN - 1] + 1))
    field_end = np.concatenate((sep[tab + ID_COLUMN], sep[tab + HEAD_COLUMN]))
    value, plain, dotted = _digits(chunk, field_start, field_end - field_start)
    m = len(token)
    # A token whose ID holds '-' or '.' (a multiword range or an empty node)
    # is dropped; _digits looks for them in the first MAX_DIGITS bytes.
    for i in np.flatnonzero(field_end[:m] - field_start[:m] > MAX_DIGITS):
        field = data[lo + field_start[i]:lo + field_end[i]]
        dotted[i] = b"-" in field or b"." in field
    kept = ~dotted[:m]

    # Segment s holds lines limits[s] to limits[s + 1] - 1: the s-th blank
    # line of the piece and the lines after it.  A segment with a token line
    # is a sentence.  A bad ID or HEAD is raised when its sentence ends, a
    # wrong column count at its line.
    segment = np.cumsum(blank)
    limits = np.concatenate(([0], np.flatnonzero(blank), [len(starts)]))
    counts = lambda lines: np.diff(np.searchsorted(lines, limits))  # sorted
    stop, error = len(limits) - 1, None
    bad_field = np.flatnonzero(kept & ~(plain[:m] & plain[m:]))
    if len(bad_field):
        k = int(bad_field[0])
        f = k if not plain[k] else k + m
        stop = segment[token[k]]
        text = _text(data, lo + field_start[f], lo + field_end[f])
        error = ConlluFormatError(
            f"bad {'token id' if f == k else 'head'} {text!r}",
            first_line + int(token[k]))
    if len(wrong) and segment[wrong[0]] <= stop:
        stop = segment[wrong[0]]
        error = ConlluFormatError(
            f"expected {N_COLUMNS} tab-separated columns, "
            f"got {columns[wrong[0]]}", first_line + int(wrong[0]))
    is_sentence = counts(token) > 0
    if error is not None:
        is_sentence[stop:] = False
        kept &= segment[token] < stop

    # A sentence whose ids are not 1..n, or with a head past n, keeps its
    # size when renumbered; then one check finds those that are not trees.
    tok = token[kept]
    ids, heads = value[:m][kept], value[m:][kept]
    segments = np.flatnonzero(is_sentence)
    n = counts(tok)[segments]
    offset = np.cumsum(n) - n
    odd = (ids != np.arange(len(tok)) - np.repeat(offset, n) + 1) \
        | (heads > np.repeat(n, n))
    skipped = {}
    for s in np.flatnonzero((n == 0)
                            | (counts(tok[odd])[segments] > 0)).tolist():
        rows = slice(offset[s], offset[s] + n[s])
        try:
            heads[rows] = _renumbered(ids[rows].tolist(),
                                      heads[rows].tolist())
        except TreeStructureError as exc:
            skipped[s] = str(exc)
    skipped = check_trees(heads, n)[0] | skipped
    for s in sorted(skipped):
        a, b = limits[segments[s]], limits[segments[s] + 1]
        lines = np.flatnonzero(comment[a:b]) + a
        issues.append(StructuralIssue(
            sentence_index + s + 1, skipped[s],
            _sent_id(data, lo + starts[lines], lo + ends[lines])))
    tree = ~np.isin(np.arange(len(n)), list(skipped))
    pieces.append((heads[np.repeat(tree, n)], n[tree]))
    if error is not None:
        raise error
    return sentence_index + len(segments), first_line + len(starts)


def _text(data, lo, hi) -> str:
    return data[lo:hi].decode("utf-8", "surrogatepass")


def _digits(chunk, start, length):
    """Read fields ``chunk[start:start + length]`` as numbers: their values,
    whether each is 1 to MAX_DIGITS ASCII digits, and whether one of its
    first MAX_DIGITS bytes is '-' or '.'."""
    value = np.zeros(len(start), dtype=np.int64)
    plain = (length >= 1) & (length <= MAX_DIGITS)
    dotted = np.zeros(len(start), dtype=bool)
    for k in range(min(int(length.max(initial=0)), MAX_DIGITS)):
        live = length > k
        byte = chunk.take(start + k, mode="clip")
        digit = byte - np.uint8(48)
        plain &= (digit < 10) | ~live
        dotted |= live & ((byte == 45) | (byte == 46))
        value = np.where(live, value * 10 + digit, value)
    return value, plain, dotted


def _renumbered(ids: list[int], heads: list[int]) -> tuple[int, ...]:
    """``heads`` renumbered 1..n by the order of ``ids``."""
    if not ids:
        raise TreeStructureError("no syntactic tokens")
    renumber = {0: 0}
    for new_id, old in enumerate(ids, start=1):
        if old in renumber:
            raise TreeStructureError(f"duplicate token id {old}")
        renumber[old] = new_id
    for old, head in zip(ids, heads):
        if head not in renumber:
            raise TreeStructureError(f"token {old} has head {head}, "
                                     "which is skipped or missing")
    return tuple(renumber[head] for head in heads)


def _sent_id(data, starts, ends) -> str | None:
    """The value of the last ``sent_id`` comment among the comment lines
    ``data[starts[i]:ends[i]]``."""
    sent_id = None
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        key, eq, value = _text(data, lo + 1, hi).partition("=")
        if eq and key.strip() == "sent_id":
            sent_id = value.strip()
    return sent_id


def load_conllu(
    path: str | Path,
    *,
    issues: list[StructuralIssue] | None = None,
) -> Treebank:
    """Parse a CoNLL-U file from disk."""
    return parse_conllu(Path(path).read_bytes(), issues=issues)


def to_conllu(trees: Iterable[DepTree]) -> str:
    """Serialize trees back to minimal CoNLL-U (placeholder word forms)."""
    return "".join(
        "".join(f"{pos}\tw{pos}\t_\t_\t_\t_\t{head}\t_\t_\t_\n"
                for pos, head in enumerate(tree.heads, start=1)) + "\n"
        for tree in trees)


# ---------------------------------------------------------------------------
# Sample construction
# ---------------------------------------------------------------------------

def build_samples(
    trees: Iterable[DepTree],
    *,
    language: str | None = None,
    collection: str | None = None,
) -> SampleSet:
    """Group dependency distances by sentence length and pooled.

    Returns fixed-length samples keyed by n (lengths with no sentence are
    simply absent), the pooled mixed-lengths sample (their sum, carrying
    them in ``by_length``), the sentence-length distribution, and sentence
    counts per length.
    """
    trees = Treebank.from_trees(trees)
    if not len(trees):
        raise ValueError("no trees")

    # One (length, distance) key per dependency, counted by one np.unique.
    heads, sizes = trees.heads, trees.sizes
    token_length = np.repeat(sizes, sizes)
    position = (np.arange(len(heads))
                - np.repeat(np.cumsum(sizes) - sizes, sizes) + 1)
    dependent = heads != 0
    stride = int(sizes.max())
    keys, key_counts = np.unique(
        token_length[dependent] * stride
        + np.abs(position - heads)[dependent],
        return_counts=True)
    if not len(keys):
        raise ValueError("corpus has no dependencies (all sentences length 1)")

    key_n, key_d = np.divmod(keys, stride)
    cuts = np.flatnonzero(np.diff(key_n)) + 1
    key_d, key_counts = key_d.tolist(), key_counts.tolist()
    by_length = {
        n: DistanceSample(
            dict(zip(key_d[a:b], key_counts[a:b])), language=language,
            collection=collection, length_class=n,
        )
        for n, a, b in zip(key_n[np.r_[0, cuts]].tolist(),
                           [0, *cuts.tolist()], [*cuts.tolist(), len(keys)])
    }
    pooled_freq = np.zeros(stride, dtype=np.int64)
    np.add.at(pooled_freq, key_d, key_counts)
    support = np.flatnonzero(pooled_freq)
    pooled = DistanceSample(
        dict(zip(support.tolist(), pooled_freq[support].tolist())),
        language=language, collection=collection, by_length=by_length)
    n_values, n_counts = np.unique(sizes, return_counts=True)
    sentence_counts = dict(zip(n_values.tolist(), n_counts.tolist()))
    return SampleSet(
        pooled=pooled,
        by_length=by_length,
        lengths=LengthDistribution.from_counts(sentence_counts),
        sentence_counts=sentence_counts,
    )


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    collection: str
    language: str


def read_manifest(path: str | Path) -> list[ManifestEntry]:
    """Read a corpus manifest: one ``path collection language`` line each.

    Columns are tab-separated when a tab is present, otherwise whitespace
    separated.  Blank lines and ``#`` comments are ignored.  Relative corpus
    paths are resolved against the manifest's directory.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    text = path.read_text(encoding="utf-8-sig")
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 3:
            raise ConlluFormatError(
                f"manifest line needs 3 fields (path, collection, language), "
                f"got {len(fields)}",
                line_number,
            )
        corpus = Path(fields[0])
        if not corpus.is_absolute():
            corpus = base / corpus
        entries.append(ManifestEntry(corpus, fields[1], fields[2]))
    return entries
