"""Parse CoNLL-U corpora into dependency trees and distance samples.

A sentence is kept as a bare head vector: token ``i`` (1-based) depends on
token ``heads[i-1]``, with 0 marking the root.  The distance of a dependency
is the absolute difference of the two token positions, so adjacent words are
at distance 1.

Usage:

    from depdist.treebank import load_conllu, build_samples, distances

    trees = load_conllu("corpus.conllu")
    sset = build_samples(trees, language="English", collection="PUD")
    sset.pooled.total          # number of dependencies
    sset.by_length[12].freq    # distance frequencies in 12-word sentences
"""

from __future__ import annotations

import io
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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


@dataclass(frozen=True)
class DepTree:
    """A dependency tree over ``n`` tokens.

    ``heads[i]`` is the 1-based position of the head of token ``i+1``;
    exactly one entry is 0 (the root).  Validity is checked at construction:
    integral heads (stored as Python ints, so numpy integers are accepted),
    single root, no self-loops, heads in range, and no cycles (a cyclic head
    vector is not a tree and would corrupt every downstream statistic).
    """

    heads: tuple[int, ...]

    def __post_init__(self):
        heads = self.heads
        if type(heads) is not tuple or set(map(type, heads)) != {int}:
            try:
                ints = tuple(map(int, heads))
            except (TypeError, ValueError, OverflowError):
                ints = None
            if ints is None or ints != tuple(heads):
                raise TreeStructureError(f"heads must be integers: {heads!r}")
            object.__setattr__(self, "heads", ints)
        n = len(self.heads)
        if n == 0:
            raise TreeStructureError("empty sentence")
        roots = 0
        for pos, head in enumerate(self.heads, start=1):
            if not 0 <= head <= n:
                raise TreeStructureError(
                    f"token {pos}: head {head} out of range 1..{n}"
                )
            if head == pos:
                raise TreeStructureError(f"token {pos} is its own head")
            if head == 0:
                roots += 1
        if roots != 1:
            raise TreeStructureError(f"{roots} roots (exactly one required)")
        # Cycle check: every token must reach the root by climbing heads.
        # Each token is climbed through once: its state is 0 until the climb
        # reaches it, 1 while it is on the current climb, 2 once that climb
        # reached the root.
        state = [2] + [0] * n
        for pos in range(1, n + 1):
            chain = []
            cur = pos
            while state[cur] == 0:
                state[cur] = 1
                chain.append(cur)
                cur = self.heads[cur - 1]
            if state[cur] == 1:
                raise TreeStructureError(f"cycle through token {cur}")
            for token in chain:
                state[token] = 2

    @property
    def n(self) -> int:
        """Number of tokens."""
        return len(self.heads)

    def edges(self) -> list[tuple[int, int]]:
        """Dependency edges as 0-based vertex pairs (dependent, head)."""
        return [
            (pos - 1, head - 1)
            for pos, head in enumerate(self.heads, start=1)
            if head != 0
        ]


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
        cum_n = np.cumsum(self.counts)
        cum_m = np.cumsum(self.support * self.counts)
        cum_mlog = np.cumsum(self.counts * np.log(self.support))
        return cum_n, cum_m, cum_mlog

    @cached_property
    def memo(self) -> dict:
        """Values other modules derive from the sample and share."""
        return {}

    def stats_upto(self, d: int) -> tuple[int, int, float]:
        """(N*, M*, M'*) restricted to distances <= d."""
        idx = int(np.searchsorted(self.support, d, side="right"))
        if idx == 0:
            return 0, 0, 0.0
        cum_n, cum_m, cum_mlog = self._cumulative
        return int(cum_n[idx - 1]), int(cum_m[idx - 1]), float(cum_mlog[idx - 1])

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


def parse_conllu(
    text: str | bytes,
    *,
    issues: list[StructuralIssue] | None = None,
) -> list[DepTree]:
    """Parse CoNLL-U text into dependency trees.

    Sentences are blocks of 10-column tab-separated token lines separated by
    blank lines; ``#`` lines are comments.  Multiword-token ranges ("1-2")
    and empty nodes ("1.1") are dropped, the remaining tokens renumbered
    1..n in order of appearance, and heads remapped.

    A malformed line (wrong column count, non-integer head) raises
    :class:`ConlluFormatError` with its line number.  A sentence whose head
    vector is structurally invalid (bad reference, zero or several roots,
    cycle) is skipped and recorded in ``issues``; a summary is logged.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if issues is None:
        issues = []

    trees: list[DepTree] = []
    sentence_index = 0
    block: list[tuple[int, str, str]] = []  # (line number, ID, HEAD)
    sent_id: str | None = None

    def flush():
        nonlocal sentence_index, sent_id
        if not block:
            sent_id = None
            return
        sentence_index += 1
        try:
            trees.append(_block_to_tree(block))
        except TreeStructureError as exc:
            issues.append(StructuralIssue(sentence_index, str(exc), sent_id))
        block.clear()
        sent_id = None

    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].partition("=")
                if key.strip() == "sent_id":
                    sent_id = value.strip()
            continue
        fields = line.split("\t")
        if len(fields) != N_COLUMNS:
            raise ConlluFormatError(
                f"expected {N_COLUMNS} tab-separated columns, got {len(fields)}",
                line_number,
            )
        block.append((line_number, fields[ID_COLUMN], fields[HEAD_COLUMN]))
    flush()

    if issues:
        log.warning(
            "skipped %d structurally invalid sentence(s) out of %d",
            len(issues), sentence_index,
        )
    return trees


def _block_to_tree(block: list[tuple[int, str, str]]) -> DepTree:
    """Turn one sentence block, (line number, ID, HEAD) per token line,
    into a DepTree (renumbering token ids)."""
    old_ids: list[int] = []
    raw_heads: list[int] = []
    for line_number, token_id, head_field in block:
        if "-" in token_id or "." in token_id:
            continue  # multiword range / empty node
        try:
            tid = int(token_id)
        except ValueError:
            raise ConlluFormatError(f"bad token id {token_id!r}", line_number)
        try:
            head = int(head_field)
        except ValueError:
            raise ConlluFormatError(f"bad head {head_field!r}", line_number)
        old_ids.append(tid)
        raw_heads.append(head)

    if not old_ids:
        raise TreeStructureError("no syntactic tokens")
    renumber = {0: 0}
    for new_id, old in enumerate(old_ids, start=1):
        if old in renumber:
            raise TreeStructureError(f"duplicate token id {old}")
        renumber[old] = new_id
    heads = []
    for old, head in zip(old_ids, raw_heads):
        if head not in renumber:
            raise TreeStructureError(
                f"token {old} has head {head}, which is skipped or missing"
            )
        heads.append(renumber[head])
    return DepTree(tuple(heads))


def load_conllu(
    path: str | Path,
    *,
    issues: list[StructuralIssue] | None = None,
) -> list[DepTree]:
    """Parse a CoNLL-U file from disk."""
    data = Path(path).read_bytes()
    return parse_conllu(data, issues=issues)


def to_conllu(trees: Iterable[DepTree]) -> str:
    """Serialize trees back to minimal CoNLL-U (placeholder word forms)."""
    out = io.StringIO()
    for tree in trees:
        for pos, head in enumerate(tree.heads, start=1):
            cols = [str(pos), f"w{pos}", "_", "_", "_", "_", str(head), "_",
                    "_", "_"]
            out.write("\t".join(cols) + "\n")
        out.write("\n")
    return out.getvalue()


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
    trees = list(trees)
    if not trees:
        raise ValueError("no trees")

    by_length_values: dict[int, list[int]] = {}
    sentence_counts: dict[int, int] = {}
    for tree in trees:
        n = tree.n
        sentence_counts[n] = sentence_counts.get(n, 0) + 1
        if n >= 2:
            by_length_values.setdefault(n, []).extend(distances(tree))

    if not by_length_values:
        raise ValueError("corpus has no dependencies (all sentences length 1)")

    by_length = {
        n: DistanceSample.from_values(
            values, language=language, collection=collection, length_class=n
        )
        for n, values in sorted(by_length_values.items())
    }
    pooled_freq: Counter = Counter()
    for sample in by_length.values():
        pooled_freq.update(sample.freq)
    pooled = DistanceSample(
        dict(sorted(pooled_freq.items())), language=language,
        collection=collection, by_length=by_length,
    )
    lengths = LengthDistribution.from_counts(sentence_counts)
    return SampleSet(
        pooled=pooled,
        by_length=by_length,
        lengths=lengths,
        sentence_counts=dict(sorted(sentence_counts.items())),
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
    for line_number, raw in enumerate(path.read_text().splitlines(), start=1):
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
