"""Dependency distance optimality: D, its random and minimum baselines,
and the normalized score (random - observed) / (random - minimum).

The random baseline is the expectation of D over the n! orderings of the
sentence: every edge has expected length (n + 1)/3, so the tree total is
(n - 1)(n + 1)/3.  The minimum baseline is an exact minimum linear
arrangement of the head vector.  The score is 1 when the sentence attains
the minimum, near 0 when word order behaves as random, and negative when
distances exceed the random expectation; it is undefined when the two
baselines coincide (sentences of fewer than 3 words).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrangement import min_arrangement_cost
from .treebank import DepTree, Treebank


@dataclass(frozen=True)
class OmegaResult:
    """Per-sentence score and its ingredients."""

    distance_sum: int
    random_baseline: float | None
    minimum: int | None
    omega: float | None


@dataclass(frozen=True)
class OmegaLengthStats:
    """Mean score over the sentences of one length.

    ``skipped`` counts undefined scores (degenerate baselines), which do
    not enter the mean.  Every minimum is solved exactly, so no sentence
    is left out for any other reason.
    """

    mean_omega: float | None
    count: int
    skipped: int


def omega(tree: DepTree) -> OmegaResult:
    """Normalized optimality score of one sentence."""
    (d_obs,), (d_min,), (score,) = _scores(Treebank.from_trees([tree]))
    n = tree.n
    if n < 2:
        return OmegaResult(d_obs, None, None, None)
    return OmegaResult(d_obs, (n * n - 1) / 3.0, d_min, score)


def average_omega(trees) -> dict[int, OmegaLengthStats]:
    """Mean score per sentence length, skipping undefined scores.

    Reads the arrays of ``Treebank.from_trees(trees)`` and builds no
    ``DepTree``.  Lengths whose sentences all have undefined scores report
    a None mean with the skip count; empty groups are absent, never zero.
    """
    trees = Treebank.from_trees(trees)
    scores: dict[int, list[float | None]] = {}
    for n, score in zip(trees.sizes.tolist(), _scores(trees)[2]):
        scores.setdefault(n, []).append(score)
    out: dict[int, OmegaLengthStats] = {}
    for n in sorted(scores):
        defined = [score for score in scores[n] if score is not None]
        out[n] = OmegaLengthStats(
            mean_omega=sum(defined) / len(defined) if defined else None,
            count=len(defined),
            skipped=len(scores[n]) - len(defined),
        )
    return out


def _scores(trees: Treebank) -> tuple[list, list, list]:
    """Each sentence's D, minimum and score, with D from the arrays in one
    numpy pass and the minima from one solver call for the whole treebank:
    (n^2 - 1 - 3D) over (n^2 - 1 - 3 min), exact in the worked 3-word
    cases (1 and -0.5), None where that is 0/0 (under 3 words)."""
    heads, sizes = trees.heads, trees.sizes
    minima = min_arrangement_cost(heads, sizes).tolist()
    starts = np.cumsum(sizes) - sizes
    position = np.arange(len(heads)) - np.repeat(starts, sizes) + 1
    gaps = np.where(heads != 0, np.abs(position - heads), 0)
    totals = (np.add.reduceat(gaps, starts) if len(heads) else starts).tolist()
    scores = []
    for n, d_obs, d_min in zip(sizes.tolist(), totals, minima):
        denominator = n * n - 1 - 3 * d_min
        scores.append((n * n - 1 - 3 * d_obs) / denominator
                      if denominator else None)
    return totals, minima, scores
