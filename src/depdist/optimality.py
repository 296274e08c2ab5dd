"""Dependency distance optimality: D, its random and minimum baselines,
and the normalized score (random - observed) / (random - minimum).

The random baseline is the expectation of D over the n! orderings of the
sentence: every edge has expected length (n + 1)/3, so the tree total is
(n - 1)(n + 1)/3.  The minimum baseline is an exact minimum linear
arrangement.  The score is 1 when the sentence attains the minimum, near 0
when word order behaves as random, and negative when distances exceed the
random expectation; it is undefined when the two baselines coincide
(sentences of fewer than 3 words).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arrangement import min_arrangement_cost
from .treebank import DepTree, distances


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


def sum_distances(tree: DepTree) -> int:
    """Observed total dependency distance D (0 for one-word sentences)."""
    return sum(distances(tree))


def expected_random(tree: DepTree) -> float | None:
    """Expected D under a uniformly random ordering: (n - 1)(n + 1)/3."""
    n = tree.n
    if n < 2:
        return None
    return (n - 1) * (n + 1) / 3.0


def min_arrangement(tree: DepTree) -> int:
    """Exact minimum total dependency distance over all orderings."""
    return min_arrangement_cost(tree.edges(), tree.n)


def omega(tree: DepTree) -> OmegaResult:
    """Normalized optimality score of one sentence.

    Computed from the integer identity 3*(random - observed) =
    n^2 - 1 - 3D, so the score is an exact ratio of integers (the worked
    3-word cases give exactly 1 and -0.5).
    """
    d_obs = sum_distances(tree)
    n = tree.n
    if n < 2:
        return OmegaResult(d_obs, None, None, None)
    d_min = min_arrangement(tree)
    d_rand = expected_random(tree)
    numerator = n * n - 1 - 3 * d_obs
    denominator = n * n - 1 - 3 * d_min
    score = numerator / denominator if denominator != 0 else None
    return OmegaResult(d_obs, d_rand, d_min, score)


def average_omega(trees) -> dict[int, OmegaLengthStats]:
    """Mean score per sentence length, skipping undefined scores.

    Lengths whose sentences all have undefined scores report a None mean
    with the skip count; empty groups are absent, never zero.
    """
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    skips: dict[int, int] = {}
    for tree in trees:
        n = tree.n
        counts.setdefault(n, 0)
        result = omega(tree)
        if result.omega is None:
            skips[n] = skips.get(n, 0) + 1
            continue
        sums[n] = sums.get(n, 0.0) + result.omega
        counts[n] += 1
    out: dict[int, OmegaLengthStats] = {}
    for n in sorted(counts):
        c = counts[n]
        out[n] = OmegaLengthStats(
            mean_omega=(sums.get(n, 0.0) / c) if c else None,
            count=c,
            skipped=skips.get(n, 0),
        )
    return out
