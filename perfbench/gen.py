"""Seeded synthetic treebanks for the benchmark.

Every tree is built so that each dependency arc points toward the root:
a token left of the root takes a head between itself and the root, a
token right of the root likewise, so climbing heads always reaches the
root and no head vector has a cycle.  The distance of each arc is drawn
from a per-language mixture of a geometric decay (local attachment) and
a heavy power-law tail, truncated at the distance to the root.  The tail
is what gives pooled samples dozens of distinct distances, as real
treebanks have; a purely geometric sampler tops out near twenty.

The generator is pure numpy and never imports the package under test,
so the head vectors it returns are an independent source of truth for
the correctness checks.  Run this file as a script to check that its
CoNLL-U text round-trips through ``depdist.treebank``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MIN_LENGTH = 2
MAX_LENGTH = 60


@dataclass(frozen=True)
class Language:
    """Length distribution and distance decay of one synthetic language."""

    name: str
    mean_length: float   # mean sentence length before clipping to 2..60
    shape: float | None  # gamma shape of the length mixture; None: Poisson
    q: float             # geometric decay of the local regime
    tail_weight: float   # share of arcs drawn from the power-law tail
    gamma: float         # exponent of the power-law tail
    edge_root: float     # share of sentences rooted at their first or last word


LANGUAGES = (
    Language("Alpha", 18.0, 4.0, 0.45, 0.30, 1.2, 0.3),
    Language("Beta", 14.0, 3.0, 0.55, 0.25, 1.3, 0.4),
    Language("Gamma", 22.0, 5.0, 0.35, 0.35, 1.1, 0.2),
)


def length_pmf(lang: Language, lo: int = MIN_LENGTH,
               hi: int = MAX_LENGTH) -> np.ndarray:
    """P(n) on ``lo..hi`` (index ``n - lo``), the clipped mass at the ends.

    Poisson, or a gamma mixture of Poisson laws (negative binomial) for
    the overdispersed lengths of real text, whose long sentences are
    where long distances come from.
    """
    k = np.arange(hi + 1)
    if lang.shape is None:
        log_p = k * math.log(lang.mean_length) - lang.mean_length - \
            np.array([math.lgamma(i + 1) for i in k])
    else:
        r, p = lang.shape, lang.shape / (lang.shape + lang.mean_length)
        log_p = np.array([math.lgamma(i + r) - math.lgamma(i + 1)
                          - math.lgamma(r) for i in k]) \
            + r * math.log(p) + k * math.log1p(-p)
    pmf = np.exp(log_p)
    out = pmf[lo:].copy()
    out[0] += pmf[:lo].sum()
    out[-1] += max(0.0, 1.0 - pmf.sum())
    return out / out.sum()


def sentence_lengths(rng: np.random.Generator, count: int, lang: Language,
                     hi: int = MAX_LENGTH, min_count: int = 1) -> np.ndarray:
    """``count`` lengths in random order, with a fixed histogram.

    Each length gets its expected share of ``count`` (largest remainders
    round), so every seed fits and scores the same length mix and only the
    trees differ.  Cost per pass then varies far less between seeds than
    with independently drawn lengths.  Lengths whose share is below
    ``min_count`` sentences are left out and the rest scaled up.
    """
    pmf = length_pmf(lang, hi=hi)
    pmf = np.where(pmf * count >= min_count, pmf, 0.0)
    share = pmf / pmf.sum() * count
    quota = np.floor(share).astype(np.int64)
    rest = count - int(quota.sum())
    quota[np.argsort(quota - share, kind="stable")[:rest]] += 1
    lengths = np.repeat(np.arange(MIN_LENGTH, MIN_LENGTH + len(quota)), quota)
    return rng.permutation(lengths)


def random_heads(rng: np.random.Generator, lengths: np.ndarray,
                 lang: Language) -> list[np.ndarray]:
    """One head vector per sentence of the given lengths (1-based heads,
    0 for the root)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    sent = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(total) - starts[sent] + 1            # 1-based position
    root = (rng.random(len(lengths)) * lengths).astype(np.int64) + 1
    edge = rng.random(len(lengths))
    root = np.where(edge < lang.edge_root / 2, 1, root)
    root = np.where(edge > 1 - lang.edge_root / 2, lengths, root)
    to_root = root[sent] - pos                           # signed
    reach = np.abs(to_root)                              # max distance
    safe = np.maximum(reach, 1)

    # Truncated geometric on 1..reach by inverse CDF.
    u = rng.random(total)
    log1m_q = np.log1p(-lang.q)
    mass = -np.expm1(safe * log1m_q)
    geo = 1 + np.floor(np.log1p(-u * mass) / log1m_q)
    # Truncated continuous power law on [1, reach + 1), floored.
    v = rng.random(total)
    a = 1.0 - lang.gamma
    top = np.power(safe + 1.0, a)
    tail = np.floor(np.power(1.0 + v * (top - 1.0), 1.0 / a))
    pick_tail = rng.random(total) < lang.tail_weight
    d = np.where(pick_tail, tail, geo)
    d = np.clip(d, 1, safe).astype(np.int64)

    heads = np.where(reach == 0, 0, pos + np.sign(to_root) * d)
    return np.split(heads, np.cumsum(lengths)[:-1])


def corpus(rng: np.random.Generator, lang: Language, count: int,
           hi: int = MAX_LENGTH, min_count: int = 1) -> list[np.ndarray]:
    """``count`` sentences of one language, at most ``hi`` words long."""
    return random_heads(
        rng, sentence_lengths(rng, count, lang, hi, min_count), lang)


_PREFIX: list[str] = [f"{i}\tw{i}\t_\t_\t_\t_\t" for i in range(MAX_LENGTH + 2)]
_SUFFIX = "\t_\t_\t_\n"


def to_conllu_text(trees: list[np.ndarray]) -> str:
    """Minimal 10-column CoNLL-U, one block per sentence."""
    parts: list[str] = []
    for index, heads in enumerate(trees, start=1):
        parts.append(f"# sent_id = s{index}\n")
        for pos, head in enumerate(heads.tolist(), start=1):
            parts.append(_PREFIX[pos] + str(head) + _SUFFIX)
        parts.append("\n")
    return "".join(parts)


def distance_counts(trees: list[np.ndarray]) -> tuple[dict[int, dict[int, int]],
                                                      dict[int, int]]:
    """Distance frequencies per sentence length and pooled.

    Computed from the head vectors alone: the reference that the
    program's extracted samples must equal.
    """
    by_length: dict[int, np.ndarray] = {}
    pooled = np.zeros(MAX_LENGTH + 1, dtype=np.int64)
    for heads in trees:
        n = len(heads)
        if n < 2:
            continue
        d = np.abs(np.arange(1, n + 1) - heads)[heads != 0]
        counts = np.bincount(d, minlength=MAX_LENGTH + 1)
        by_length[n] = by_length.get(n, 0) + counts
        pooled += counts
    as_dict = lambda c: {int(d): int(k) for d, k in enumerate(c) if k}
    return ({n: as_dict(c) for n, c in sorted(by_length.items())},
            as_dict(pooled))


def _round_trip_check() -> None:
    from depdist.treebank import parse_conllu, to_conllu

    rng = np.random.default_rng(0)
    for lang in LANGUAGES:
        trees = corpus(rng, lang, 500)
        text = to_conllu_text(trees)
        parsed = parse_conllu(text)
        if [t.heads for t in parsed] != [tuple(h.tolist()) for h in trees]:
            raise SystemExit(f"{lang.name}: parsed heads differ")
        if parse_conllu(to_conllu(parsed)) != parsed:
            raise SystemExit(f"{lang.name}: to_conllu does not round-trip")
        _, pooled = distance_counts(trees)
        print(f"{lang.name}: {len(trees)} sentences round-trip; "
              f"{len(pooled)} distinct distances, max {max(pooled)}")


if __name__ == "__main__":
    _round_trip_check()
