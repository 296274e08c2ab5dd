"""Correctness checks of CLI outputs against independent computations.

Each check takes the outputs of one CLI invocation and what the benchmark
knows without the program (the generated head vectors, a brute-force
minimum, or a reference recorded at the seed commit) and returns a
``Verdict``: items attempted, items that completed correctly, and one
line per mismatch.  An item counts as completed only if it passed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen

COLLECTION = "SYN"
MIN_FIT_LENGTH = 4      # the CLI's default --exclude-n-below
ITEMS_PER_SUITE = 8     # artificial samples per validation seed
LL_TOLERANCE = 1e-9     # a log-likelihood may not fall further below the reference
BRUTE_FORCE_MAX_N = 8


@dataclass
class Verdict:
    attempted: int = 0
    ok: int = 0
    mismatches: list[str] = field(default_factory=list)

    def add(self, items: int, passed: bool, why: str = ""):
        self.attempted += items
        if passed:
            self.ok += items
        elif why:
            self.mismatches.append(why)


def completed(unit: dict) -> bool:
    """Exit 0, or 4 (validation ran and reported a recovery miss)."""
    return unit["code"] in (0, 4)


def _rows(path: Path) -> list[dict]:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _sample_counts(path: Path) -> dict[int, int] | None:
    if not path.is_file():
        return None
    counts = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "d,count":
            continue
        d, count = line.split(",")
        counts[int(d)] = int(count)
    return counts


# ---------------------------------------------------------------------------
# extract: distance counts recomputed from the head vectors
# ---------------------------------------------------------------------------

def check_extract(unit: dict, out: Path,
                  corpora: dict[str, list[np.ndarray]]) -> Verdict:
    verdict = Verdict()
    summary = {row["language"]: row for row in _rows(out / "summary.csv")}
    for language, trees in corpora.items():
        lengths = Counter(len(h) for h in trees)
        if not completed(unit):
            verdict.add(len(trees), False)
            continue
        by_length, pooled = gen.distance_counts(trees)
        stem = out / "samples" / f"{COLLECTION}_{language}"
        row = summary.get(language)
        if _sample_counts(Path(f"{stem}_mixed.csv")) != pooled:
            verdict.add(len(trees), False, f"{language}: pooled counts")
            continue
        if row is None or int(row["sentences"]) != len(trees):
            verdict.add(len(trees), False, f"{language}: summary sentences")
            continue
        for n, counts in by_length.items():
            same = _sample_counts(Path(f"{stem}_n{n}.csv")) == counts
            verdict.add(lengths[n], same, f"{language} n={n}: counts")
    return verdict


# ---------------------------------------------------------------------------
# omega: D recomputed, brute-force minimum for short sentences
# ---------------------------------------------------------------------------

@functools.cache
def _orderings(n: int) -> np.ndarray:
    """Every position vector of n words, one per row."""
    return np.array(list(itertools.permutations(range(n))))


def brute_force_minimum(heads: np.ndarray) -> int:
    """Minimum total edge length over every ordering of the words."""
    n = len(heads)
    positions = _orderings(n)
    dep = [i for i in range(n) if heads[i] != 0]
    head = [int(heads[i]) - 1 for i in dep]
    return int(np.abs(positions[:, dep] - positions[:, head]).sum(axis=1).min())


def total_distance(heads: np.ndarray) -> int:
    n = len(heads)
    return int(np.abs(np.arange(1, n + 1) - heads)[heads != 0].sum())


def check_omega(unit: dict, out: Path,
                corpora: dict[str, list[np.ndarray]]) -> Verdict:
    verdict = Verdict()
    rows = {(row["language"], int(row["n"])): row
            for row in _rows(out / "omega_profile.csv")}
    for language, trees in corpora.items():
        groups: dict[int, list[np.ndarray]] = {}
        for heads in trees:
            groups.setdefault(len(heads), []).append(heads)
        for n, group in sorted(groups.items()):
            if not completed(unit):
                verdict.add(len(group), False)
                continue
            row = rows.get((language, n))
            where = f"{language} n={n}"
            if row is None:
                verdict.add(len(group), False, f"{where}: no row")
                continue
            unsolved = int(row["unsolved"])
            scored, skipped = int(row["sentences"]), int(row["skipped"])
            if scored + skipped + unsolved != len(group):
                verdict.add(len(group), False, f"{where}: sentence count")
                continue
            # Unsolved sentences are failures, not mismatches.
            verdict.add(unsolved, False)
            mean = float(row["mean_omega"]) if row["mean_omega"] else None
            if mean is not None and mean > 1.0 + 1e-12:
                # Omega above 1 means the minimum exceeded the observed D.
                verdict.add(len(group) - unsolved, False,
                            f"{where}: mean omega {mean} > 1")
                continue
            if n <= BRUTE_FORCE_MAX_N:
                why = _omega_mismatch(group, mean, skipped)
                verdict.add(len(group) - unsolved, why is None,
                            f"{where}: {why}")
            else:
                verdict.add(len(group) - unsolved, True)
    return verdict


def _omega_mismatch(group, mean, skipped) -> str | None:
    scores = []
    for heads in group:
        n = len(heads)
        d, d_min = total_distance(heads), brute_force_minimum(heads)
        if d_min > d:
            return f"minimum {d_min} above D {d}"
        denominator = n * n - 1 - 3 * d_min
        if denominator:
            scores.append(Fraction(n * n - 1 - 3 * d, denominator))
    if len(group) - len(scores) != skipped:
        return f"{skipped} skipped, expected {len(group) - len(scores)}"
    if not scores:
        return None if mean is None else f"mean {mean}, expected none"
    expected = float(sum(scores) / len(scores))
    if mean is None or not math.isclose(mean, expected, rel_tol=1e-9,
                                        abs_tol=1e-12):
        return f"mean omega {mean}, brute force {expected}"
    return None


# ---------------------------------------------------------------------------
# fit-select: best models and log-likelihoods against the seed reference
# ---------------------------------------------------------------------------

def fit_tables(out: Path) -> dict[tuple[str, str], dict]:
    """(language, length) -> {"best": id or "", "ll": {model: ll or None}}."""
    tables: dict[tuple[str, str], dict] = {}
    for name in ("mixed_fits.csv", "fixed_fits.csv"):
        for row in _rows(out / name):
            entry = tables.setdefault((row["language"], row["length"]),
                                      {"best": "", "ll": {}})
            value = row["log_likelihood"]
            entry["ll"][row["model"]] = float(value) if value else None
            if row["best"] == "True":
                entry["best"] = row["model"]
    return tables


def check_fit_select(unit: dict, out: Path,
                     corpora: dict[str, list[np.ndarray]],
                     reference: dict | None) -> Verdict:
    verdict = Verdict()
    tables = fit_tables(out) if completed(unit) else {}
    for language, trees in corpora.items():
        keys = ["mixed"] + [str(n) for n in sorted({len(h) for h in trees})
                            if n >= MIN_FIT_LENGTH]
        for key in keys:
            if not completed(unit):
                verdict.add(1, False)
                continue
            why = _fit_mismatch(tables.get((language, key)),
                                (reference or {}).get(language, {}).get(key))
            verdict.add(1, why is None, f"{language} {key}: {why}")
    return verdict


def _fit_mismatch(got: dict | None, ref: dict | None) -> str | None:
    if got is None:
        return "no fits"
    if ref is None:
        return "no reference"
    if got["best"] != ref["best"]:
        return f"best {got['best'] or '-'}, reference {ref['best'] or '-'}"
    for model, ref_ll in ref["ll"].items():
        if ref_ll is None:
            continue
        ll = got["ll"].get(model)
        if ll is None or ll < ref_ll - LL_TOLERANCE:
            return f"model {model} log-likelihood {ll} below {ref_ll}"
    return None


# ---------------------------------------------------------------------------
# validate: best model per artificial sample against the seed reference
# ---------------------------------------------------------------------------

def validation_best(out: Path) -> dict[str, str]:
    return {row["sample"]: row["best"]
            for row in _rows(out / "validation_matrix.csv")}


def check_validate(unit: dict, out: Path, reference: dict | None) -> Verdict:
    """One validation seed.  A seed with no reference (it crashed at the
    seed commit) counts as correct when it now completes."""
    verdict = Verdict()
    if not completed(unit):
        verdict.add(ITEMS_PER_SUITE, False)
        return verdict
    best = validation_best(out)
    if len(best) != ITEMS_PER_SUITE:
        verdict.add(ITEMS_PER_SUITE, False, f"{len(best)} samples reported")
        return verdict
    for sample, model in best.items():
        expected = model if reference is None else reference.get(sample)
        verdict.add(1, model == expected,
                    f"sample {sample}: best {model}, reference {expected}")
    return verdict
