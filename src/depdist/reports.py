"""Machine-readable result tables (CSV and JSON with identical content).

Records are lists of plain dicts.  CSV cells and JSON values are rendered
from the same repr, so the two formats carry bit-identical numbers; human
summaries printed to stdout round to 3 decimals.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import estimation, models as m
from .models import Model
from .treebank import Treebank

CONSOLE_DIGITS = 3  # decimals of the floats printed to stdout


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _columns(records: Sequence[Mapping]) -> list[str]:
    """Every key of the records, in order of first appearance."""
    return list(dict.fromkeys(key for record in records for key in record))


def write_csv(path: Path, records: Sequence[Mapping]) -> None:
    fields = _columns(records)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(fields)
        for record in records:
            writer.writerow([_cell(record.get(key)) for key in fields])


def write_json(path: Path, records: Sequence[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(list(records), handle, indent=1, allow_nan=True)
        handle.write("\n")


def write_records(out_dir: Path, name: str, records: Sequence[Mapping],
                  fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        write_csv(path, records)
    elif fmt == "json":
        path = out_dir / f"{name}.json"
        write_json(path, records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def _shown(value) -> str:
    """A console cell: finite floats rounded to CONSOLE_DIGITS decimals."""
    if isinstance(value, float) and math.isfinite(value):
        return f"{value:.{CONSOLE_DIGITS}f}"
    return "" if value is None else str(value)


def print_table(records: Sequence[Mapping]) -> None:
    """Console rendering, floats rounded for reading."""
    if not records:
        print("(empty)")
        return
    columns = _columns(records)
    rows = [columns] + [[_shown(record.get(key)) for key in columns]
                        for record in records]
    widths = [max(len(r[i]) for r in rows) for i in range(len(columns))]
    for row in rows:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


# ---------------------------------------------------------------------------
# Record builders
# ---------------------------------------------------------------------------

def corpus_summary_record(collection: str, language: str, trees,
                          sample_set, skipped: int) -> dict:
    pooled = sample_set.pooled
    lengths = Treebank.from_trees(trees).sizes
    return {
        "collection": collection,
        "language": language,
        "sentences": len(lengths),
        "skipped_sentences": skipped,
        "distances": pooled.total,
        "min_d": pooled.min_d,
        "mean_d": pooled.mean_d,
        "max_d": pooled.max_d,
        "min_n": int(lengths.min()),
        "mean_n": int(lengths.sum()) / len(lengths),
        "max_n": int(lengths.max()),
    }


PARAM_COLUMNS = ["q", "q1", "q2", "gamma", "break_point", "d_max"]


def fit_records(collection: str, language: str, length_class,
                report: estimation.SelectionReport) -> list[dict]:
    """One row per model of one selection report."""
    rows = []
    for model, fit_result in report.fits.items():
        row: dict = {
            "collection": collection,
            "language": language,
            "length": length_class if length_class is not None else "mixed",
            "model": model.id,
            "k": model.k,
            "status": fit_result.status,
            "log_likelihood": (None if fit_result.excluded
                               else fit_result.log_l),
            "aic": None if fit_result.excluded else fit_result.aic,
            "bic": None if fit_result.excluded else fit_result.bic,
            "delta": report.deltas.get(model),
            "best": model is report.best,
            "converged": fit_result.converged,
        }
        values = (m.params_dict(fit_result.params)
                  if fit_result.params is not None else {})
        for name in PARAM_COLUMNS:
            row[name] = values.get(name)
        rows.append(row)
    return rows


def best_matrix_record(collection: str, language: str, n: int,
                       sentences: int, status: str) -> dict:
    return {
        "collection": collection,
        "language": language,
        "n": n,
        "sentences": sentences,
        "best": status,
    }


def summary_stats(values: Iterable[float]) -> dict:
    """min / quartiles / median / mean / max / sd of a value list."""
    arr = np.asarray(sorted(values), dtype=float)
    if len(arr) == 0:
        return {"n": 0}
    return {
        "n": len(arr),
        "min": float(arr.min()),
        "q1": float(np.percentile(arr, 25)),
        "median": float(np.percentile(arr, 50)),
        "mean": float(arr.mean()),
        "q3": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
        "sd": float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
    }


def break_point_summary(records: Sequence[Mapping]) -> list[dict]:
    """Summaries of fitted break points grouped by two-regime family.

    ``records`` are best-fit rows carrying collection, family and
    break_point of samples whose best model has two regimes.
    """
    out = []
    collections = sorted({r["collection"] for r in records})
    for collection in collections:
        subset = [r for r in records if r["collection"] == collection]
        for family in ("3-4", "6-7", "3-4-6-7"):
            if family == "3-4-6-7":
                values = [r["break_point"] for r in subset]
            else:
                values = [r["break_point"] for r in subset
                          if r["family"] == family]
            if not values:
                continue
            row = {"collection": collection, "models": family}
            row.update(summary_stats(values))
            out.append(row)
    return out


def pmf_curve_records(collection: str, language: str, sample,
                      report: estimation.SelectionReport) -> list[dict]:
    """Observed proportions next to the best model's fitted pmf, per d."""
    best = report.best
    fit_result = report.fits[best]
    rows = []
    for d in sample.support:
        d = int(d)
        fitted = m.pmf(best, fit_result.params, d)
        rows.append({
            "collection": collection,
            "language": language,
            "d": d,
            "count": sample.freq[d],
            "observed": sample.freq[d] / sample.total,
            "fitted": float(fitted),
            "model": best.id,
        })
    return rows


def slope_record(collection: str, language: str, length_class,
                 best: Model, slopes: estimation.SlopeSummary) -> dict:
    return {
        "collection": collection,
        "language": language,
        "length": length_class if length_class is not None else "mixed",
        "best": best.id,
        "q1": slopes.q1,
        "q2": slopes.q2,
        "ratio": slopes.ratio,
        "slope1": slopes.slope1,
        "slope2": slopes.slope2,
        "converged": slopes.converged,
    }
