"""Command-line interface.

Subcommands:

    extract     corpora -> distance-sample files + corpus summary
    fit-select  maximum-likelihood fits and best-model tables
    validate    self-check on artificially generated samples
    omega       per-length optimality scores joined with best models
    sample      draw a random sample from one model

Exit codes: 0 success, 2 usage error, 3 ingestion error, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

from . import estimation, models as m, reports, sampling
from . import validation as validation_mod
from .optimality import average_omega
from .estimation import DEFAULT_MIN_LENGTH
from .models import Model
from .treebank import (
    ConlluFormatError,
    ManifestEntry,
    Treebank,
    build_samples,
    load_conllu,
    read_manifest,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INGEST = 3
EXIT_VALIDATION = 4

DEFAULT_THRESHOLDS = (1, 2, 3, 5, 10)
NEAR_ZERO_BAND = 0.1  # |mean score| below this counts as "around zero"


@dataclass
class CorpusData:
    entry: ManifestEntry
    trees: Treebank
    sample_set: object
    skipped: int


def _load_corpora(args, parser: argparse.ArgumentParser
                  ) -> list[CorpusData] | None:
    """Load every manifest entry.  Failures are written as error records
    and reported on stderr; None when no corpus loaded."""
    if args.manifest is None:
        parser.error("--manifest is required")
    try:
        entries = read_manifest(args.manifest)
    except (OSError, ConlluFormatError) as exc:
        parser.error(f"cannot read manifest: {exc}")
    if args.collection:
        entries = [e for e in entries if e.collection in args.collection]
    if not entries:
        parser.error("manifest has no (matching) entries")

    corpora: list[CorpusData] = []
    errors: list[dict] = []
    for entry in entries:
        try:
            issues: list = []
            trees = load_conllu(entry.path, issues=issues)
            sample_set = build_samples(
                trees, language=entry.language, collection=entry.collection
            )
        except (OSError, ConlluFormatError, ValueError) as exc:
            errors.append({
                "collection": entry.collection,
                "language": entry.language,
                "path": str(entry.path),
                "error": str(exc),
            })
            continue
        corpora.append(CorpusData(entry, trees, sample_set, len(issues)))
    if errors:
        reports.write_records(args.out, "ingestion_errors", errors,
                              args.format)
        for record in errors:
            print(f"error: {record['path']}: {record['error']}",
                  file=sys.stderr)
    return corpora or None


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(args, parser) -> int:
    corpora = _load_corpora(args, parser)
    if corpora is None:
        return EXIT_INGEST

    sample_dir = args.out / "samples"
    sample_dir.mkdir(parents=True, exist_ok=True)
    summary = []
    for corpus in corpora:
        entry, sset = corpus.entry, corpus.sample_set
        stem = f"{entry.collection}_{entry.language}"
        meta = {"collection": entry.collection, "language": entry.language}
        if args.mode in ("mixed", "both"):
            sampling.write_sample_csv(
                sample_dir / f"{stem}_mixed.csv", sset.pooled,
                extra={**meta, "length": "mixed"},
            )
        if args.mode in ("fixed", "both"):
            for n, sample in sset.by_length.items():
                sampling.write_sample_csv(
                    sample_dir / f"{stem}_n{n}.csv", sample,
                    extra={**meta, "length": n},
                )
        summary.append(reports.corpus_summary_record(
            entry.collection, entry.language, corpus.trees, sset,
            corpus.skipped,
        ))
    reports.write_records(args.out, "summary", summary, args.format)
    reports.print_table(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit-select
# ---------------------------------------------------------------------------

def _lengths(corpus, args) -> tuple[list, list]:
    """Each length's (n, sentences, status), the status an explicit one for
    an empty tile or None for a length to select; and (n, sample) of each
    length to select, in order."""
    sset = corpus.sample_set
    matrix: list[tuple[int, int, str | None]] = []
    lengths = sorted(sset.sentence_counts)
    for n in range(lengths[0], lengths[-1] + 1):
        sentences = sset.sentence_counts.get(n, 0)
        if sentences == 0:
            matrix.append((n, 0, "no-sentences"))
        # Lengths below 2 have no dependency to fit.
        elif n < max(args.exclude_n_below, 2):
            matrix.append((n, sentences, "excluded-min-size"))
        else:
            matrix.append((n, sentences, None))
    return matrix, [(n, sset.by_length[n]) for n, _, status in matrix
                    if status is None]


def _with_best(matrix, best) -> list[tuple[int, int, str]]:
    """The length matrix with the best model id of each length to select,
    taken from ``best`` in order, in place of its None status."""
    best = iter(best)
    return [(n, sentences, status or next(best).id)
            for n, sentences, status in matrix]


def _selections(corpus, args, mixed: bool = False, fixed: bool = True):
    """If ``fixed``, each length's best model id or an explicit status for
    an empty tile; and the selection reports, each tagged with its length
    (None for the pooled sample) and its sample: the pooled sample's first
    if ``mixed``, then each fitted length's if ``fixed``.  The samples of
    the corpus are selected in one batch."""
    matrix, samples = _lengths(corpus, args) if fixed else ([], [])
    samples = [(None, corpus.sample_set.pooled)] * mixed + samples
    found = estimation.select_all([sample for _, sample in samples],
                                  criterion=args.criterion)
    selected = [(n, sample, report)
                for (n, sample), report in zip(samples, found)]
    return (_with_best(matrix, [report.best for report in found[mixed:]]),
            selected)


def cmd_fit_select(args, parser) -> int:
    corpora = _load_corpora(args, parser)
    if corpora is None:
        return EXIT_INGEST

    kinds = ("mixed", "fixed") if args.mode == "both" else (args.mode,)
    names = {"mixed": ("mixed_fits", "mixed_best", "pmf_mixed"),
             "fixed": ("fixed_fits", "fixed_best_matrix", "threshold_scan")}
    tables: dict[str, list[dict]] = {
        name: [] for kind in kinds for name in names[kind]}
    # Best fits with two regimes; their tables are written only if any.
    breaks: dict[str, list[dict]] = {kind: [] for kind in kinds}
    slope_rows: list[dict] = []
    for corpus in corpora:
        col, lang = corpus.entry.collection, corpus.entry.language
        matrix, selected = _selections(corpus, args, "mixed" in kinds,
                                       "fixed" in kinds)
        for n, sample, report in selected:
            kind, best = "mixed" if n is None else "fixed", report.best
            tables[f"{kind}_fits"] += reports.fit_records(col, lang, n, report)
            if n is None:
                tables["mixed_best"].append({
                    "collection": col, "language": lang, "best": best.id,
                    "criterion": args.criterion,
                    "value": report.criterion_value(best),
                })
                tables["pmf_mixed"] += reports.pmf_curve_records(
                    col, lang, sample, report)
            if best is not None and best.is_two_regime:
                best_fit = report.fits[best]
                breaks[kind].append({
                    "collection": col, "family": best.family,
                    "break_point": best_fit.params.break_point,
                })
                slope_rows.append(reports.slope_record(
                    col, lang, n, best,
                    estimation.slope_analysis(best_fit, sample)))
        if "fixed" in kinds:
            tables["fixed_best_matrix"] += [
                reports.best_matrix_record(col, lang, *row) for row in matrix]
            scan = estimation.threshold_scan(
                {n: report for n, _, report in selected if n is not None},
                corpus.sample_set.sentence_counts, args.thresholds)
            tables["threshold_scan"] += [{
                "collection": col, "language": lang,
                "threshold": threshold, "family": family,
            } for threshold, family in scan.items()]

    for kind, rows in breaks.items():
        if rows:
            tables[f"break_point_summary_{kind}"] = \
                reports.break_point_summary(rows)
    if slope_rows:
        tables["slopes"] = slope_rows
    for name, rows in tables.items():
        reports.write_records(args.out, name, rows, args.format)
    if "mixed" in kinds:
        print("\nBest model on mixed lengths:")
        reports.print_table(tables["mixed_best"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args, parser) -> int:
    report = validation_mod.run_validation(seed=args.seed,
                                           size=args.n_draws,
                                           criterion=args.criterion)
    matrix = report.criterion_matrix()
    reports.write_records(args.out, "validation_matrix", matrix,
                          args.format)
    check_rows = [{
        "sample": check.model.id, "parameter": check.name,
        "true": check.true_value, "estimate": check.estimate,
        "error": check.error, "tolerance": check.tolerance,
        "ok": check.ok,
    } for check in report.param_checks]
    reports.write_records(args.out, "validation_params", check_rows,
                          args.format)

    print("Best model per generated sample "
          f"({args.criterion.upper()}, seed {args.seed}):")
    for generator, best in report.best.items():
        mark = "ok" if report.recovered[generator] else "MISS"
        print(f"  sample {generator.id:>3} -> best {best.id:>3}  [{mark}]")
    bad = [c for c in report.param_checks if not c.ok]
    print(f"parameter checks: {len(report.param_checks) - len(bad)}/"
          f"{len(report.param_checks)} within tolerance")
    for check in bad:
        print(f"  MISS {check.model.id} {check.name}: "
              f"estimate {check.estimate:.4f} vs {check.true_value:.4f} "
              f"(tol {check.tolerance})")
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def cmd_omega(args, parser) -> int:
    corpora = _load_corpora(args, parser)
    if corpora is None:
        return EXIT_INGEST

    profile_rows: list[dict] = []
    join_rows: list[dict] = []
    for corpus in corpora:
        entry = corpus.entry
        col, lang = entry.collection, entry.language
        stats = average_omega(corpus.trees)
        # Only each length's winner is needed: no report is built.
        matrix, samples = _lengths(corpus, args)
        best = estimation.best_all([sample for _, sample in samples],
                                   args.criterion)
        status_by_n = {n: status for n, _, status in _with_best(matrix, best)}
        for n, length_stats in stats.items():
            profile_rows.append({
                "collection": col, "language": lang, "n": n,
                "mean_omega": length_stats.mean_omega,
                "sentences": length_stats.count,
                "skipped": length_stats.skipped,
                "unsolved": 0,  # kept for a stable table layout
            })
            mean = length_stats.mean_omega
            if mean is None:
                continue
            join_rows.append({
                "collection": col, "language": lang, "n": n,
                "mean_omega": mean,
                "near_zero": abs(mean) <= NEAR_ZERO_BAND,
                "best": status_by_n.get(n, "no-sentences"),
            })
    reports.write_records(args.out, "omega_profile", profile_rows,
                          args.format)
    reports.write_records(args.out, "omega_best_join", join_rows,
                          args.format)
    near = [row for row in join_rows if row["near_zero"]]
    print(f"{len(profile_rows)} (collection, language, n) cells; "
          f"{len(near)} with |mean omega| <= {NEAR_ZERO_BAND}")
    reports.print_table(near)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def cmd_sample(args, parser) -> int:
    # Unknown ids and out-of-domain values raise ValueError: usage errors.
    model = Model.from_id(args.model)
    spec = model.spec
    if spec.sampler is None:
        parser.error(f"model {model.id} cannot be sampled")
    missing = [flag for flag in spec.flags if getattr(args, flag) is None]
    if missing:
        parser.error(f"model {model.id} needs --{missing[0]}")
    params = spec.params(*(getattr(args, flag) for flag in spec.flags))
    sample = sampling.draw_sample(model, params, args.n_draws,
                                  seed=args.seed)
    out_path = Path(args.out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    sampling.write_sample_csv(out_path, sample, model=model, params=params,
                              seed=args.seed,
                              extra={"n_draws": args.n_draws})
    print(f"wrote {sample.total} draws over {sample.distinct} distances "
          f"to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _threshold_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("thresholds must be positive ints")
    if values != sorted(set(values)):
        raise argparse.ArgumentTypeError(
            "thresholds must be strictly increasing")
    return values


def _add_corpus(sub: argparse.ArgumentParser, *, selection: bool):
    """Corpus input, the output options and, for the commands that select
    models per sentence length, the selection options."""
    sub.add_argument("--manifest", type=Path, help="corpus manifest "
                     "(path, collection, language per line)")
    sub.add_argument("--collection", action="append", default=[],
                     help="restrict to this collection label (repeatable)")
    _add_output(sub)
    if selection:
        sub.add_argument("--criterion", choices=("aic", "bic"),
                         default="aic")
        sub.add_argument("--exclude-n-below", type=int,
                         default=DEFAULT_MIN_LENGTH,
                         help="exclude sentence lengths below this from "
                              "model selection")


def _add_output(sub: argparse.ArgumentParser):
    sub.add_argument("--out", type=Path, default="out",
                     help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depdist",
        description="Dependency distance distributions: extraction, model "
                    "fitting and selection, sampling, optimality scores.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    modes = ("fixed", "mixed", "both")

    p_extract = subparsers.add_parser(
        "extract", help="corpora to distance samples")
    _add_corpus(p_extract, selection=False)
    p_extract.add_argument("--mode", choices=modes, default="both")
    p_extract.set_defaults(func=cmd_extract)

    p_fit = subparsers.add_parser(
        "fit-select", help="fit the ensemble and select best models")
    _add_corpus(p_fit, selection=True)
    p_fit.add_argument("--mode", choices=modes, default="both")
    p_fit.add_argument("--threshold", dest="thresholds",
                       type=_threshold_list,
                       default=DEFAULT_THRESHOLDS,
                       help="comma-separated minimum sentence counts")
    p_fit.set_defaults(func=cmd_fit_select)

    p_val = subparsers.add_parser(
        "validate", help="recover generators from artificial samples")
    p_val.add_argument("--criterion", choices=("aic", "bic"), default="bic")
    p_val.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED)
    p_val.add_argument("--n-draws", type=_positive_int,
                       default=sampling.SUITE_SIZE)
    _add_output(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_omega = subparsers.add_parser(
        "omega", help="optimality scores per sentence length")
    _add_corpus(p_omega, selection=True)
    p_omega.set_defaults(func=cmd_omega)

    p_sample = subparsers.add_parser(
        "sample", help="draw a random sample from one model")
    p_sample.add_argument("--model", required=True,
                          help="model id (0.0, 1, 2, ... 7)")
    for name in (*m.BOUNDS, *m.INTEGER_FIELDS):
        p_sample.add_argument(f"--{m.FLAGS.get(name, name)}",
                              type=int if name in m.INTEGER_FIELDS else float)
    p_sample.add_argument("--n-draws", type=_positive_int, default=10_000)
    p_sample.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED)
    p_sample.add_argument("--out-file", default="sample.csv")
    p_sample.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
