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
import sys
from dataclasses import dataclass
from pathlib import Path

from . import estimation, models as m, reports, sampling
from . import validation as validation_mod
from .optimality import average_omega
from .estimation import DEFAULT_MIN_DISTINCT, DEFAULT_MIN_LENGTH
from .models import Model
from .treebank import (
    ConlluFormatError,
    ManifestEntry,
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
    trees: list
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

def _fixed_selections(corpus, args):
    """Per-length reports plus explicit status strings for empty tiles."""
    sset = corpus.sample_set
    selections: dict[int, estimation.SelectionReport] = {}
    matrix: list[tuple[int, int, str]] = []  # (n, sentences, status)
    lengths = sorted(sset.sentence_counts)
    for n in range(min(lengths), max(lengths) + 1):
        sentences = sset.sentence_counts.get(n, 0)
        if sentences == 0:
            matrix.append((n, 0, "no-sentences"))
            continue
        if n < args.exclude_n_below:
            matrix.append((n, sentences, "excluded-min-size"))
            continue
        sample = sset.by_length.get(n)
        if sample is None:
            matrix.append((n, sentences, "no-sentences"))
            continue
        report = estimation.select(
            sample,
            estimation.ensemble_for("fixed"),
            criterion=args.criterion,
            min_distinct_d=args.min_distinct_d,
        )
        selections[n] = report
        matrix.append((n, sentences,
                       report.best.id if report.best else "excluded-min-size"))
    return selections, matrix


def _two_regime_rows(col, lang, n, report, sample, break_rows, slope_rows):
    """Break-point and slope rows when the best model has two regimes."""
    best = report.best
    if best is None or not best.is_two_regime:
        return
    best_fit = report.fits[best]
    break_rows.append({
        "collection": col, "family": best.family,
        "break_point": best_fit.params.break_point,
    })
    slope_rows.append(reports.slope_record(
        col, lang, n, best, estimation.slope_analysis(best_fit, sample),
    ))


def cmd_fit_select(args, parser) -> int:
    corpora = _load_corpora(args, parser)
    if corpora is None:
        return EXIT_INGEST

    mixed_rows: list[dict] = []
    mixed_best_rows: list[dict] = []
    fixed_rows: list[dict] = []
    matrix_rows: list[dict] = []
    slope_rows: list[dict] = []
    threshold_rows: list[dict] = []
    break_mixed: list[dict] = []
    break_fixed: list[dict] = []
    curve_rows: list[dict] = []

    for corpus in corpora:
        entry = corpus.entry
        col, lang = entry.collection, entry.language

        if args.mode in ("mixed", "both"):
            report = estimation.select(
                corpus.sample_set.pooled,
                estimation.ensemble_for("mixed"),
                criterion=args.criterion,
                per_length=corpus.sample_set.per_length,
                min_distinct_d=args.min_distinct_d,
            )
            mixed_rows.extend(reports.fit_records(col, lang, None, report))
            best = report.best
            mixed_best_rows.append({
                "collection": col, "language": lang, "best": best.id,
                "criterion": args.criterion,
                "value": report.criterion_value(best),
            })
            curve_rows.extend(reports.pmf_curve_records(
                col, lang, corpus.sample_set.pooled, report
            ))
            _two_regime_rows(col, lang, None, report,
                             corpus.sample_set.pooled, break_mixed,
                             slope_rows)

        if args.mode in ("fixed", "both"):
            selections, matrix = _fixed_selections(corpus, args)
            for n, sentences, status in matrix:
                matrix_rows.append(reports.best_matrix_record(
                    col, lang, n, sentences, status
                ))
            for n, report in selections.items():
                fixed_rows.extend(reports.fit_records(col, lang, n, report))
                _two_regime_rows(col, lang, n, report,
                                 corpus.sample_set.by_length[n], break_fixed,
                                 slope_rows)
            scan = estimation.threshold_scan(
                selections, corpus.sample_set.sentence_counts,
                args.thresholds,
            )
            for threshold, family in scan.items():
                threshold_rows.append({
                    "collection": col, "language": lang,
                    "threshold": threshold, "family": family,
                })

    out, fmt = args.out, args.format
    if args.mode in ("mixed", "both"):
        reports.write_records(out, "mixed_fits", mixed_rows, fmt)
        reports.write_records(out, "mixed_best", mixed_best_rows, fmt)
        reports.write_records(out, "pmf_mixed", curve_rows, fmt)
        if break_mixed:
            reports.write_records(
                out, "break_point_summary_mixed",
                reports.break_point_summary(break_mixed), fmt,
            )
        print("\nBest model on mixed lengths:")
        reports.print_table(mixed_best_rows)
    if args.mode in ("fixed", "both"):
        reports.write_records(out, "fixed_fits", fixed_rows, fmt)
        reports.write_records(out, "fixed_best_matrix", matrix_rows, fmt)
        reports.write_records(out, "threshold_scan", threshold_rows, fmt)
        if break_fixed:
            reports.write_records(
                out, "break_point_summary_fixed",
                reports.break_point_summary(break_fixed), fmt,
            )
    if slope_rows:
        reports.write_records(out, "slopes", slope_rows, fmt)
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
        selections, matrix = _fixed_selections(corpus, args)
        status_by_n = {n: status for n, _, status in matrix}
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
    info = sampling.DrawInfo()
    sample = sampling.draw_sample(model, params, args.n_draws,
                                  seed=args.seed, cutoff=args.cutoff,
                                  info=info)
    out_path = Path(args.out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    extra = {"n_draws": args.n_draws}
    if info.overflow:
        extra["cutoff_overflow"] = info.overflow
    sampling.write_sample_csv(out_path, sample, model=model, params=params,
                              seed=args.seed, extra=extra)
    print(f"wrote {sample.total} draws over {sample.distinct} distances "
          f"to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

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
        sub.add_argument("--min-distinct-d", type=int,
                         default=DEFAULT_MIN_DISTINCT,
                         help="distinct distances required by two-regime "
                              "fits")
        sub.add_argument("--exclude-n-below", type=int,
                         default=DEFAULT_MIN_LENGTH,
                         help="exclude sentence lengths below this from "
                              "model selection")


def _add_output(sub: argparse.ArgumentParser):
    sub.add_argument("--out", type=Path, default="out",
                     help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


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
                       default=list(DEFAULT_THRESHOLDS),
                       help="comma-separated minimum sentence counts")
    p_fit.set_defaults(func=cmd_fit_select)

    p_val = subparsers.add_parser(
        "validate", help="recover generators from artificial samples")
    p_val.add_argument("--criterion", choices=("aic", "bic"), default="bic")
    p_val.add_argument("--seed", type=int, default=sampling.DEFAULT_SEED)
    p_val.add_argument("--n-draws", type=int, default=sampling.SUITE_SIZE)
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
    p_sample.add_argument("--n-draws", type=int, default=10_000)
    p_sample.add_argument("--cutoff", type=int,
                          default=sampling.DEFAULT_CUTOFF)
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
