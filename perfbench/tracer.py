"""Spans and counters recorded from outside the program.

The tracer replaces public functions with wrappers on the module
attribute that the caller looks up at call time: ``depdist.cli`` imported
``load_conllu`` by name, so the wrapper goes on ``depdist.cli``; the
estimation layer calls ``m.log_likelihood``, so it goes on
``depdist.models``.  Nothing under ``src/`` changes.

A span records name, start, end, parent span and pass id.  Spans stay in
memory and are written out by the caller once the traced pass is over.
Functions called tens of thousands of times per pass (``log_likelihood``,
``minimize``) only increment counters, because a timing wrapper would
cost as much as the call itself.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter
from pathlib import Path

# Model ids as metric suffixes: "0.0" -> "m0_0".
MODEL_KEYS = ["m0_0", "m0_1", "m1", "m2", "m3", "m4", "m5", "m6", "m7"]
# Layers whose self time comes from spans; cli.self_s is what is left.
LAYERS = ["treebank", "estimation", "sampling", "validation", "arrangement",
          "optimality", "reports"]
CRASH_CLASSES = ["OverflowError", "ValueError"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, pass]
        self.counts: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            index = len(self.spans)
            record = [label, 0.0, 0.0, self._stack[-1] if self._stack
                      else None, self.pass_id]
            self.spans.append(record)
            self._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{label}!{type(exc).__name__}"] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result
        return wrapper

    def _counted(self, name, fn, on_call=None):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- installation -----------------------------------------------------

    def install(self):
        c = self.counts

        def trees_loaded(trees, args, kwargs):
            c["treebank.sentences"] += len(trees)
            c["treebank.skipped"] += len(kwargs.get("issues") or ())

        def fitted(result, args, kwargs):
            if result.excluded:
                c["estimation.excluded_fits"] += 1
            elif not result.converged:
                c["estimation.nonconverged_fits"] += 1

        def validated(report, args, kwargs):
            c["validation.recovery_misses"] += sum(
                not ok for ok in report.recovered.values())

        def scored(stats, args, kwargs):
            c["optimality.undefined"] += sum(s.skipped for s in stats.values())

        def written(path, args, kwargs):
            c["reports.bytes_written"] += Path(path).stat().st_size

        def optimizer(args, kwargs):
            if kwargs.get("method") == "Powell":
                c["estimation.powell_fallbacks"] += 1

        def break_grid(fn):
            def wrapper(*args, **kwargs):
                grid = fn(*args, **kwargs)
                c["estimation.break_points_scanned"] += len(grid)
                return grid
            return wrapper

        def fit_name(args):
            return "estimation.fit.m" + args[0].id.replace(".", "_")

        span = self._spanned
        plan = [
            ("depdist.cli", "main", lambda f: span("cli.main", f)),
            ("depdist.cli", "read_manifest",
             lambda f: span("treebank.read_manifest", f)),
            ("depdist.cli", "load_conllu",
             lambda f: span("treebank.parse", f, trees_loaded)),
            ("depdist.cli", "build_samples",
             lambda f: span("treebank.build_samples", f)),
            ("depdist.cli", "average_omega",
             lambda f: span("optimality.average_omega", f, scored)),
            ("depdist.optimality", "min_arrangement_cost",
             lambda f: span("arrangement.min_arrangement", f)),
            ("depdist.estimation", "select",
             lambda f: span("estimation.select", f)),
            ("depdist.estimation", "fit",
             lambda f: span(fit_name, f, fitted)),
            ("depdist.estimation", "threshold_scan",
             lambda f: span("estimation.threshold_scan", f)),
            ("depdist.estimation", "slope_analysis",
             lambda f: span("estimation.slope_analysis", f)),
            ("depdist.estimation", "minimize",
             lambda f: self._counted("estimation.optimizer_calls", f,
                                     optimizer)),
            ("depdist.estimation", "_break_grid", break_grid),
            ("depdist.models", "log_likelihood",
             lambda f: self._counted("models.log_likelihood_calls", f)),
            ("depdist.validation", "run_validation",
             lambda f: span("validation.run", f, validated)),
            ("depdist.sampling", "generate_validation_suite",
             lambda f: span("sampling.generate_suite", f)),
            ("depdist.sampling", "write_sample_csv",
             lambda f: span("sampling.write_sample_csv", f)),
            ("depdist.reports", "write_records",
             lambda f: span("reports.write_records", f, written)),
        ]
        for fn_name in ("corpus_summary_record", "fit_records",
                        "best_matrix_record", "break_point_summary",
                        "pmf_curve_records", "slope_record", "print_table"):
            plan.append(("depdist.reports", fn_name,
                         lambda f, n=fn_name: span(f"reports.{n}", f)))
        for module_name, attr, make in plan:
            self._patch(module_name, attr, make)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Metrics derived from spans and counters
# ---------------------------------------------------------------------------

def tail_rank(count: int) -> float:
    """Highest percentile with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies; the
    maximum is reported instead.
    """
    return 100.0 * (1.0 - 10.0 / count) if count >= 20 else 100.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(tracer: Tracer, traced_wall: float, slowdown: float
                  ) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pass, plus notes for the log.

    ``slowdown`` is the traced pass's time over the untraced pass's, both
    scaled to the probe's reference speed.
    """
    spans = tracer.spans
    counts = tracer.counts
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += duration[index]

    total: Counter = Counter()
    calls: dict[str, list[float]] = {}
    self_time: Counter = Counter()
    wrapped_top = 0.0
    for index, (name, _, _, parent, _) in enumerate(spans):
        total[name] += duration[index]
        calls.setdefault(name, []).append(duration[index])
        self_time[name.split(".")[0]] += duration[index] - child_time[index]
        if parent is not None and spans[parent][0] == "cli.main":
            wrapped_top += duration[index]

    arrangement = calls.get("arrangement.min_arrangement", [])
    selects = calls.get("estimation.select", [])
    crashes = {k.split("!")[1]: v for k, v in counts.items()
               if k.startswith("validation.run!")}
    metrics = {
        "arrangement.min_arrangement_s": sum(arrangement),
        "arrangement.calls": len(arrangement),
        "arrangement.call_p50_ms": 1e3 * percentile(arrangement, 50),
        "arrangement.call_tail_ms": 1e3 * percentile(
            arrangement, tail_rank(len(arrangement))),
        "arrangement.budget_errors": counts[
            "arrangement.min_arrangement!ArrangementBudgetError"],
        "estimation.select_s": sum(selects),
        "estimation.select_calls": len(selects),
        "estimation.select_p50_ms": 1e3 * percentile(selects, 50),
        "estimation.select_tail_ms": 1e3 * percentile(
            selects, tail_rank(len(selects))),
    }
    for key in MODEL_KEYS:
        metrics[f"estimation.fit_s.{key}"] = total[f"estimation.fit.{key}"]
    for name in ("optimizer_calls", "powell_fallbacks", "nonconverged_fits",
                 "excluded_fits", "break_points_scanned"):
        metrics[f"estimation.{name}"] = counts[f"estimation.{name}"]
    metrics.update({
        "models.log_likelihood_calls": counts["models.log_likelihood_calls"],
        "sampling.generate_suite_s": total["sampling.generate_suite"],
        "sampling.write_sample_csv_s": total["sampling.write_sample_csv"],
        "validation.run_s": total["validation.run"],
        "validation.crashes": sum(crashes.values()),
    })
    for cls in CRASH_CLASSES:
        metrics[f"validation.crashes.{cls}"] = crashes.get(cls, 0)
    metrics["validation.crashes.other"] = sum(
        v for k, v in crashes.items() if k not in CRASH_CLASSES)
    metrics.update({
        "validation.recovery_misses": counts["validation.recovery_misses"],
        "treebank.parse_s": total["treebank.parse"],
        "treebank.build_samples_s": total["treebank.build_samples"],
        "treebank.sentences": counts["treebank.sentences"],
        "treebank.skipped": counts["treebank.skipped"],
        "optimality.average_omega_s": total["optimality.average_omega"],
        "optimality.undefined": counts["optimality.undefined"],
        "reports.write_records_s": total["reports.write_records"],
        "reports.bytes_written": counts["reports.bytes_written"],
        "cli.self_s": traced_wall - wrapped_top,
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    metrics["trace.pass_s"] = traced_wall
    metrics["trace.overhead_frac"] = slowdown - 1.0
    notes = [
        f"arrangement.call_tail_ms is p{tail_rank(len(arrangement)):.1f} "
        f"of {len(arrangement)} calls",
        f"estimation.select_tail_ms is p{tail_rank(len(selects)):.1f} "
        f"of {len(selects)} calls",
    ]
    return metrics, notes
