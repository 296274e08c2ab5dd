"""Maximum-likelihood fitting and information-criterion model selection.

The one-regime models fit through their spec rows
(:data:`depdist.models.SPECS`), models 1, 2 and 5 exactly.  The two-regime
models 3, 4, 6 and 7 maximize their two continuous parameters with
L-BFGS-B at each break point between the second smallest and the second
largest distance, so that each regime keeps two distinct distances to infer
a decay from (they are excluded below 3 distinct distances), starting from
the row's starting values, which the twins 3/4 and 6/7 share.  The scan is
a branch and bound in two phases: certificates (exact upper bounds on the
log-likelihood, :func:`depdist.models.certificates`) at every break point
of every row of a batch of samples at once (:func:`select_all`;
:func:`select` and :func:`fit` are a batch of one), then each row's
searches in descending order of the bound, which stop at the first bound
below the best fit, less a relative 1e-9 for rounding.  Every fit is the
exhaustive scan's, equal log-likelihoods going to the lower break point,
and no row's bounds, searches or counts depend on the batch.  The same
bound runs across the ensemble (:func:`_best`): after the one-regime rows,
only the two-regime rows whose highest certificate leaves them a chance to
win are fitted, which is all that :func:`best_all` does; :func:`select`
fits the rest after it.

Truncated models pin d_max to max d: for fixed continuous parameters, a
larger support only bleeds mass outside the data.  The uniform-shuffle null,
whose mass leans on low d, scans d_max instead.

L-BFGS-B is scipy's compiled kernel, loaded alone at the first search
(:func:`_kernel`): importing this module loads no scipy, and fitting loads
no more than the kernel's extension module.
:func:`_lbfgsb` drives it as scipy's own driver does, with one call per
point, :func:`_fused`, for the value and scipy's default forward-difference
gradient: every fit is bit-identical to scipy's; a difference point reuses
the value's part of the parameter it leaves fixed (the log-likelihood is
:class:`depdist.models.Factored`).  A search that finds no
finite log-likelihood reports -inf, not converged; non-converged results
are logged at DEBUG.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import models as m
from .models import Model, ModelParams
from .treebank import DistanceSample

DEFAULT_MIN_DISTINCT = 3        # fewer distinct d leave the break grid empty
DEFAULT_MIN_LENGTH = 4          # sentences shorter than this are excluded
FTOL = 1e-11                    # relative log-likelihood convergence
FD_STEP = 1e-8                  # scipy's default L-BFGS-B gradient step
FD_REL_STEP = float(np.finfo(float).eps) ** 0.5  # and its fallback scale
FACTR = FTOL / np.finfo(float).eps  # FTOL in the kernel's units
LBFGSB_MAXFUN = 15000           # scipy's default L-BFGS-B evaluation budget
LBFGSB_MAXITER = 500           # L-BFGS-B iteration limit
LBFGSB_MAXCOR = 10              # scipy's defaults: stored corrections,
LBFGSB_PGTOL = 1e-5             # projected-gradient tolerance
LBFGSB_MAXLS = 20               # and line-search steps per iteration
REJECTED = 1e300                # -log_l of a rejected point
PRUNE_MARGIN = 1e-9             # relative slack of the break-point bounds
# The kernel's task codes (scipy's ``status_messages``).
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitResult:
    """One model fitted to one sample.

    ``break_points`` counts the grid's break points, ``searches`` those
    that the bounded scan searched and ``evaluations`` the objective
    evaluations of those searches (none for the fits through a spec row's
    ``fit`` and for excluded fits).
    """

    model: Model
    params: ModelParams | None
    log_l: float
    k: int
    aic: float
    bic: float
    converged: bool
    sample_size: int
    status: str = "ok"          # "ok" or "excluded"
    note: str | None = None
    break_points: int = 0
    searches: int = 0
    evaluations: int = 0

    @property
    def excluded(self) -> bool:
        return self.status != "ok"


def information_criteria(log_l: float, k: int, n: int) -> tuple[float, float]:
    """(AIC, BIC) = (2K - 2logL, K logN - 2logL)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2.0 * k - 2.0 * log_l, k * math.log(n) - 2.0 * log_l


def _excluded(model: Model, n: int, note: str) -> FitResult:
    return _result(model, None, -math.inf, n, False, status="excluded",
                   note=note)


def _result(model, params, log_l, n, converged, **counts) -> FitResult:
    aic, bic = information_criteria(log_l, model.k, n)
    return FitResult(
        model=model, params=params, log_l=log_l, k=model.k, aic=aic,
        bic=bic, converged=converged, sample_size=n, **counts,
    )


# ---------------------------------------------------------------------------
# Continuous optimization (bounded)
# ---------------------------------------------------------------------------

def _step(xi: float, lo: float, hi: float) -> float:
    """scipy's default forward-difference step for L-BFGS-B at ``xi``:
    FD_STEP, or FD_REL_STEP * max(1, |xi|) with the sign of xi where
    xi + FD_STEP rounds back to xi, turned backward where the forward point
    leaves [lo, hi].  Every box here is far wider than a step, so the
    backward point is inside (scipy shortens it only in a narrower box)."""
    h = FD_STEP
    if (xi + h) - xi == 0.0:
        h = FD_REL_STEP * (1.0 if xi >= 0 else -1.0) * max(1.0, abs(xi))
    return h if lo <= xi + h <= hi else -h


def _fused(log_l: m.Factored, bounds):
    """-log_l and its gradient in one call: a function of a list of two
    floats, ``log_l``'s arguments, in ``bounds``.  The value is -log_l at
    the nearest point of the box (line searches probe a hair outside it),
    REJECTED where log_l is not finite; the gradient is the forward
    differences over steps h from :func:`_step`, divided by (x + h) - x:
    scipy's points and arithmetic, bit for bit, each part computed once."""
    first, second, combine = log_l
    (lo0, hi0), (lo1, hi1) = bounds

    def negated(head, tail):
        value = combine(head, tail)
        return -value if math.isfinite(value) else REJECTED

    def negated_and_gradient(x):
        a, b = x
        ha, hb = _step(a, lo0, hi0), _step(b, lo1, hi1)
        a_h, b_h = a + ha, b + hb
        head = first(lo0 if a < lo0 else hi0 if a > hi0 else a)
        tail = second(lo1 if b < lo1 else hi1 if b > hi1 else b)
        f0 = negated(head, tail)
        head_h = first(lo0 if a_h < lo0 else hi0 if a_h > hi0 else a_h)
        tail_h = second(lo1 if b_h < lo1 else hi1 if b_h > hi1 else b_h)
        return f0, ((negated(head_h, tail) - f0) / (a_h - a),
                    (negated(head, tail_h) - f0) / (b_h - b))
    return negated_and_gradient


class LbfgsbResult(NamedTuple):
    """Fields of scipy's ``OptimizeResult`` for L-BFGS-B, as :func:`_lbfgsb`
    computes them, plus ``fun0``, the value at the start."""

    x: np.ndarray
    fun: float
    success: bool
    message: str
    nfev: int
    nit: int
    fun0: float


# scipy's ``bounds_map``: (has a lower bound, has an upper bound) -> nbd.
_NBD = {(False, False): 0, (True, False): 1, (True, True): 2,
        (False, True): 3}


# scipy's ``status_messages`` and ``task_messages`` (``_lbfgsb_py``): the
# kernel's task codes as its result message spells them.
_STATUS_MESSAGES = dict(enumerate((
    "START", "NEW_X", "RESTART", "FG", "CONVERGENCE", "STOP", "WARNING",
    "ERROR", "ABNORMAL")))
_TASK_MESSAGES = {
    0: "", 301: "", 302: "",
    401: "NORM OF PROJECTED GRADIENT <= PGTOL",
    402: "RELATIVE REDUCTION OF F <= FACTR*EPSMCH",
    501: "CPU EXCEEDING THE TIME LIMIT",
    502: "TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT",
    503: "PROJECTED GRADIENT IS SUFFICIENTLY SMALL",
    504: "TOTAL NO. OF ITERATIONS REACHED LIMIT",
    505: "CALLBACK REQUESTED HALT",
    601: "ROUNDING ERRORS PREVENT PROGRESS", 602: "STP = STPMAX",
    603: "STP = STPMIN", 604: "XTOL TEST SATISFIED",
    701: "NO FEASIBLE SOLUTION", 702: "FACTR < 0", 703: "FTOL < 0",
    704: "GTOL < 0", 705: "XTOL < 0", 706: "STP < STPMIN",
    707: "STP > STPMAX", 708: "STPMIN < 0", 709: "STPMAX < STPMIN",
    710: "INITIAL G >= 0", 711: "M <= 0", 712: "N <= 0", 713: "INVALID NBD",
}


@functools.cache
def _kernel():
    """scipy's compiled L-BFGS-B kernel, ``setulb``, loaded at the first
    search from its extension module alone, found in scipy's
    ``optimize`` directory: neither ``scipy`` nor ``scipy.optimize`` (321
    modules, most of a fitting command's start-up) is imported, and the
    commands that fit nothing load no scipy at all."""
    scipy, spec = importlib.util.find_spec("scipy"), None
    if scipy is not None:
        spec = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "optimize"),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES),
        ).find_spec("scipy.optimize._lbfgsb")
    if spec is None:
        raise ImportError("the two-regime fits need scipy's L-BFGS-B "
                          "kernel, scipy.optimize._lbfgsb (scipy >= 1.15)")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.setulb


@functools.cache
def _workspace(bounds: tuple, thread: int) -> tuple:
    """The kernel's arrays for one box, built once per box and thread:
    ``nbd``, ``low`` and ``high`` as scipy's ``bounds_map`` builds them,
    then the gradient and the work arrays, which each search zero-fills."""
    n, m = len(bounds), LBFGSB_MAXCOR
    nbd = np.array([_NBD[not math.isinf(lo), not math.isinf(hi)]
                    for lo, hi in bounds], np.int32)
    low = np.array([0.0 if math.isinf(lo) else lo for lo, _ in bounds])
    high = np.array([0.0 if math.isinf(hi) else hi for _, hi in bounds])
    work = (np.zeros(n), np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m),
            *(np.zeros(size, np.int32) for size in (3 * n, 2, 2, 4, 44)),
            np.zeros(29))
    return nbd, low, high, work


def _lbfgsb(fun_and_grad, x0, bounds, maxiter=LBFGSB_MAXITER,
            maxfun=LBFGSB_MAXFUN) -> LbfgsbResult:
    """Minimize ``fun_and_grad`` (a list of floats -> (value, gradient))
    within ``bounds`` by L-BFGS-B from ``x0``, inside the box: scipy's
    L-BFGS-B with a supplied gradient, ``ftol=FTOL`` and the given
    ``maxiter`` and ``maxfun``, step for step, without its wrappers.

    The loop is scipy's ``_lbfgsb_py`` driver: the kernel's arrays built as
    there, the function evaluated at the start before the first kernel call
    and again only where the kernel asks for it at a new point (counted as
    scipy counts ``nfev``), and the iteration and evaluation limits checked
    at each new iterate.  Same kernel, same inputs, same iterates (all
    inside the box), same result.  The arrays are built once per box (and
    thread) by :func:`_workspace` and zero-filled at the start of each
    search, the state scipy's freshly built arrays start from; the
    gradient is copied into its array at each point the kernel asks for.

    This calls ``scipy.optimize._lbfgsb.setulb``, the 17-argument kernel of
    scipy's C port of L-BFGS-B (scipy >= 1.15), and spells its result
    with scipy's message tables.  Both are private to scipy and the one
    dependency to recheck on a scipy upgrade; the oracle tests in
    ``tests/test_estimation.py`` compare this loop and the tables with
    scipy's.
    """
    setulb = _kernel()
    nbd, low, high, work = _workspace(tuple(bounds), threading.get_ident())
    for array in work:
        array.fill(0)
    g, wa, iwa, task, ln_task, lsave, isave, dsave = work
    x = np.array(x0, dtype=float)   # a copy: the kernel writes into x

    seen = x.tolist()
    fun0, grad_seen = fun_and_grad(seen)
    fun_seen, nfev, nit = fun0, 1, 0
    f = np.array(0.0)
    while True:
        setulb(LBFGSB_MAXCOR, x, low, high, nbd, f, g, FACTR, LBFGSB_PGTOL,
               wa, iwa, task, lsave, isave, dsave, LBFGSB_MAXLS, ln_task)
        status = task.item(0)
        if status == _FG:
            point = x.tolist()
            if point != seen:
                seen = point
                fun_seen, grad_seen = fun_and_grad(point)
                nfev += 1
            # Copied: the kernel may write into g, never into the cache.
            f, g[:] = fun_seen, grad_seen
        elif status == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[:] = _STOP, 504        # TOTAL NO. OF ITERATIONS ...
            elif nfev > maxfun:
                task[:] = _STOP, 502        # TOTAL NO. OF F,G EVALUATIONS ...
        else:
            break
    message = _STATUS_MESSAGES[task[0]] + ": " + _TASK_MESSAGES[task[1]]
    return LbfgsbResult(x, f, bool(task[0] == _CONVERGENCE), message, nfev,
                        nit, fun0)


def _maximize(log_l: m.Factored, x0, bounds, label=("objective",),
              tally=None) -> tuple[list[float], float, bool]:
    """Maximize ``log_l`` (factored in its two floats) within bounds
    from ``x0``, clipped into the box; return (x, value, converged), with
    the value -inf, not converged, where no finite one was found.
    ``label`` (a format and its arguments) names the fit in the debug log
    of non-converged results; ``tally`` (a Counter), if given, gains the
    objective ``evaluations``."""
    x0 = [min(max(float(v), lo), hi) for v, (lo, hi) in zip(x0, bounds)]
    n = len(x0)
    # scipy charges maxfun with the n + 1 evaluations of a finite-difference
    # point, a supplied gradient with one: the same budget in points.
    result = _lbfgsb(_fused(log_l, bounds), x0, bounds,
                     maxfun=LBFGSB_MAXFUN // (n + 1))
    if tally is not None:
        tally.update(evaluations=result.nfev * (n + 1))
    # The loop's first value is the objective at x0, negated.
    best_x, best_val = x0, -result.fun0
    if -result.fun > best_val:
        best_x, best_val = result.x.tolist(), -result.fun
    converged = result.success
    if best_val == -REJECTED:
        best_val, converged = -math.inf, False
    if not converged:
        log.debug(label[0] + ": no converged optimum (%s)", *label[1:],
                  result.message)
    return best_x, best_val, converged


def _search(model: Model, sample: DistanceSample, break_point: int,
            tally: Counter | None = None) -> tuple[list[float], float, bool]:
    """(x, log_l, converged) of a two-regime model at a fixed break point,
    from the row's starting values, which the sample keeps (keyed by the
    row's ``init``) for the twin; a truncation bound is pinned to the
    observed maximum.  ``tally`` is handed to :func:`_maximize`."""
    spec, key = model.spec, (model.spec.init, break_point)
    if key not in sample.memo:
        sample.memo[key] = spec.init(sample, break_point)
    d_max = sample.max_d if model.is_truncated else None
    return _maximize(spec.bind(sample, break_point, d_max), sample.memo[key],
                     spec.bounds, ("model %s, break point %d", model.id,
                                   break_point), tally)


def _params(model: Model, sample: DistanceSample, break_point: int, x
            ) -> ModelParams:
    integers = ((break_point, sample.max_d) if model.is_truncated
                else (break_point,))
    return model.spec.params(*map(float, x), *integers)


def _optimize(model: Model, sample: DistanceSample, break_point: int,
              tally: Counter | None = None
              ) -> tuple[ModelParams, float, bool]:
    """:func:`_search`'s fit as a parameter object."""
    x, log_l, conv = _search(model, sample, break_point, tally)
    return _params(model, sample, break_point, x), log_l, conv


# ---------------------------------------------------------------------------
# Per-model fits
# ---------------------------------------------------------------------------

def _break_grid(sample: DistanceSample) -> range:
    return range(sample.min2_d, sample.max2_d + 1)


def _floor(best: float) -> float:
    """The bound below which a break point cannot beat the best fit."""
    return best - PRUNE_MARGIN * (1.0 + abs(best))


def _scan(rows: Sequence[tuple[Model, DistanceSample]]) -> None:
    """The first phase of the break-point scan: the certificates
    (:func:`models.certificates`) of the (model, sample) rows not in their
    sample's memo yet, in one batch, at every break point of a two-regime
    row's grid (with DEFAULT_MIN_DISTINCT distinct distances or more) and
    at b = max d for models 2 and 5, the truncated one-regime rows with a
    rate.  The memo keeps (grid, bounds), which depend on the row alone,
    and the certificates leave the row's Newton iterates there."""
    rows = [(model, sample, _break_grid(sample) if model.is_two_regime
             else range(sample.max_d, sample.max_d + 1))
            for model, sample in rows if (_scan, model) not in sample.memo
            and (sample.distinct >= DEFAULT_MIN_DISTINCT
                 if model.is_two_regime
                 else model.is_truncated and model.spec.continuous)]
    for (model, sample, grid), bounds in zip(
            rows, m.certificates(rows) if rows else ()):
        sample.memo[_scan, model] = grid, bounds


def fit(model: Model, sample: DistanceSample) -> FitResult:
    """Fit one model to a sample by maximum likelihood.

    The one-regime models fit through their spec rows, 2 and 5 from their
    certificate (:func:`_scan`); the two-regime models optimize their
    continuous parameters at each grid break point that their certificates
    do not rule out, in descending order of the bound.  Unmet requirements
    (too few distinct distances, a length mixture on a sample without
    per-length samples) mark the result excluded instead of raising; a
    non-converged optimizer returns its best parameters with
    ``converged=False``.
    """
    _scan([(model, sample)])
    if model.spec.fit is not None:
        fitted = model.spec.fit(sample)
        if fitted is None:
            return _excluded(model, sample.total, "needs per-length samples")
        params, log_l, conv = fitted
        return _result(model, params, log_l, sample.total, conv)
    if sample.distinct < DEFAULT_MIN_DISTINCT:
        return _excluded(model, sample.total,
                         f"needs >= {DEFAULT_MIN_DISTINCT} distinct "
                         f"distances, sample has {sample.distinct}")
    grid, bounds = sample.memo[_scan, model]
    # Highest bound first, until a bound falls below the best fit.
    best, tally = None, Counter()
    for i in np.argsort(-bounds, kind="stable"):
        if best is not None and bounds[i] < _floor(best[2]):
            break
        x, log_l, conv = _search(model, sample, grid[i], tally)
        tally["searches"] += 1
        if best is None or (log_l, -grid[i]) > (best[2], -best[0]):
            best = (grid[i], x, log_l, conv)
    break_point, x, log_l, conv = best
    return _result(model, _params(model, sample, break_point, x), log_l,
                   sample.total, conv, break_points=len(grid), **tally)


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

# The canonical order of the spec table, with one of the two nulls: the
# length-mixture null for pooled samples that carry their per-length
# samples, the bounded-uniform null for fixed-length and artificial ones.
MIXED_ENSEMBLE = [model for model in Model if model is not Model.NULL_FIXED]
FIXED_ENSEMBLE = [model for model in Model if model is not Model.NULL_MIXTURE]


@dataclass
class SelectionReport:
    """All fits for one sample plus the winner under one criterion."""

    criterion: str                      # "aic" or "bic"
    fits: dict[Model, FitResult]
    best: Model | None
    deltas: dict[Model, float]

    def criterion_value(self, model: Model) -> float:
        fit_result = self.fits[model]
        return fit_result.aic if self.criterion == "aic" else fit_result.bic


def _best(sample: DistanceSample, model_set: Sequence[Model],
          criterion: str) -> tuple[Model | None, dict[Model, FitResult]]:
    """The model of ``model_set`` with the lowest criterion on ``sample``,
    by branch and bound across the rows, and the fits that it made.

    The one-regime rows are fitted first.  The two-regime rows follow in
    ascending order of a lower bound on their criterion: the row's penalty
    less twice its highest certificate (:func:`_scan`), widened by the
    break-point scan's margin (:func:`_floor`), -inf for a row with a
    +inf bound or none (an excluded row, which :func:`fit` reports at
    once).  A row whose lower bound is above the best criterion so far
    cannot win and is not fitted.  Ranked by (criterion, K, ensemble
    order): ties prefer fewer parameters, then the lower model id."""
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    _scan([(model, sample) for model in model_set])

    def lower(model: Model) -> float:
        if (_scan, model) not in sample.memo:
            return -math.inf
        # The highest certificate, raised by the margin that _floor takes off.
        top = -_floor(-float(sample.memo[_scan, model][1].max()))
        aic, bic = information_criteria(top, model.k, sample.total)
        return aic if criterion == "aic" else bic

    bounds = {model: lower(model) for model in model_set
              if model.is_two_regime}
    one_regime = [model for model in model_set if not model.is_two_regime]
    fits: dict[Model, FitResult] = {}
    best, best_rank = None, (math.inf,)
    for model in one_regime + sorted(bounds, key=bounds.get):
        if bounds.get(model, -math.inf) > best_rank[0]:
            continue
        result = fits[model] = fit(model, sample)
        if not result.excluded:
            rank = (getattr(result, criterion), model.k, model.order)
            if best is None or rank < best_rank:
                best, best_rank = model, rank
    return best, fits


def _ensemble(sample: DistanceSample) -> list[Model]:
    return MIXED_ENSEMBLE if sample.by_length else FIXED_ENSEMBLE


def select(
    sample: DistanceSample,
    model_set: Sequence[Model] | None = None,
    criterion: str = "aic",
) -> SelectionReport:
    """Fit every applicable model and pick the one with the lowest
    criterion.  Without a ``model_set``, a sample that carries per-length
    samples is fitted with :data:`MIXED_ENSEMBLE`, any other with
    :data:`FIXED_ENSEMBLE`.  The winner is :func:`_best`'s, found by
    branch and bound; the rows that it ruled out are fitted after it, so
    the report holds every fit, in ``model_set`` order."""
    if model_set is None:
        model_set = _ensemble(sample)
    best, fits = _best(sample, model_set, criterion)
    fits = {model: fits.get(model) or fit(model, sample)
            for model in model_set}
    if best is None:
        return SelectionReport(criterion, fits, None, {})
    floor = getattr(fits[best], criterion)
    deltas = {model: getattr(result, criterion) - floor
              for model, result in fits.items() if not result.excluded}
    return SelectionReport(criterion, fits, best, deltas)


def select_all(samples: Sequence[DistanceSample], criterion: str = "aic"
               ) -> list[SelectionReport]:
    """:func:`select` of each sample with its default ensemble, with the
    certificates of every row that has them (:func:`_scan`) run in one
    batch across the samples; each report equals ``select(sample)``'s."""
    _scan([(model, sample) for sample in samples for model in Model])
    return [select(sample, criterion=criterion) for sample in samples]


def best_all(samples: Sequence[DistanceSample], criterion: str = "aic"
             ) -> list[Model | None]:
    """The best model of each sample under its default ensemble, by
    :func:`_best`: the certificates run in one batch across the samples as
    in :func:`select_all`, but only the rows that could win are fitted and
    no report is built.  Each equals ``select(sample, criterion=criterion)
    .best``."""
    _scan([(model, sample) for sample in samples for model in Model])
    return [_best(sample, _ensemble(sample), criterion)[0]
            for sample in samples]


# ---------------------------------------------------------------------------
# Threshold robustness scan
# ---------------------------------------------------------------------------

FAMILY_PREFERENCE = ["0", "1-2", "5", "3-4", "6-7"]  # ties resolved in order


def threshold_scan(
    reports_by_length: Mapping[int, SelectionReport],
    sentence_counts: Mapping[int, int],
    thresholds: Iterable[int],
) -> dict[int, str | None]:
    """Most-voted best-model family under minimum-sentence-count thresholds.

    For each threshold t, lengths observed in fewer than t sentences are
    dropped and the remaining best models are aggregated into families
    {0, 1-2, 3-4, 5, 6-7}.  Ties go to families without two regimes (and
    then to the lower family id).  A threshold that filters everything out
    maps to None.
    """
    results: dict[int, str | None] = {}
    for t in thresholds:
        votes: dict[str, int] = {}
        for n, report in reports_by_length.items():
            if sentence_counts.get(n, 0) < t or report.best is None:
                continue
            family = report.best.family
            votes[family] = votes.get(family, 0) + 1
        if not votes:
            results[t] = None
            continue
        results[t] = min(
            votes,
            key=lambda fam: (-votes[fam], FAMILY_PREFERENCE.index(fam)),
        )
    return results


# ---------------------------------------------------------------------------
# Slope analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeSummary:
    """Decay-rate comparison of the two regimes of a fitted model.

    The slope of a geometric curve in log-linear scale is log(1 - q); for
    the zeta-geometric models the first-regime rate is approximated by
    refitting the two-regime geometric with the break point frozen.
    """

    q1: float
    q2: float
    ratio: float
    slope1: float
    slope2: float
    converged: bool


def geometric_log_slope(q: float) -> float:
    """Slope log(1 - q) of a geometric pmf in log-linear scale."""
    return math.log1p(-q)


def slope_analysis(fit_result: FitResult,
                   sample: DistanceSample) -> SlopeSummary:
    """Extract (q1, q2) slopes from a fitted two-regime model."""
    model, params = fit_result.model, fit_result.params
    if not model.is_two_regime or params is None:
        raise ValueError("slope analysis needs a fitted two-regime model")

    q2 = m.tail_rate(params)
    if model.family == "3-4":
        q1, converged = params.q1, fit_result.converged
    else:
        # Approximate the power-law regime with a geometric one: refit the
        # two-regime geometric at the original break point, keep its q1, and
        # keep the original geometric tail rate as q2.
        twin = (Model.TWO_REGIME_GEOMETRIC_TRUNC if model.is_truncated
                else Model.TWO_REGIME_GEOMETRIC)
        refit_params, _, converged = _optimize(twin, sample,
                                               params.break_point)
        q1 = refit_params.q1
    return SlopeSummary(
        q1=q1, q2=q2, ratio=q1 / q2,
        slope1=geometric_log_slope(q1), slope2=geometric_log_slope(q2),
        converged=converged,
    )
