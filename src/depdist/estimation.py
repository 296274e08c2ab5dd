"""Maximum-likelihood fitting and information-criterion model selection.

Continuous parameters are maximized with a bounded quasi-Newton optimizer,
L-BFGS-B; integer parameters are found by exhaustive scan.  The break point
ranges over every integer between the second smallest and second largest
observed distance, so that each regime keeps at least two distinct
distances to infer a decay from; this is also why two-regime models require
at least 3 distinct distances.

The truncation bound of models 2, 4, 5 and 7 is pinned to the observed
maximum distance: their likelihood is strictly decreasing in d_max for any
fixed continuous parameters (enlarging the support only bleeds mass outside
the data), so the profile likelihood peaks at the lower bound max(d).  The
uniform-shuffle null is the exception (its mass leans on low d); its spec
row scans d_max with an adaptive window.

The nulls and the geometric (q = N/M) fit through their spec rows
(:data:`depdist.models.SPECS`); one optimizer, :func:`_optimize`, serves
models 2 to 7: the row names its continuous parameters, their bounds and
starting values, and builds the parameter object.  At each break point the
row's log-likelihood is bound to the sample's statistics once; the starting
values and statistics are computed once per sample and shared by the twins
3/4 and 6/7.

L-BFGS-B is scipy's compiled kernel, called from :func:`_lbfgsb`, a loop
that does what scipy's own L-BFGS-B driver does step for step without its
wrappers.  It takes one fused call per point, :func:`_fused`, for the
value and the forward-difference gradient, with scipy's rule for L-BFGS-B
without a gradient: a step of 1e-8, turned backward at the box,
sqrt(eps) * max(1, |x|) where 1e-8 vanishes beside x, divided by the step
as rounded.  Same kernel, points and arithmetic, so every fit is
bit-identical to scipy's.  A search that finds no finite log-likelihood
reports -inf, not converged; non-converged results are logged at DEBUG,
and each :class:`FitResult` counts its break points and objective
evaluations.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.optimize._lbfgsb import setulb
from scipy.optimize._lbfgsb_py import status_messages, task_messages

from . import models as m
from .models import Model, ModelParams, PerLength
from .treebank import DistanceSample

DEFAULT_MIN_DISTINCT = 3        # distinct distances needed by two-regime fits
DEFAULT_MIN_LENGTH = 4          # sentences shorter than this are excluded
BREAK_POINT_INIT = 5
FTOL = 1e-11                    # relative log-likelihood convergence
Q_BOUNDS = m.Q_BOUNDS           # optimizer box of the q-like rates
GAMMA_BOUNDS = m.GAMMA_BOUNDS   # and of the zeta exponent
FD_STEP = 1e-8                  # scipy's default L-BFGS-B gradient step
FD_REL_STEP = float(np.finfo(float).eps) ** 0.5  # and its fallback scale
LBFGSB_MAXFUN = 15000           # scipy's default L-BFGS-B evaluation budget
LBFGSB_MAXITER = 500           # L-BFGS-B iteration limit
LBFGSB_MAXCOR = 10              # scipy's defaults: stored corrections,
LBFGSB_PGTOL = 1e-5             # projected-gradient tolerance
LBFGSB_MAXLS = 20               # and line-search steps per iteration
REJECTED = 1e300                # -log_l of a rejected point
# The kernel's task codes (scipy's ``status_messages``).
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitResult:
    """One model fitted to one sample.

    ``break_points`` counts the break points scanned (0 for one-regime
    models) and ``evaluations`` the objective evaluations of the whole
    fit; the fits through a spec row's ``fit`` and excluded fits have
    none of them.
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
    return FitResult(
        model=model, params=None, log_l=float("-inf"), k=model.k,
        aic=float("inf"), bic=float("inf"), converged=False,
        sample_size=n, status="excluded", note=note,
    )


def _result(model, params, log_l, n, converged, **counts) -> FitResult:
    aic, bic = information_criteria(log_l, model.k, n)
    return FitResult(
        model=model, params=params, log_l=log_l, k=model.k, aic=aic,
        bic=bic, converged=converged, sample_size=n, **counts,
    )


# ---------------------------------------------------------------------------
# Initial values
# ---------------------------------------------------------------------------

def _break_grid(sample: DistanceSample) -> range:
    return range(sample.min2_d, sample.max2_d + 1)


def initial_values(model: Model, sample: DistanceSample) -> ModelParams:
    """Starting parameters for the maximum-likelihood search: the spec's
    starting values at the break-point init (5, clamped into its bounds),
    with d_max at the observed maximum."""
    spec = model.spec
    if spec.init is None:
        raise ValueError(f"no initial values for {model}")
    break_point = None
    if model.is_two_regime:
        if sample.distinct < DEFAULT_MIN_DISTINCT:
            raise ValueError("two-regime init needs >= 3 distinct distances")
        break_point = min(max(BREAK_POINT_INIT, sample.min2_d),
                          sample.max2_d)
    return spec.build(break_point, sample.max_d)(
        *spec.init(sample, break_point))


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


def _fused(log_l, bounds):
    """-log_l and its gradient in one call: a function of a list of one or
    two floats, ``log_l``'s arguments, in ``bounds``.  The value is -log_l
    at the nearest point of the box (line searches probe a hair outside
    it), REJECTED where log_l is not finite; the gradient is the forward
    differences over steps h from :func:`_step`, divided by (x + h) - x:
    scipy's points and arithmetic, bit for bit."""
    lows, highs = _box(bounds)
    if len(lows) == 1:
        (lo,), (hi,) = lows, highs

        def negated(a):
            value = log_l(lo if a < lo else hi if a > hi else a)
            return -value if math.isfinite(value) else REJECTED

        def negated_and_gradient(x):
            (a,) = x
            f0, h = negated(a), _step(a, lo, hi)
            return f0, ((negated(a + h) - f0) / ((a + h) - a),)
        return negated_and_gradient

    (lo0, lo1), (hi0, hi1) = lows, highs

    def negated(a, b):
        value = log_l(lo0 if a < lo0 else hi0 if a > hi0 else a,
                      lo1 if b < lo1 else hi1 if b > hi1 else b)
        return -value if math.isfinite(value) else REJECTED

    def negated_and_gradient(x):
        a, b = x
        f0, ha, hb = negated(a, b), _step(a, lo0, hi0), _step(b, lo1, hi1)
        return f0, ((negated(a + ha, b) - f0) / ((a + ha) - a),
                    (negated(a, b + hb) - f0) / ((b + hb) - b))
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


def _box(bounds) -> tuple[list[float], list[float]]:
    """Lower and upper ends of ``bounds``, None read as infinite."""
    return ([-math.inf if lo is None else lo for lo, _ in bounds],
            [math.inf if hi is None else hi for _, hi in bounds])


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
    inside the box), same result.

    This calls ``scipy.optimize._lbfgsb.setulb``, the 17-argument kernel of
    scipy's C port of L-BFGS-B (scipy >= 1.15).  It is private to scipy
    and the one dependency to recheck on a scipy upgrade; the oracle tests
    in ``tests/test_estimation.py`` compare this loop with scipy's.
    """
    lows, highs = _box(bounds)
    x = np.array(x0, dtype=float)   # a copy: the kernel writes into x
    n, m = len(x), LBFGSB_MAXCOR
    nbd = np.array([_NBD[not math.isinf(lo), not math.isinf(hi)]
                    for lo, hi in zip(lows, highs)], np.int32)
    low = np.array([0.0 if math.isinf(lo) else lo for lo in lows])
    high = np.array([0.0 if math.isinf(hi) else hi for hi in highs])
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = FTOL / np.finfo(float).eps

    seen = x.tolist()
    fun0, grad_seen = fun_and_grad(seen)
    fun_seen, nfev, nit = fun0, 1, 0
    f, g = np.array(0.0), np.zeros(n)
    while True:
        setulb(m, x, low, high, nbd, f, g, factr, LBFGSB_PGTOL, wa, iwa,
               task, lsave, isave, dsave, LBFGSB_MAXLS, ln_task)
        status = task[0]
        if status == _FG:
            point = x.tolist()
            if point != seen:
                seen = point
                fun_seen, grad_seen = fun_and_grad(point)
                nfev += 1
            # A copy: the kernel may write into g, never into the cache.
            f, g = fun_seen, np.array(grad_seen, dtype=float)
        elif status == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[:] = _STOP, 504        # TOTAL NO. OF ITERATIONS ...
            elif nfev > maxfun:
                task[:] = _STOP, 502        # TOTAL NO. OF F,G EVALUATIONS ...
        else:
            break
    message = status_messages[task[0]] + ": " + task_messages[task[1]]
    return LbfgsbResult(x, f, bool(task[0] == _CONVERGENCE), message, nfev,
                        nit, fun0)


def _maximize(log_l, x0, bounds, label="objective", tally=None
              ) -> tuple[list[float], float, bool]:
    """Maximize ``log_l`` (a function of one or two floats) within bounds
    from ``x0``, clipped into the box; return (x, value, converged), with
    the value -inf, not converged, where no finite one was found.
    ``label`` names the fit in the debug log of non-converged results;
    ``tally`` (a Counter), if given, gains the objective ``evaluations``."""
    lows, highs = _box(bounds)
    x0 = [min(max(float(v), lo), hi) for v, lo, hi in zip(x0, lows, highs)]
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
        log.debug("%s: no converged optimum (%s)", label, result.message)
    return best_x, best_val, converged


def _optimize(model: Model, sample: DistanceSample, break_point: int | None,
              tally: Counter | None = None
              ) -> tuple[ModelParams, float, bool]:
    """Best continuous parameters at a fixed break point (None for
    one-regime models), seeded by the spec's initial values; a truncation
    bound is pinned to the observed maximum.  The starting values and
    statistics are kept on the sample, keyed by the row's ``init``, so twin
    models share them.  ``tally`` is handed to :func:`_maximize`."""
    spec, key = model.spec, (model.spec.init, break_point)
    if key not in sample.memo:
        sample.memo[key] = (spec.init(sample, break_point),
                            m.sufficient_stats(sample, break_point))
    x0, stats = sample.memo[key]
    x, log_l, conv = _maximize(
        spec.bind(stats, sample.max_d if model.is_truncated else None),
        x0, spec.bounds, f"model {model.id}, break point {break_point}",
        tally)
    return spec.build(break_point, sample.max_d)(*map(float, x)), log_l, conv


# ---------------------------------------------------------------------------
# Per-model fits
# ---------------------------------------------------------------------------

def fit(
    model: Model,
    sample: DistanceSample,
    per_length: PerLength | None = None,
    *,
    min_distinct_d: int = DEFAULT_MIN_DISTINCT,
) -> FitResult:
    """Fit one model to a sample by maximum likelihood.

    The nulls and the geometric fit through their spec rows; every other
    model optimizes its continuous parameters, at each grid break point if
    it has two regimes.  Unmet requirements (too few distinct distances,
    missing per-length data) mark the result excluded instead of raising; a
    non-converged optimizer returns its best parameters with
    ``converged=False``.
    """
    if model.spec.fit is not None:
        fitted = model.spec.fit(sample, per_length)
        if fitted is None:
            return _excluded(model, sample.total, "needs per-length samples")
        params, log_l, conv = fitted
        return _result(model, params, log_l, sample.total, conv)
    tally: Counter = Counter()
    if not model.is_two_regime:
        params, log_l, conv = _optimize(model, sample, None, tally)
        return _result(model, params, log_l, sample.total, conv, **tally)
    if sample.distinct < min_distinct_d:
        return _excluded(model, sample.total,
                         f"needs >= {min_distinct_d} distinct distances, "
                         f"sample has {sample.distinct}")
    best = None
    grid = _break_grid(sample)
    for bp in grid:
        fitted = _optimize(model, sample, bp, tally)
        if best is None or fitted[1] > best[1]:
            best = fitted
    params, log_l, conv = best
    return _result(model, params, log_l, sample.total, conv,
                   break_points=len(grid), **tally)


# ---------------------------------------------------------------------------
# Model selection
# ---------------------------------------------------------------------------

# The canonical order of the spec table, with one of the two nulls.
MIXED_ENSEMBLE = [model for model in Model if model is not Model.NULL_FIXED]
FIXED_ENSEMBLE = [model for model in Model if model is not Model.NULL_MIXTURE]


def ensemble_for(mode: str) -> list[Model]:
    """Model set per analysis mode: mixed lengths use the length-mixture
    null, fixed lengths and artificial samples the bounded-uniform null."""
    if mode == "mixed":
        return list(MIXED_ENSEMBLE)
    if mode in ("fixed", "artificial"):
        return list(FIXED_ENSEMBLE)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class SelectionReport:
    """All fits for one sample plus the winner under one criterion."""

    criterion: str                      # "aic" or "bic"
    fits: dict[Model, FitResult]
    best: Model | None
    deltas: dict[Model, float]
    sample_label: str = ""

    def criterion_value(self, model: Model) -> float:
        fit_result = self.fits[model]
        return fit_result.aic if self.criterion == "aic" else fit_result.bic


def select(
    sample: DistanceSample,
    model_set: Sequence[Model] | None = None,
    criterion: str = "aic",
    per_length: PerLength | None = None,
    *,
    min_distinct_d: int = DEFAULT_MIN_DISTINCT,
) -> SelectionReport:
    """Fit every applicable model and pick the one with the lowest
    criterion."""
    if criterion not in ("aic", "bic"):
        raise ValueError("criterion must be 'aic' or 'bic'")
    if model_set is None:
        model_set = ensemble_for("mixed" if per_length else "fixed")

    fits = {model: fit(model, sample, per_length,
                       min_distinct_d=min_distinct_d) for model in model_set}

    scored = {
        model: (result.aic if criterion == "aic" else result.bic)
        for model, result in fits.items() if not result.excluded
    }
    if not scored:
        return SelectionReport(criterion, fits, None, {},
                               sample_label=sample.label())
    # Ranked by (criterion, K, ensemble order): ties prefer fewer
    # parameters, then the lower model id.
    best = min(scored, key=lambda model: (scored[model], model.k,
                                          model.order))
    floor = min(scored.values())
    deltas = {model: value - floor for model, value in scored.items()}
    return SelectionReport(criterion, fits, best, deltas,
                           sample_label=sample.label())


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

    if model.family == "3-4":
        q1, q2 = params.q1, params.q2
        converged = fit_result.converged
    else:
        # Approximate the power-law regime with a geometric one: refit the
        # two-regime geometric at the original break point, keep its q1, and
        # keep the original geometric tail rate as q2.
        twin = (Model.TWO_REGIME_GEOMETRIC_TRUNC if model.is_truncated
                else Model.TWO_REGIME_GEOMETRIC)
        refit_params, _, converged = _optimize(twin, sample,
                                               params.break_point)
        q1 = refit_params.q1
        q2 = params.q
    return SlopeSummary(
        q1=q1, q2=q2, ratio=q1 / q2,
        slope1=geometric_log_slope(q1), slope2=geometric_log_slope(q2),
        converged=converged,
    )
