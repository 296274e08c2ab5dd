import dataclasses
import functools
import logging
import math
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

import depdist.estimation as est
import depdist.models as m
import depdist.sampling as samp
from depdist.estimation import (
    FitResult,
    SelectionReport,
    fit,
    information_criteria,
    select,
    select_all,
    slope_analysis,
    threshold_scan,
)
from depdist.models import Model
from depdist.sampling import generate_validation_suite
from depdist.treebank import DistanceSample, LengthDistribution, build_samples
from benchmark_inputs import benchmark_samples, omega_treebank
from oracles import (
    bisection_fit,
    bisection_rate,
    dense_grid_max,
    dense_grid_max_1d,
    exhaustive_break_scan,
    exhaustive_searches,
    null_maximizers,
    two_regime_init,
    unfactored_log_likelihood,
)

TWO_REGIME = [Model.TWO_REGIME_GEOMETRIC, Model.TWO_REGIME_GEOMETRIC_TRUNC,
              Model.ZETA_GEOMETRIC, Model.ZETA_GEOMETRIC_TRUNC]
# Every two-regime search on this sample finds no finite log-likelihood
# for the zeta-geometric models (6 and 7).
ALL_REJECTED = {1: 1000, 2: 1, 60: 1, 61: 1}
ONE_REGIME = [Model.GEOMETRIC, Model.GEOMETRIC_TRUNC, Model.ZETA_TRUNC]
# One outlier: on the far one the floor on log p(max d) caps the rate of
# models 1 and 2 (q = N/M puts log p(2000) below it); on both it rejects
# the large gammas of model 5.
FAR_OUTLIER = {1: 10000, 2000: 1}
NEAR_OUTLIER = {1: 1000, 60: 1}


class TestInformationCriteria:
    def test_aic(self):
        aic, _ = information_criteria(-100.0, 1, 50)
        assert aic == 202.0

    def test_zero_parameters(self):
        aic, bic = information_criteria(-123.5, 0, 10)
        assert aic == 247.0
        assert bic == 247.0

    def test_bic(self):
        log_l = -25776.745
        _, bic = information_criteria(log_l, 3, 10**4)
        assert bic == pytest.approx(3 * math.log(10**4) - 2 * log_l)
        assert bic == pytest.approx(51581.12, abs=0.005)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            information_criteria(-1.0, 1, 0)


class TestInitialValues:
    def test_rate_is_inverse_mean(self):
        sample = DistanceSample({5: 10})  # mean distance 5
        q = fit(Model.GEOMETRIC, sample).params.q
        assert q == pytest.approx(0.2)

    def test_exact_log_linear_frequencies(self):
        # f(d) with exact ratio 0.8 per step: the regression slope is
        # log 0.8, so both regime inits come out at 1 - 0.8 = 0.2.
        sample = DistanceSample({1: 625, 2: 500, 3: 400, 4: 320})
        q1, q2 = Model.TWO_REGIME_GEOMETRIC.spec.init(sample, 3)
        assert q1 == pytest.approx(0.2, rel=1e-9)
        assert q2 == pytest.approx(0.2, rel=1e-9)

    def test_rising_tail_slope_pins_rate_to_floor(self):
        # Rising frequencies beyond the break: slope >= 0, init at the
        # domain floor.
        sample = DistanceSample({1: 50, 2: 30, 3: 1, 4: 2, 5: 8})
        q1, q2 = m._regime_q_inits(sample, 3)
        assert q2 == m.EPS
        assert 0 < q1 < 1

    def test_gamma_estimator(self):
        sample = DistanceSample({1: 70, 2: 20, 3: 6, 4: 4})
        expected = 1 + sample.total / math.fsum(
            c * math.log(d) for d, c in sample.freq.items()
        )
        # The zeta-geometric's start with every distance in its first
        # regime (break point max d).
        gamma, _ = Model.ZETA_GEOMETRIC.spec.init(sample, 4)
        assert gamma == pytest.approx(expected)
        # The fit pins the truncation bound at the observed maximum.
        assert fit(Model.ZETA_TRUNC, sample).params.d_max == 4

    def test_tail_rate_uses_distances_beyond_break(self):
        sample = DistanceSample({1: 10, 4: 5, 8: 5})
        _, q = Model.ZETA_GEOMETRIC.spec.init(sample, 4)
        assert q == pytest.approx(5 / 40)  # only d = 8 is beyond the break


def geometric_sample(q, size, seed):
    return samp.draw_sample(Model.GEOMETRIC, m.GeometricParams(q), size,
                            seed)


class TestFit:
    @pytest.mark.parametrize("sample", [
        geometric_sample(0.3, 4000, seed=1),
        # N = 320, M = 631: a start at the maximum once stopped the search
        # as not converged.
        DistanceSample({1: 178, 2: 68, 3: 36, 4: 13, 5: 14, 6: 3, 7: 2,
                        8: 4, 9: 1, 14: 1}),
    ])
    def test_geometric_matches_closed_form(self, sample):
        result = fit(Model.GEOMETRIC, sample)
        # The maximizer of the geometric likelihood is N/M.
        assert result.params.q == sample.total / sample.weighted_sum
        assert result.converged
        assert result.log_l == m.log_likelihood(Model.GEOMETRIC,
                                                result.params, sample)
        assert result.aic == pytest.approx(2 - 2 * result.log_l)

    def test_no_finite_value_is_not_converged(self):
        # The floor on log p(60) rejects large gammas here; the fit reaches
        # the maximum of a dense grid below them, gamma 7.52 at -36.52.
        sample = DistanceSample(NEAR_OUTLIER)
        result = fit(Model.ZETA_TRUNC, sample)
        assert result.params.gamma == pytest.approx(7.52, abs=0.005)
        assert result.log_l == pytest.approx(-36.52, abs=0.005)
        assert result.log_l >= dense_grid_max_1d(Model.ZETA_TRUNC,
                                                 sample) - 1e-9
        assert result.converged
        # A search that finds no finite value reports -inf, not converged.
        _, value, converged = est._maximize(
            factored(lambda *x: -math.inf), [0.5, 0.5],
            [m.Q_BOUNDS, m.Q_BOUNDS])
        assert value == -math.inf
        assert not converged

    def test_two_regime_exclusions(self):
        # Two distinct distances, and one (where min2_d is None).
        for thin in (DistanceSample({1: 10, 2: 3}), DistanceSample({2: 5})):
            for model in (Model.TWO_REGIME_GEOMETRIC, Model.ZETA_GEOMETRIC,
                          Model.TWO_REGIME_GEOMETRIC_TRUNC,
                          Model.ZETA_GEOMETRIC_TRUNC):
                result = fit(model, thin)
                assert result.excluded
                assert "distinct" in result.note

    def test_three_distinct_distances_admitted(self):
        sample = DistanceSample({1: 40, 2: 12, 3: 4})
        result = fit(Model.TWO_REGIME_GEOMETRIC, sample)
        assert not result.excluded
        assert result.params.break_point == 2  # the only grid point

    def test_mixture_null_needs_per_length(self):
        sample = DistanceSample({1: 3})
        assert fit(Model.NULL_MIXTURE, sample).excluded
        params = m.MixtureNullParams(LengthDistribution({2: 1.0}))
        with pytest.raises(ValueError, match="per-length"):
            m.log_likelihood(Model.NULL_MIXTURE, params, sample)

    def test_null_scan_finds_observed_max(self, validation_report):
        sample = validation_report.suite[Model.NULL_FIXED]
        result = fit(Model.NULL_FIXED, sample)
        assert result.params.d_max == sample.max_d

    def test_null_scan_mass_at_top_of_support(self):
        # All mass on the largest distance: the triangular pmf explains it
        # better with a bound well beyond max(d); the scan must find it.
        sample = DistanceSample({19: 100})
        result = fit(Model.NULL_FIXED, sample)
        dm = result.params.d_max
        assert dm > 19

        def null_ll(bound):
            params = m.NullParams(bound)
            return m.log_likelihood(Model.NULL_FIXED, params, sample)

        assert all(null_ll(dm) >= null_ll(other)
                   for other in range(19, dm + 50))

    def test_null_scan_memory_is_bounded(self):
        # One distance far beyond the rest: the window holds 200,000
        # candidate d_max, but the bisection reads the support at only
        # about 18 of them, so the fit peaks far below 16 MB.
        sample = DistanceSample({1: 50, 2: 20, 3: 5, 4: 2, 200_000: 1})
        tracemalloc.start()
        try:
            result = fit(Model.NULL_FIXED, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20
        assert result.params.d_max in null_maximizers(sample)
        assert result.log_l == m.log_likelihood(Model.NULL_FIXED,
                                                result.params, sample)
        assert result.converged

    def test_one_regime_fits_report_their_own_log_likelihood(self):
        # validate seeds 1-20 and fit-select corpora 0-15: each fit's log L
        # is log_likelihood's at the fit's parameters, bit for bit.
        for label, sample in benchmark_samples(range(1, 21), range(16)):
            for model in (Model.NULL_FIXED, Model.NULL_MIXTURE, *ONE_REGIME):
                result = fit(model, sample)
                if not result.excluded:
                    assert result.log_l == m.log_likelihood(
                        model, result.params, sample), (label, model)

    def test_truncation_bound_never_beats_observed_max(self):
        # Scanning d_max above max(d) can only lose likelihood.
        rng = np.random.default_rng(8)
        sample = DistanceSample.from_values(rng.integers(1, 12, size=300))
        d_max = sample.max_d
        for extra in range(0, 6):
            dm = d_max + extra
            # The rows' maxima at bound dm, by the bisection oracle.
            ll_geo = m.log_likelihood(
                Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(
                    bisection_rate(Model.GEOMETRIC_TRUNC, sample, dm), dm),
                sample)
            ll_zeta = m.log_likelihood(
                Model.ZETA_TRUNC, m.ZetaParams(
                    bisection_rate(Model.ZETA_TRUNC, sample, dm), dm), sample)
            if extra == 0:
                for model, value in ((Model.GEOMETRIC_TRUNC, ll_geo),
                                     (Model.ZETA_TRUNC, ll_zeta)):
                    assert value == pytest.approx(fit(model, sample).log_l,
                                                  abs=1e-9)
                base_geo, base_zeta = ll_geo, ll_zeta
            else:
                assert ll_geo <= base_geo + 1e-9
                assert ll_zeta <= base_zeta + 1e-9

    def test_break_scan_is_exhaustive(self):
        rng = np.random.default_rng(21)
        near = samp.draw_sample(Model.GEOMETRIC, m.GeometricParams(0.55),
                                300, rng)
        far = samp.draw_sample(Model.GEOMETRIC, m.GeometricParams(0.15), 200,
                               rng)
        freq = Counter(near.freq)
        freq.update({4 + d: count for d, count in far.freq.items()})
        sample = DistanceSample(dict(freq))
        result = fit(Model.TWO_REGIME_GEOMETRIC, sample)
        best_by_rescan = max(
            est._optimize(Model.TWO_REGIME_GEOMETRIC, sample, bp)[1]
            for bp in range(sample.min2_d, sample.max2_d + 1)
        )
        assert result.log_l == pytest.approx(best_by_rescan, abs=1e-9)


def scipy_maximize(objective, x0, bounds):
    """Oracle: ``_maximize``'s search with scipy's own finite-difference
    gradient (no ``jac``): the better of the start and L-BFGS-B's result,
    with the value -inf, not converged, where both are rejected."""
    lows = [lo if lo is not None else -np.inf for lo, _ in bounds]
    highs = [hi if hi is not None else np.inf for _, hi in bounds]
    x0 = np.clip(np.asarray(x0, dtype=float), lows, highs)

    def negated(x):
        value = objective(*np.clip(x, lows, highs).tolist())
        return -value if math.isfinite(value) else 1e300

    best_x, best_val = x0, -negated(x0)
    primary = minimize(negated, x0, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": est.FTOL, "maxiter": 500})
    if -primary.fun > best_val:
        best_x, best_val = primary.x, -primary.fun
    if best_val == -1e300:
        return best_x, -math.inf, False
    return best_x, best_val, bool(primary.success)


def factored(log_l):
    """A function of two floats as an objective for ``_fused`` and
    ``_maximize``: its parts pass each value through to it."""
    return m.Factored(lambda x: x, lambda x: x, log_l)


def row_objective(model, sample, break_point):
    """The objective ``_optimize`` hands to ``_maximize``: the row bound to
    the sample at the break point."""
    d_max = sample.max_d if model.is_truncated else None
    return model.spec.bind(sample, break_point, d_max)


class TestForwardDifferences:
    """The fused gradient reproduces scipy's default for L-BFGS-B, so the
    optimizer walks the same iterates as with scipy's own differences."""

    @pytest.mark.parametrize("x, bounds", [
        ([0.3, 0.05], [m.Q_BOUNDS, m.Q_BOUNDS]),
        ([1 - m.EPS, 0.2], [m.Q_BOUNDS, m.Q_BOUNDS]),     # step turns back
        ([m.EPS, 1 - m.EPS], [m.Q_BOUNDS, m.Q_BOUNDS]),
        ([2e8, 0.4], [m.GAMMA_BOUNDS, m.Q_BOUNDS]),       # step rounds to 0
        ([0.0, 1 - m.EPS], [m.GAMMA_BOUNDS, m.Q_BOUNDS]),
        ([3.7e9, 0.05], [m.GAMMA_BOUNDS, m.Q_BOUNDS]),
        ([-2e9, 5.0], [(-math.inf, math.inf), (-math.inf, math.inf)]),
    ])
    def test_matches_scipy_step_for_step(self, x, bounds):
        def f(v):
            return math.sin(3.0 * v[0]) * math.exp(-v[-1]) + v[0] * v[-1]
        lows, highs = zip(*bounds)
        # The fused kernel minimizes -log_l, so log_l = -f gives back f.
        f0, ours = est._fused(factored(lambda *v: -f(v)), bounds)(x)
        assert f0 == f(x)
        theirs = approx_derivative(lambda v: f(v.tolist()), np.array(x),
                                   method="2-point", abs_step=1e-8,
                                   bounds=(lows, highs), f0=f0)
        assert np.array_equal(np.array(ours), theirs)

    @pytest.mark.parametrize("bounds, x, clamped", [
        ([m.GAMMA_BOUNDS, m.Q_BOUNDS], (-1.0, 1.5), (0.0, 1 - m.EPS)),
        ([m.Q_BOUNDS, m.GAMMA_BOUNDS], (0.0, 7.0), (m.EPS, 7.0)),
        ([m.Q_BOUNDS, m.Q_BOUNDS], (-0.5, 0.3), (m.EPS, 0.3)),
    ])
    def test_points_outside_the_box_are_clamped(self, bounds, x, clamped):
        seen = []

        def log_l(*v):
            seen.append(v)
            return -1.0
        f0, _ = est._fused(factored(log_l), bounds)(list(x))
        assert f0 == 1.0
        # The value's point, then the difference points, all in the box.
        assert seen[0] == clamped
        lows, highs = zip(*bounds)
        assert all(lo <= v <= hi for point in seen
                   for v, lo, hi in zip(point, lows, highs))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_maximize_bit_identical_to_scipy_default(self, seed):
        suite = generate_validation_suite(seed)
        cases = []
        for model in (Model.TWO_REGIME_GEOMETRIC,
                      Model.TWO_REGIME_GEOMETRIC_TRUNC,
                      Model.ZETA_GEOMETRIC, Model.ZETA_GEOMETRIC_TRUNC):
            sample = suite[model]
            for bp in (sample.min2_d, 4, sample.max2_d):
                cases.append((model, sample, bp))
        for model, sample, bp in cases:
            spec = model.spec
            start = spec.init(sample, bp)
            # The spec's start, then q-like values at the top of their box
            # (the step turns back) and gamma where 1e-8 vanishes beside it.
            extremes = tuple(
                2e8 if name == "gamma" else 1 - m.EPS
                for name in spec.continuous)
            for x0 in (start, extremes):
                objective = row_objective(model, sample, bp)
                x, value, conv = est._maximize(objective, x0, spec.bounds)
                x_ref, value_ref, conv_ref = scipy_maximize(
                    objective, x0, spec.bounds)
                case = (model, bp, x0)
                assert np.array_equal(x, x_ref), case
                assert value == value_ref, case
                assert conv == conv_ref, case


def optimized_models():
    """Models 3, 4, 6 and 7, the ones that L-BFGS-B fits."""
    return [model for model in Model if model.spec.fit is None]


class TestLbfgsbLoop:
    """The in-package L-BFGS-B loop against ``scipy.optimize.minimize`` on the
    same function: every field the fits read, bit for bit."""

    def test_message_tables_are_scipys(self):
        from scipy.optimize import _lbfgsb_py
        assert est._STATUS_MESSAGES == _lbfgsb_py.status_messages
        assert est._TASK_MESSAGES == _lbfgsb_py.task_messages

    @staticmethod
    def assert_same_as_scipy(model, sample, bp, **limits):
        spec = model.spec
        fg = est._fused(row_objective(model, sample, bp), spec.bounds)
        x0 = spec.init(sample, bp)
        ours = est._lbfgsb(fg, x0, spec.bounds, **limits)
        options = {"ftol": est.FTOL, "maxiter": est.LBFGSB_MAXITER,
                   "maxfun": est.LBFGSB_MAXFUN}
        options.update(limits)
        theirs = minimize(lambda x: fg(x.tolist()), x0, method="L-BFGS-B",
                          jac=True, bounds=spec.bounds, options=options)
        case = (model, bp, limits)
        assert np.array_equal(ours.x, theirs.x), case
        assert ours.fun == theirs.fun, case
        assert ours.success == theirs.success, case
        assert ours.message == theirs.message, case
        assert ours.nfev == theirs.nfev, case
        assert ours.nit == theirs.nit, case
        assert ours.fun0 == fg(np.clip(x0, *zip(*spec.bounds))
                               .tolist())[0], case
        return ours

    @pytest.mark.parametrize("seed", [1, 4])
    def test_validation_samples(self, seed):
        suite = generate_validation_suite(seed)
        for model in optimized_models():
            sample = suite[model]
            for bp in (sample.min2_d, 4, sample.max2_d):
                self.assert_same_as_scipy(model, sample, bp)

    def test_reused_arrays_carry_no_state(self):
        # The kernel's arrays are built once per box and zero-filled by each
        # search: a search of another row in the same box, stopped midway,
        # leaves no trace in the next run of the first.
        suite = generate_validation_suite(1)

        def search(model, bp, **limits):
            sample, spec = suite[model], model.spec
            return est._lbfgsb(
                est._fused(row_objective(model, sample, bp), spec.bounds),
                spec.init(sample, bp), spec.bounds, **limits)
        first = search(Model.TWO_REGIME_GEOMETRIC, 4)
        assert not search(Model.TWO_REGIME_GEOMETRIC_TRUNC, 7,
                          maxiter=2).success
        again = search(Model.TWO_REGIME_GEOMETRIC, 4)
        assert np.array_equal(first.x, again.x)
        assert first._replace(x=None) == again._replace(x=None)
        boxes = {tuple(model.spec.bounds) for model in (
            Model.TWO_REGIME_GEOMETRIC, Model.TWO_REGIME_GEOMETRIC_TRUNC)}
        assert len(boxes) == 1      # one workspace served both rows
        *_, work = est._workspace(*boxes, threading.get_ident())
        assert any(array.any() for array in work)   # and the searches used it

    def test_abnormal_stops(self):
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        messages = [
            self.assert_same_as_scipy(model, sample, bp).message
            for model in optimized_models()
            for bp in est._break_grid(sample)]
        assert any(text.startswith("ABNORMAL") for text in messages)

    @pytest.mark.parametrize("limits, message", [
        ({"maxiter": 2}, "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"),
        ({"maxfun": 3}, "STOP: TOTAL NO. OF F,G EVALUATIONS EXCEEDS LIMIT"),
    ])
    def test_forced_stops(self, limits, message):
        # Unlimited, this fit takes 6 iterations and 8 evaluations.
        model = Model.TWO_REGIME_GEOMETRIC_TRUNC
        sample = generate_validation_suite(1)[model]
        result = self.assert_same_as_scipy(model, sample, 4, **limits)
        assert not result.success
        assert result.message == message

    @pytest.mark.parametrize("rejected", [
        lambda x: x[0] > 0.9,                       # flat sentinel around x0
        lambda x: x[0] == 0.95,                     # only x0 itself
    ])
    @pytest.mark.parametrize("value", [-math.inf, math.nan])
    def test_rejected_start_matches_scipy_default(self, rejected, value):
        # ``_maximize`` reads the start's value from the loop's first
        # evaluation, except where the sentinel stands in for it.
        def objective(*x):
            return (value if rejected(x)
                    else -(x[0] - 0.3) ** 2 - (x[1] - 0.6) ** 2)
        box = [m.Q_BOUNDS, m.Q_BOUNDS]
        ours = est._maximize(factored(objective), [0.95, 0.5], box)
        theirs = scipy_maximize(objective, [0.95, 0.5], box)
        assert np.array_equal(ours[0], theirs[0])
        assert np.array_equal(ours[1], theirs[1], equal_nan=True)
        assert ours[2] == theirs[2]


def bound_cases():
    """Frozen samples for the break-point bounds: validate seed 1's suite,
    per-length and pooled samples of a fit-select benchmark corpus, and
    crafted edge cases."""
    cases = {f"validate-1-{model.id}": sample for model, sample
             in generate_validation_suite(1).items()}
    cases.update({
        "alpha-n16": {1: 150, 2: 65, 3: 35, 4: 16, 5: 9, 6: 3, 7: 1, 8: 2,
                      9: 2, 10: 2},
        "alpha-n24": {1: 78, 2: 33, 3: 20, 4: 11, 5: 6, 6: 6, 7: 2, 8: 1,
                      9: 1, 12: 2, 13: 1},
        "beta-n9": {1: 52, 2: 20, 3: 3, 4: 3, 5: 2},
        "alpha-pooled": {1: 1738, 2: 768, 3: 394, 4: 211, 5: 115, 6: 58,
                         7: 31, 8: 23, 9: 14, 10: 15, 11: 5, 12: 7, 13: 2,
                         14: 2, 16: 1, 17: 1, 21: 1},
        # The tail holds one distinct distance at b = max2_d: far beyond
        # the break, and right after it.
        "far-tail": {1: 40, 2: 15, 3: 6, 9: 2},
        "next-tail": {1: 30, 2: 12, 3: 5, 4: 1},
        # Two distinct distances in the first regime at every break point.
        "two-head": {2: 10, 5: 3, 6: 1, 7: 1},
        # A rising head: at b = 2 and 5 to 8 the first regime's maxima sit
        # at the ends of their boxes, q at 1e-8 and gamma at 0.
        "rising-head": {1: 1, 2: 3, 5: 400, 9: 2, 40: 1},
        "all-rejected": ALL_REJECTED,
    })
    return [pytest.param(sample if isinstance(sample, DistanceSample)
                         else DistanceSample(sample), id=name)
            for name, sample in cases.items()]


class TestBreakPointBound:
    """The bound that prunes the break-point scan, the certificate, is never
    below the constrained log-likelihood: not below its maximum on a dense
    grid of the continuous parameters, nor below the search at the break
    point."""

    @pytest.mark.parametrize("sample", bound_cases())
    def test_bound_is_above_every_fit(self, sample):
        grid = est._break_grid(sample)
        for model, bounds in certified(sample).items():
            assert bounds.shape == (len(grid),)
            for bp, bound in zip(grid, bounds):
                case = (model, bp)
                assert np.isfinite(bound) and bound <= 0.0, case
                for value in (dense_grid_max(model, sample, bp),
                              est._optimize(model, sample, bp)[1]):
                    margin = est.PRUNE_MARGIN * (1.0 + abs(value))
                    assert value <= bound + margin, case

    def test_twins_share_their_parts(self, monkeypatch):
        # One batch reads each sample's grid statistics once: the four rows
        # of a sample share them through its memo, and a second batch
        # computes none.
        freqs = [{1: 40, 2: 15, 3: 6, 5: 3, 8: 1}, {1: 40, 2: 15, 3: 6, 9: 2},
                 {1: 1, 2: 3, 5: 400, 9: 2, 40: 1}]
        computed, grid_stats = [], m._grid_stats
        monkeypatch.setattr(m, "_grid_stats", lambda *args: computed.append(
            args) or grid_stats(*args))
        rows = [(model, sample, est._break_grid(sample))
                for sample in map(DistanceSample, freqs)
                for model in TWO_REGIME]
        batched = m.certificates(rows)
        assert len(computed) == len(freqs)
        assert all(np.array_equal(again, certs) for again, certs in zip(
            m.certificates(rows), batched))
        assert len(computed) == len(freqs)

    def test_bounds_do_not_depend_on_the_batch(self):
        # Every certificate of every grid of validate seeds 1-5 and
        # fit-select corpora 0-3 is the same in one batch of all their rows
        # and alone: each break point stops at its own convergence and sums
        # over its own support.
        rows = [(model, dataclasses.replace(sample), est._break_grid(sample))
                for _, sample in benchmark_samples(range(1, 6), range(4))
                if sample.distinct >= est.DEFAULT_MIN_DISTINCT
                for model in TWO_REGIME]
        for (model, sample, grid), certs in zip(rows, m.certificates(rows)):
            alone = m.certificates([(model, dataclasses.replace(sample),
                                     grid)])[0]
            assert np.array_equal(alone, certs), (model, sample.label())


def one_regime_cases():
    """The bound's samples, one with a single distinct distance, and the two
    outlier samples."""
    return bound_cases() + [
        pytest.param(DistanceSample(freq), id=name) for name, freq in (
            ("one-distinct", {3: 25}), ("far-outlier", FAR_OUTLIER),
            ("near-outlier", NEAR_OUTLIER))]


class TestOneRegimeFits:
    """Models 1, 2 and 5 fit exactly, within the floor on log p(max d)."""

    @pytest.mark.parametrize("sample", one_regime_cases())
    def test_fit_reaches_the_dense_grid_max(self, sample):
        for model in ONE_REGIME:
            result = fit(model, sample)
            assert result.converged, model
            assert result.log_l >= dense_grid_max_1d(model, sample) - 1e-9, \
                model

    def test_far_outlier_fits_at_the_floor_cap(self):
        # Values from a dense grid: the floor caps q at 0.31071 for models
        # 1 and 2, and the truncated zeta peaks inside it, at gamma 9.88.
        sample = DistanceSample(FAR_OUTLIER)
        for model in (Model.GEOMETRIC, Model.GEOMETRIC_TRUNC):
            result = fit(model, sample)
            q = result.params.q
            assert q == pytest.approx(0.31071, abs=1e-5)
            assert result.log_l == pytest.approx(-12433.77, abs=0.01)
            # The largest q that the floor allows: a hair above is rejected.
            above = dataclasses.replace(result.params, q=q * (1 + 1e-12))
            assert m.log_likelihood(model, above, sample) == -math.inf
        result = fit(Model.ZETA_TRUNC, sample)
        assert result.params.gamma == pytest.approx(9.88, abs=0.005)
        assert result.log_l == pytest.approx(-85.91, abs=0.005)
        report = select(sample)
        assert report.fits[Model.NULL_FIXED].log_l == pytest.approx(
            -69097, abs=1)
        assert report.best is Model.ZETA_TRUNC


class TestBreakPointScan:
    def test_equal_log_likelihoods_keep_the_lower_break_point(
            self, monkeypatch):
        sample = DistanceSample({1: 40, 2: 15, 3: 6, 5: 3, 8: 1})
        model = Model.TWO_REGIME_GEOMETRIC
        values = {2: -50.0, 3: -40.0, 4: -60.0, 5: -40.0}
        visited = []

        def search(model, sample, bp, tally=None):
            visited.append(bp)
            return [0.5, 0.5], values[bp], True
        # Break points 4 and 5 are visited before 3, which ties 5; the
        # bound of 2 is below the tie's value, so 2 is pruned.
        bounds = np.array([-45.0, -39.0, -30.0, -30.0])
        monkeypatch.setattr(est, "_search", search)
        monkeypatch.setattr(m, "certificates", lambda rows: [
            bounds for _ in rows])
        result = fit(model, sample)
        assert visited == [4, 5, 3]
        assert result.params.break_point == 3
        assert result.log_l == -40.0
        assert result.break_points == 4
        assert exhaustive_break_scan(model, sample)[0].break_point == 3

    def test_rejected_everywhere_scans_every_break_point(self):
        sample = DistanceSample(ALL_REJECTED)
        for model in (Model.ZETA_GEOMETRIC, Model.ZETA_GEOMETRIC_TRUNC):
            result = fit(model, sample)
            assert result.log_l == -math.inf
            assert not result.converged
            assert result.params.break_point == sample.min2_d
            exhaustive = Counter()
            for bp in est._break_grid(sample):
                est._optimize(model, sample, bp, exhaustive)
            assert result.evaluations == exhaustive["evaluations"]


# Samples whose model-2 and model-5 curves are flat (max d = 1) or peak at
# the edge of the box, q = 1e-8 and gamma = 0.
EDGE_SAMPLES = [{1: 2}, {3: 7}, {1: 5, 2: 5}]


class TestNewtonFits:
    """Models 2 and 5 fit from the Newton iterate of their certificate at
    b = max d; the 40-step bisection that Newton replaced and a dense grid
    of the rate are the oracles."""

    @pytest.mark.parametrize("freq", EDGE_SAMPLES)
    def test_edge_samples_keep_the_bisection_fits(self, freq):
        sample = DistanceSample(freq)
        for model, rate, edge in ((Model.GEOMETRIC_TRUNC, "q", m.EPS),
                                  (Model.ZETA_TRUNC, "gamma", 0.0)):
            result = fit(model, sample)
            params, log_l, converged = bisection_fit(model, sample)
            assert getattr(result.params, rate) == edge, model
            assert (result.params, result.log_l, result.converged) == (
                params, log_l, converged), model

    def test_floor_capped_sample_keeps_the_bisection_fits(self):
        # The floor caps q, at the same double; the truncated zeta peaks
        # inside the floor, where Newton and bisection agree to rounding.
        sample = DistanceSample(FAR_OUTLIER)
        result = fit(Model.GEOMETRIC_TRUNC, sample)
        assert result.params.q == pytest.approx(0.3107158, abs=1e-7)
        assert (result.params, result.log_l) == bisection_fit(
            Model.GEOMETRIC_TRUNC, sample)[:2]
        result = fit(Model.ZETA_TRUNC, sample)
        params, log_l, _ = bisection_fit(Model.ZETA_TRUNC, sample)
        assert result.params.gamma == pytest.approx(9.8759206, abs=1e-7)
        assert result.params.gamma == pytest.approx(params.gamma, rel=1e-9)
        assert result.log_l >= log_l - 1e-10

    def test_the_floor_cap_evaluates_an_allowed_rate_once(self, monkeypatch):
        # A rate that the floor allows is evaluated once, and that value is
        # the fit's; a rejected one is evaluated again after the bisection.
        calls = []
        capped = m._floor_capped

        def counted(build, log_l, lo, rate):
            def counting(x):
                calls.append((x, log_l(x), log_l))
                return calls[-1][1]
            return capped(build, counting, lo, rate)

        monkeypatch.setattr(m, "_floor_capped", counted)
        result = fit(Model.GEOMETRIC_TRUNC,
                     DistanceSample({1: 40, 2: 15, 3: 6, 5: 3, 8: 1}))
        [(rate, value, log_l)] = calls
        assert (result.params.q, result.log_l) == (rate, value)
        assert result.converged and value == log_l(rate)
        calls.clear()
        result = fit(Model.GEOMETRIC_TRUNC, DistanceSample(FAR_OUTLIER))
        assert len(calls) == m.CAP_BISECTIONS + 2
        assert (result.params.q, result.log_l) == calls[-1][:2]

    def test_fits_reach_the_oracles_on_benchmark_samples(self):
        # validate seeds 1-20 and fit-select corpora 0-15.
        for label, sample in benchmark_samples(range(1, 21), range(16)):
            for model in (Model.GEOMETRIC_TRUNC, Model.ZETA_TRUNC):
                log_l, case = fit(model, sample).log_l, (label, model)
                assert log_l >= bisection_fit(model, sample)[1] - 1e-10, case
                assert log_l >= dense_grid_max_1d(model, sample) - 1e-9 * (
                    1.0 + abs(log_l)), case


# validate seeds 1-20 and fit-select corpora 0-15, in eight parts: each
# part is one test case.
BENCHMARK_PARTS = [((seeds, ()), f"validate-{seeds[0]}-{seeds[-1]}")
                   for seeds in (range(1, 6), range(6, 11), range(11, 16),
                                 range(16, 21))] + [
    (((), variants), f"fit-select-{variants[0]}-{variants[-1]}")
    for variants in (range(0, 4), range(4, 8), range(8, 12), range(12, 16))]


@functools.cache
def searched(label, model):
    """The search at every break point of a benchmark sample's grid."""
    samples = dict(benchmark_samples(range(1, 21), range(16)))
    return exhaustive_searches(model, samples[label])


def certified(sample):
    """Each two-regime row's certificates at every break point of the
    sample's grid."""
    grid = est._break_grid(sample)
    return dict(zip(TWO_REGIME, m.certificates([(model, sample, grid)
                                                for model in TWO_REGIME])))


# Ten thousand 1s and one each of 2, 3 and 2000: the searches of models 3
# and 4 stop far below the dense grid's maxima, at q2 = 1e-8, and those of 6
# and 7 find no finite value.
FAR_TAIL = {1: 10000, 2: 1, 3: 1, 2000: 1}
# Ten trillion 1s: the zeta rows' slope in gamma has no cap (no certificate).
CAPPED = {1: 10 ** 13, 2: 3, 3: 2, 4: 1, 6: 1}
# A distance of 2 million: truncated tails of about 2 million terms.
LONG_TAIL = {1: 5, 2: 3, 3: 2, 2_000_000: 1}


def grid_log_likelihood_max(model, sample, bp, size=24):
    """The largest ``models.log_likelihood`` of a truncated two-regime row
    at break point ``bp`` over a size x size grid: q1 or gamma (0 to 20)
    and q2, each q on a logistic grid inside [1e-8, 1 - 1e-8]."""
    q = 1.0 / (1.0 + np.exp(-np.linspace(-18.0, 18.0, size)))
    first = np.linspace(0.0, 20.0, size) if model.family == "6-7" else q
    return max(m.log_likelihood(model, model.spec.params(
        float(x1), float(x2), bp, sample.max_d), sample)
        for x1 in first for x2 in q)


class TestCertificates:
    """The certificate at a break point bounds the row's log-likelihood
    there: it is never below the dense grid's maximum, nor below the search
    there, less the pruning margin."""

    @staticmethod
    def assert_bounds(sample, certs, searches, size=64):
        for model in TWO_REGIME:
            grid = est._break_grid(sample)
            for bp, cert, (_, log_l, _) in zip(grid, certs[model],
                                               searches(model)):
                case = (model, bp)
                assert cert >= dense_grid_max(model, sample, bp, size), case
                assert cert >= log_l - est.PRUNE_MARGIN * (
                    1.0 + abs(log_l)), case

    @pytest.mark.parametrize("seeds, variants", [
        pytest.param(*part, id=name) for part, name in BENCHMARK_PARTS])
    def test_benchmark_samples(self, seeds, variants):
        # Every row, sample and break point; the grid is 32 x 32 here.
        for label, sample in benchmark_samples(seeds, variants):
            if sample.distinct >= est.DEFAULT_MIN_DISTINCT:
                self.assert_bounds(sample, certified(sample),
                                   lambda model: searched(label, model), 32)

    @pytest.mark.parametrize("freq", [
        # Box-edge maxima, q2 at 1e-8 among them, and rejected searches.
        pytest.param(FAR_TAIL, id="far-tail"),
        # The grid's top break point is max d - 1: the truncated tails of
        # models 4 and 7 hold one step.
        pytest.param({1: 30, 2: 12, 3: 5, 4: 1}, id="next-tail"),
        pytest.param({1: 40, 2: 15, 3: 6, 4: 3, 6: 2, 7: 1}, id="one-step")])
    def test_edge_samples(self, freq):
        sample = DistanceSample(freq)
        certs = certified(sample)
        self.assert_bounds(sample, certs,
                           lambda model: exhaustive_searches(model, sample))

    def test_far_tail_certificates_clear_the_rejected_searches(self):
        # Models 6 and 7 find no finite value; their certificates stay at
        # or above the dense grid's maxima, about -45.
        sample = DistanceSample(FAR_TAIL)
        certs = certified(sample)
        for model in (Model.ZETA_GEOMETRIC, Model.ZETA_GEOMETRIC_TRUNC):
            assert all(log_l == -math.inf for _, log_l, _
                       in exhaustive_searches(model, sample))
            assert np.all(np.isfinite(certs[model]))
            assert np.all(certs[model] >= -46.0)

    def test_twins_coincide_at_break_point_two(self):
        # At b = 2 the first regime holds d = 1 and 2 alone, where the
        # geometric's q1 and the zeta's gamma reach the same weights: 3 and
        # 6 have the same maximum, and so have 4 and 7.
        sample = DistanceSample({1: 50, 2: 20, 4: 8, 6: 3, 9: 1})
        certs = certified(sample)
        assert est._break_grid(sample)[0] == 2
        self.assert_bounds(sample, certs,
                           lambda model: exhaustive_searches(model, sample))
        for geometric, zeta in ((Model.TWO_REGIME_GEOMETRIC,
                                 Model.ZETA_GEOMETRIC),
                                (Model.TWO_REGIME_GEOMETRIC_TRUNC,
                                 Model.ZETA_GEOMETRIC_TRUNC)):
            assert certs[geometric][0] == pytest.approx(certs[zeta][0],
                                                        rel=1e-12)

    def test_capped_zeta_rows_have_no_certificate(self):
        # N ZETA_SLOPE_CAP is about 38 on CAPPED, above the sum of log d
        # over its distances: the gamma cap cannot bound the zeta rows,
        # whose bounds, in the scan too, are +inf at every break point; the
        # geometric rows have certificates at all of them.
        certs = certified(DistanceSample(CAPPED))
        scanned = DistanceSample(CAPPED)
        est._scan([(model, scanned) for model in TWO_REGIME])
        for model, cert in certs.items():
            assert np.array_equal(scanned.memo[est._scan, model][1],
                                  cert), model
            zeta = model.family == "6-7"
            assert np.isinf(cert).all() == zeta, model
            assert np.isfinite(cert).all() != zeta, model

    def test_break_points_without_a_certificate_are_searched(
            self, monkeypatch):
        # The zeta rows of CAPPED have no certificate at any break point:
        # the scan searches each of them, and every fit is still the
        # exhaustive scan's.
        exhaustive = {model: exhaustive_break_scan(model,
                                                   DistanceSample(CAPPED))
                      for model in TWO_REGIME}
        sample, visited = DistanceSample(CAPPED), Counter()
        search = est._search

        def counted(model, sample, bp, tally=None):
            visited[model, bp] += 1
            return search(model, sample, bp, tally)
        monkeypatch.setattr(est, "_search", counted)
        for model in TWO_REGIME:
            result = fit(model, sample)
            grid, bounds = sample.memo[est._scan, model]
            uncertified = [bp for bp, bound in zip(grid, bounds)
                           if bound == math.inf]
            assert (uncertified == list(grid)) == (model.family == "6-7")
            assert all(visited[model, bp] == 1 for bp in uncertified), model
            assert result.searches == sum(
                count for (row, _), count in visited.items() if row is model)
            assert (result.params, result.log_l, result.converged) == \
                exhaustive[model], model

    def test_long_truncated_tails_are_certified(self):
        # The truncated tails of models 4 and 7 hold about 2 million terms
        # at every break point, in closed form: each has a finite
        # certificate, at or above the search there and the row's
        # log-likelihood on a grid of its parameters.
        sample = DistanceSample(LONG_TAIL)
        certs = certified(sample)
        for model in (Model.TWO_REGIME_GEOMETRIC_TRUNC,
                      Model.ZETA_GEOMETRIC_TRUNC):
            assert np.all(np.isfinite(certs[model])), model
            for bp, cert in zip(est._break_grid(sample), certs[model]):
                case = (model, bp)
                assert sample.max_d - bp > 2 ** 20, case
                assert cert >= est._search(model, sample, bp)[1], case
                assert cert >= grid_log_likelihood_max(model, sample, bp), \
                    case

    def test_rows_do_not_depend_on_the_batch(self):
        # Each row's certificates are the same in one batch with every row
        # of three samples and in a batch of its own.
        rows = []
        for freq in (FAR_TAIL, {1: 40, 2: 15, 3: 6, 5: 3, 8: 1},
                     {1: 1, 2: 3, 5: 400, 9: 2, 40: 1}):
            sample = DistanceSample(freq)
            rows += [(model, sample, est._break_grid(sample))
                     for model in TWO_REGIME]
        for row, certs in zip(rows, m.certificates(rows)):
            assert np.array_equal(m.certificates([row])[0], certs), row[:2]


class TestExhaustiveFits:
    """Every fit is the exhaustive scan's, and the batch does not change
    any field of any fit."""

    @pytest.mark.parametrize("seeds, variants", [
        pytest.param(*part, id=name) for part, name in BENCHMARK_PARTS])
    def test_fits_equal_the_exhaustive_scan(self, seeds, variants):
        for label, sample in benchmark_samples(seeds, variants):
            if sample.distinct < est.DEFAULT_MIN_DISTINCT:
                continue
            for model in TWO_REGIME:
                result = fit(model, sample)
                assert (result.params, result.log_l, result.converged) == \
                    exhaustive_break_scan(model, sample,
                                          searched(label, model)), (
                    label, model)

    @pytest.mark.parametrize("seeds, variants", [
        pytest.param(*part, id=name) for part, name in BENCHMARK_PARTS])
    def test_select_all_equals_select(self, seeds, variants):
        # Fresh copies: the samples' memos hold no scan yet.  The batches
        # are a validate seed's suite and a corpus language's samples, as
        # the commands batch them.
        batches = {}
        for label, sample in benchmark_samples(seeds, variants):
            batches.setdefault(label.rsplit("-", 1)[0], []).append(sample)
        for batch in batches.values():
            alone = [select(dataclasses.replace(sample))
                     for sample in batch]
            together = select_all([dataclasses.replace(sample)
                                   for sample in batch])
            for one, other in zip(alone, together):
                assert one.best is other.best
                assert one.fits == other.fits


class TestStartingValues:
    """The starts read prefix and suffix slices of arrays cached once per
    sample, and equal the starts computed from masks, bit for bit."""

    def test_starts_equal_the_masked_starts(self):
        # Every break point of validate seeds 1-5 and fit-select corpora
        # 0-3.
        pairs = 0
        for label, sample in benchmark_samples(range(1, 6), range(4)):
            for bp in est._break_grid(sample) if sample.distinct >= 3 else ():
                for model in (Model.TWO_REGIME_GEOMETRIC, Model.ZETA_GEOMETRIC):
                    assert model.spec.init(sample, bp) == two_regime_init(
                        model, sample, bp), (label, model, bp)
                pairs += 1
        assert pairs > 1000


class TestFactoredObjective:
    """Each two-regime row's log-likelihood is one part per continuous
    parameter and a combine step; ``_fused`` shares each part between the
    value and the difference point that leaves it fixed.  Both agree with
    the log-likelihood written as one function, bit for bit."""

    @staticmethod
    def points(model, rng):
        """Random points, the box's corners and beyond its ends."""
        gamma = model.family == "6-7"
        firsts = [0.0, 3.0, 2e8] if gamma else [m.EPS, 1 - m.EPS]
        corners = [(a, b) for a in firsts for b in (m.EPS, 1 - m.EPS)]
        random = [(rng.uniform(0.0, 12.0) if gamma else rng.uniform(),
                   rng.uniform()) for _ in range(30)]
        outside = [(-0.5, 1.5), (30.0 if gamma else 1.2, -0.1)]
        return corners + random + outside

    @pytest.mark.parametrize("freq", [
        {1: 40, 2: 15, 3: 6, 5: 3, 8: 1},
        ALL_REJECTED,
        {1: 10000, 2: 5, 3: 2, 2000: 1},
    ])
    def test_parts_agree_with_the_unfactored_log_likelihood(self, freq):
        sample, rng = DistanceSample(freq), np.random.default_rng(3)
        rejected = 0
        for model in TWO_REGIME:
            spec = model.spec
            lows, highs = zip(*spec.bounds)
            for bp in est._break_grid(sample):
                d_max = sample.max_d if model.is_truncated else None
                reference = unfactored_log_likelihood(model, sample, bp,
                                                      d_max)
                fused = est._fused(row_objective(model, sample, bp),
                                   spec.bounds)

                def negated(*x):
                    value = reference(*np.clip(x, lows, highs).tolist())
                    return -value if math.isfinite(value) else est.REJECTED
                for x in self.points(model, rng):
                    inside = np.clip(x, lows, highs).tolist()
                    case = (model, bp, x)
                    value = reference(*inside)
                    params = spec.params(*inside, *(
                        (bp,) if d_max is None else (bp, d_max)))
                    assert m.log_likelihood(model, params, sample) == value, \
                        case
                    rejected += value == -math.inf
                    f0, gradient = fused(list(x))
                    assert f0 == negated(*x), case
                    steps = [est._step(v, lo, hi)
                             for v, lo, hi in zip(x, lows, highs)]
                    assert gradient == (
                        (negated(x[0] + steps[0], x[1]) - f0)
                        / ((x[0] + steps[0]) - x[0]),
                        (negated(x[0], x[1] + steps[1]) - f0)
                        / ((x[1] + steps[1]) - x[1])), case
        assert rejected

    def test_rejected_regions(self):
        # tau overflows at a late break with rates at opposite ends; with
        # finite normalizers, log p(max d) falls below the floor.
        sample = DistanceSample(ALL_REJECTED)
        with pytest.raises(OverflowError):
            m.two_regime_geometric_constants(m.EPS, 1 - m.EPS, 60)
        with pytest.raises(OverflowError):
            m.zeta_geometric_constants(0.0, 1 - m.EPS, 60)
        for model, x in ((Model.TWO_REGIME_GEOMETRIC, (m.EPS, 1 - m.EPS)),
                         (Model.ZETA_GEOMETRIC, (0.0, 1 - m.EPS))):
            assert row_objective(model, sample, 60)(*x) == -math.inf
            assert unfactored_log_likelihood(model, sample, 60, None)(
                *x) == -math.inf
        floor = DistanceSample({1: 10000, 2: 5, 3: 2, 2000: 1})
        assert all(math.isfinite(c) for c in
                   m.two_regime_geometric_constants(0.5, 0.9, 2))
        assert row_objective(Model.TWO_REGIME_GEOMETRIC, floor, 2)(
            0.5, 0.9) == -math.inf


class TestFitCounts:
    @pytest.mark.parametrize("seeds, variants, most", [
        pytest.param(range(1, 6), (), 331, id="validate-1-5"),
        pytest.param((), range(16), 2104, id="fit-select-0-15")])
    def test_search_counts(self, seeds, variants, most):
        # The counts are deterministic: 331 and 2,104 searches with every
        # break point certified before the first search.  The scan that
        # searched each row at its highest relaxed bound before it
        # certified the rest ran 416 and 3,368.
        total = sum(result.searches
                    for _, sample in benchmark_samples(seeds, variants)
                    for result in select(sample).fits.values())
        assert total <= most

    def test_pruning_skips_searches(self):
        # The break-point count is the grid's; the evaluations are those
        # of the searches that ran, fewer than the exhaustive scan's.
        sample = generate_validation_suite(1)[Model.TWO_REGIME_GEOMETRIC]
        grid = est._break_grid(sample)
        for model in TWO_REGIME:
            exhaustive = Counter()
            for bp in grid:
                est._optimize(model, sample, bp, exhaustive)
            result = fit(model, sample)
            assert result.break_points == len(grid)
            assert 0 < result.evaluations < exhaustive["evaluations"], model

    def test_counts_on_crafted_sample(self, monkeypatch):
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        searched = [model for model in Model if model.spec.fit is None]
        calls = Counter()
        for model in searched:
            spec = model.spec

            def counted_bind(sample, bp, d_max, model=model, bind=spec.bind):
                log_l = bind(sample, bp, d_max)

                def counted(*parts):
                    calls[model] += 1
                    return log_l.combine(*parts)
                return log_l._replace(combine=counted)
            monkeypatch.setitem(vars(model), "spec", dataclasses.replace(
                spec, bind=counted_bind))
        report = select(sample, est.FIXED_ENSEMBLE, "aic")
        for model, result in report.fits.items():
            assert result.evaluations == calls[model], model
            assert result.break_points == (
                len(est._break_grid(sample)) if model.is_two_regime else 0)
        assert set(calls) == set(searched)

    def test_searches_are_counted(self, monkeypatch):
        # One search per break point that the scan did not prune; none for
        # the one-regime rows.
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        calls, search = Counter(), est._search

        def counted(model, *args, **kwargs):
            calls[model] += 1
            return search(model, *args, **kwargs)
        monkeypatch.setattr(est, "_search", counted)
        report = select(sample, est.FIXED_ENSEMBLE, "aic")
        for model, result in report.fits.items():
            assert result.searches == calls[model], model
            assert result.searches <= result.break_points, model
        assert all(calls[model] > 0 for model in TWO_REGIME)
        assert set(calls) == set(TWO_REGIME)

    def test_rejected_start_is_counted(self):
        # Every evaluation is counted, the rejected start's too.
        calls = []

        def objective(*x):
            calls.append(x)
            return (-math.inf if x[0] > 0.9
                    else -(x[0] - 0.3) ** 2 - (x[1] - 0.6) ** 2)
        tally = Counter()
        est._maximize(factored(objective), [0.95, 0.5],
                      [m.Q_BOUNDS, m.Q_BOUNDS], tally=tally)
        assert tally["evaluations"] == len(calls)


class TestOptimizerLog:
    def test_nonconverged_results_are_logged(self, caplog):
        # On this sample L-BFGS-B stops early at some break points, among
        # them model 7's break point 6 (which the scan's certificates
        # prune, so it is searched here on its own).
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        with caplog.at_level(logging.DEBUG, logger="depdist.estimation"):
            est._optimize(Model.ZETA_GEOMETRIC_TRUNC, sample, 6)
        messages = [r.getMessage() for r in caplog.records]
        assert all(r.levelno == logging.DEBUG for r in caplog.records)
        logged = [text for text in messages if "no converged optimum" in text]
        assert logged
        # Model id, break point and scipy's message.
        assert logged[0].startswith("model 7, break point ")
        assert "ABNORMAL" in logged[0]

    def test_quiet_without_debug(self, caplog):
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        with caplog.at_level(logging.INFO, logger="depdist.estimation"):
            select(sample, est.FIXED_ENSEMBLE, "aic")
        assert not caplog.records


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the first L-BFGS-B step from the regression start is "
    "stuck; it lands on the box corner q1 = q2 = 1 - 1e-8, where the "
    "log-likelihood is rejected, and the flat 1e300 sentinel there ends the "
    "search back at the start as converged (log L -26018.9 at break point "
    "4); the fix changes validate seed 1's selection, so it waits for the "
    "benchmark's validate reference to be re-recorded"))
def test_two_regime_fit_reaches_generating_likelihood():
    sample = generate_validation_suite(1)[Model.TWO_REGIME_GEOMETRIC]
    truth = m.log_likelihood(Model.TWO_REGIME_GEOMETRIC,
                             m.TwoRegimeGeometricParams(0.5, 0.1, 4), sample)
    assert fit(Model.TWO_REGIME_GEOMETRIC, sample).log_l >= truth


class TestNestedLikelihoods:
    def test_monotone_in_model_nesting(self, validation_report):
        for report in validation_report.selections.values():
            fits = report.fits
            ll = {model: fits[model].log_l for model in fits
                  if not fits[model].excluded}
            assert ll[Model.GEOMETRIC_TRUNC] >= ll[Model.GEOMETRIC] - 1e-6
            assert ll[Model.TWO_REGIME_GEOMETRIC] \
                >= ll[Model.GEOMETRIC] - 1e-6
            assert ll[Model.TWO_REGIME_GEOMETRIC_TRUNC] \
                >= ll[Model.TWO_REGIME_GEOMETRIC] - 1e-6
            assert ll[Model.ZETA_GEOMETRIC_TRUNC] \
                >= ll[Model.ZETA_GEOMETRIC] - 1e-6
            # Matching support: the truncated zeta-geometric has the
            # truncated zeta's shape in its first regime plus free tail
            # parameters, and never does worse on this suite.
            assert ll[Model.ZETA_GEOMETRIC_TRUNC] \
                >= ll[Model.ZETA_TRUNC] - 1e-6


class TestSelect:
    def test_deltas_nonnegative_with_zero_floor(self, validation_report):
        for report in validation_report.selections.values():
            deltas = list(report.deltas.values())
            assert min(deltas) == 0.0
            assert all(delta >= 0 for delta in deltas)
            assert report.deltas[report.best] == 0.0

    def test_tail_start_that_rounds_to_zero_over_zero(self):
        # Beside 2^62 ones the float tail count rounds to 0, so the start of
        # the certificates' tail geometric is 0/0: it starts at -1, as any
        # start that is not finite, without a RuntimeWarning (an error
        # under the suite's filter).
        report = select(DistanceSample({1: 2 ** 62, 2: 3, 5: 1}))
        assert report.best is Model.ZETA_TRUNC

    def test_selection_pure_function_of_multiset(self):
        values = {1: 50, 2: 22, 3: 9, 5: 3, 9: 1}
        forward = DistanceSample(dict(sorted(values.items())))
        backward = DistanceSample(dict(sorted(values.items(), reverse=True)))
        r1 = select(forward, est.FIXED_ENSEMBLE, criterion="aic")
        r2 = select(backward, est.FIXED_ENSEMBLE, criterion="aic")
        assert r1.best is r2.best
        assert r1.criterion_value(r1.best) \
            == pytest.approx(r2.criterion_value(r2.best), rel=1e-12)

    def test_ensemble_order_does_not_matter(self, validation_report):
        for generator, forward in validation_report.selections.items():
            sample = validation_report.suite[generator]
            backward = select(sample, est.FIXED_ENSEMBLE[::-1],
                              criterion=forward.criterion)
            assert list(backward.fits) == est.FIXED_ENSEMBLE[::-1]
            assert backward.best is forward.best, generator
            assert backward.fits == forward.fits, generator

    def test_degenerate_normalizer_does_not_stop_selection(self):
        # The optimizer probes zeta-geometric parameters whose normalizer
        # c2 underflows to 0; they are rejected instead of raising.
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        report = select(sample, est.FIXED_ENSEMBLE, "aic")
        assert report.best is not None
        assert not report.fits[Model.ZETA_GEOMETRIC_TRUNC].excluded

    def test_all_excluded_yields_no_best(self):
        sample = DistanceSample({1: 9, 2: 1})
        report = select(sample, [Model.TWO_REGIME_GEOMETRIC], "aic")
        assert report.best is None
        assert report.deltas == {}

    def test_random_word_order_selects_the_nulls(self, validation_report):
        # Shuffled word order is exactly the triangular null: the bounded
        # variant must win at a fixed length and the length mixture on
        # pooled lengths, both under AIC.  The sample picks its null: a
        # pooled sample carries its per-length samples and is fitted with
        # the length mixture, fixed-length and artificial samples with the
        # bounded null.
        from conftest import random_tree
        from depdist.treebank import build_samples

        rng = np.random.default_rng(2026)
        fixed = build_samples([random_tree(8, rng) for _ in range(300)])
        report = select(fixed.by_length[8], criterion="aic")
        assert report.best is Model.NULL_FIXED
        assert list(report.fits) == est.FIXED_ENSEMBLE

        mixed = build_samples([random_tree(int(n), rng)
                               for n in rng.integers(4, 13, size=400)])
        report = select(mixed.pooled, criterion="aic")
        assert report.best is Model.NULL_MIXTURE
        assert list(report.fits) == est.MIXED_ENSEMBLE
        assert report.fits[Model.NULL_MIXTURE].params.lengths == mixed.lengths

        for artificial in validation_report.selections.values():
            assert list(artificial.fits) == est.FIXED_ENSEMBLE

    def test_shuffle_sample_two_regime_fit_decays_faster_second(
            self, validation_report):
        # On uniform-shuffle data a two-regime geometric imitates the
        # triangular shape only with a steeper second regime.
        report = validation_report.selections[Model.NULL_FIXED]
        params = report.fits[Model.TWO_REGIME_GEOMETRIC].params
        assert params.q1 < params.q2


def ranked(fits, criterion):
    """The argmin of the fits that are not excluded under (criterion, K,
    ensemble order), None if there is none (test oracle)."""
    return min([(getattr(result, criterion), model.k, model.order, model)
                for model, result in fits.items() if not result.excluded],
               default=(None,))[-1]


def counted_fits(monkeypatch):
    """Every (model, sample) that ``est.fit`` fits from now on, in order."""
    made, real = [], est.fit

    def counting(model, sample):
        made.append((model, sample))
        return real(model, sample)
    monkeypatch.setattr(est, "fit", counting)
    return made


class TestBestAcrossTheEnsemble:
    """The branch and bound across the rows of an ensemble (``est._best``):
    one-regime rows first, then the two-regime rows that their certificates
    do not rule out."""

    @pytest.mark.parametrize("criterion", ["aic", "bic"])
    @pytest.mark.parametrize("seeds, variants", [
        (range(1, 21), ()), ((), range(16))], ids=["validate", "fit-select"])
    def test_equals_the_argmin_of_every_fit(self, seeds, variants, criterion,
                                            monkeypatch):
        samples = [sample for _, sample in benchmark_samples(seeds, variants)]
        made = counted_fits(monkeypatch)
        best = est.best_all(samples, criterion)
        bounded = len(made)
        reports = select_all(samples, criterion)
        for sample, found, report in zip(samples, best, reports):
            assert list(report.fits) == est._ensemble(sample)
            assert found is report.best is ranked(report.fits, criterion)
        # select fits every row; the branch and bound fits fewer.
        assert bounded < len(made) - bounded

    @staticmethod
    def stubbed(monkeypatch, log_ls, tops):
        """A sample whose fits report ``log_ls[model]`` and whose two-regime
        rows' certificates all read ``tops[model]``; the fits made, in
        order."""
        monkeypatch.setattr(m, "certificates", lambda rows: [
            np.full(len(grid), tops.get(model, 0.0))
            for model, _, grid in rows])
        made = []

        def fake_fit(model, sample):
            made.append(model)
            return est._result(model, None, log_ls[model], sample.total, True)
        monkeypatch.setattr(est, "fit", fake_fit)
        return DistanceSample({1: 40, 2: 15, 3: 6, 5: 3, 8: 1}), made

    # AIC 162 for model 1, the best one-regime row.
    ONE_REGIME_LOG_LS = {Model.NULL_FIXED: -120.0, Model.GEOMETRIC: -80.0,
                         Model.GEOMETRIC_TRUNC: -81.0, Model.ZETA_TRUNC: -90.0}

    def test_a_row_without_a_bound_is_fitted(self, monkeypatch):
        log_ls = {**self.ONE_REGIME_LOG_LS, **dict.fromkeys(TWO_REGIME,
                                                            -100.0)}
        tops = {**dict.fromkeys(TWO_REGIME, -300.0),
                Model.ZETA_GEOMETRIC: math.inf}
        sample, made = self.stubbed(monkeypatch, log_ls, tops)
        assert est.best_all([sample]) == [Model.GEOMETRIC]
        assert made == [Model.NULL_FIXED, Model.GEOMETRIC,
                        Model.GEOMETRIC_TRUNC, Model.ZETA_TRUNC,
                        Model.ZETA_GEOMETRIC]

    def test_a_bound_within_the_margin_is_fitted(self, monkeypatch):
        # Model 3 (K = 3) ties model 1's AIC at log L = -78.  Its certificate
        # sits half the scan's margin below that, and its search ends a
        # rounding error above the certificate, as a search may: it wins.
        need = -78.0
        top = need - 0.5 * est.PRUNE_MARGIN * (1.0 + abs(need))
        log_ls = {**self.ONE_REGIME_LOG_LS, **dict.fromkeys(TWO_REGIME,
                                                            -100.0),
                  Model.TWO_REGIME_GEOMETRIC: need + 1e-8}
        tops = {**dict.fromkeys(TWO_REGIME, -300.0),
                Model.TWO_REGIME_GEOMETRIC: top}
        sample, made = self.stubbed(monkeypatch, log_ls, tops)
        assert 6.0 - 2.0 * top > 162.0     # unwidened, the row is ruled out
        assert est.best_all([sample]) == [Model.TWO_REGIME_GEOMETRIC]
        assert made[4:] == [Model.TWO_REGIME_GEOMETRIC]
        made.clear()
        report = select(sample)
        assert report.best is Model.TWO_REGIME_GEOMETRIC
        assert report.best is ranked(report.fits, "aic")
        # select fits the rows that the bound ruled out after the others.
        assert made[5:] == [Model.TWO_REGIME_GEOMETRIC_TRUNC,
                            Model.ZETA_GEOMETRIC, Model.ZETA_GEOMETRIC_TRUNC]

    def test_ties_go_to_fewer_parameters_then_the_lower_id(self,
                                                           monkeypatch):
        # Every row but the null at AIC 162, each certificate at its fit:
        # a bound that ties the best is fitted.
        log_ls = {Model.NULL_FIXED: -120.0, Model.GEOMETRIC: -80.0,
                  Model.GEOMETRIC_TRUNC: -79.0, Model.ZETA_TRUNC: -79.0,
                  Model.TWO_REGIME_GEOMETRIC: -78.0,
                  Model.ZETA_GEOMETRIC: -78.0,
                  Model.TWO_REGIME_GEOMETRIC_TRUNC: -77.0,
                  Model.ZETA_GEOMETRIC_TRUNC: -77.0}
        for worse, best in [(None, Model.GEOMETRIC),
                            (Model.GEOMETRIC, Model.GEOMETRIC_TRUNC),
                            (Model.GEOMETRIC_TRUNC, Model.ZETA_TRUNC),
                            (Model.ZETA_TRUNC, Model.TWO_REGIME_GEOMETRIC)]:
            if worse is not None:
                log_ls[worse] -= 1.0
            sample, _ = self.stubbed(monkeypatch, log_ls, log_ls)
            report = select(sample)
            assert est.best_all([sample]) == [report.best] == [best]
            assert ranked(report.fits, "aic") is best
            assert select(sample, est.FIXED_ENSEMBLE[::-1]).best is best

    # Two-regime rows that are not excluded, and at most how many of them
    # best_all fits under AIC and BIC, on the benchmark's omega input.
    OMEGA_FITS = {1: (48, 5, 0), 2: (52, 10, 1), 3: (52, 6, 0)}

    @pytest.mark.parametrize("seed", sorted(OMEGA_FITS))
    def test_fits_few_rows_on_the_omega_input(self, seed, monkeypatch):
        rows, *most = self.OMEGA_FITS[seed]
        made = counted_fits(monkeypatch)
        for criterion, at_most in zip(("aic", "bic"), most):
            sset = build_samples(omega_treebank(seed))
            samples = [sample for n, sample in sset.by_length.items()
                       if n >= est.DEFAULT_MIN_LENGTH]
            made.clear()
            reports = select_all(samples, criterion)
            searched = {(model, id(sample)) for model, sample in made
                        if model.is_two_regime}
            assert sum(not fit_result.excluded
                       for report in reports for model, fit_result
                       in report.fits.items() if model.is_two_regime) == rows
            made.clear()
            assert est.best_all(samples, criterion) == [
                report.best for report in reports]
            fitted = {(model, id(sample)) for model, sample in made
                      if model.is_two_regime
                      and sample.distinct >= est.DEFAULT_MIN_DISTINCT}
            assert fitted <= searched and len(fitted) <= at_most


def _stub_report(best: Model) -> SelectionReport:
    result = FitResult(
        model=best, params=None, log_l=-1.0, k=best.k, aic=2.0, bic=2.0,
        converged=True, sample_size=10,
    )
    return SelectionReport("aic", {best: result}, best, {best: 0.0})


class TestThresholdScan:
    def test_threshold_one_is_unfiltered_mode(self):
        reports = {
            5: _stub_report(Model.TWO_REGIME_GEOMETRIC),
            6: _stub_report(Model.TWO_REGIME_GEOMETRIC_TRUNC),
            7: _stub_report(Model.ZETA_TRUNC),
        }
        counts = {5: 10, 6: 1, 7: 3}
        scan = threshold_scan(reports, counts, [1, 2])
        assert scan[1] == "3-4"   # two votes 3-4, one vote 5
        assert scan[2] == "5"     # n=6 dropped; 3-4 and 5 tie, 5 wins

    def test_singleton(self):
        scan = threshold_scan({9: _stub_report(Model.TWO_REGIME_GEOMETRIC)},
                              {9: 4}, [1])
        assert scan[1] == "3-4"

    def test_tie_favors_non_two_regime(self):
        reports = {
            5: _stub_report(Model.ZETA_TRUNC),
            6: _stub_report(Model.ZETA_GEOMETRIC),
        }
        scan = threshold_scan(reports, {5: 2, 6: 2}, [1])
        assert scan[1] == "5"

    def test_all_filtered(self):
        scan = threshold_scan({4: _stub_report(Model.GEOMETRIC)}, {4: 2},
                              [5])
        assert scan[5] is None


class TestSlopeAnalysis:
    def test_slope_value(self):
        assert est.geometric_log_slope(0.5) == pytest.approx(math.log(0.5))

    def test_two_regime_direct(self, validation_report):
        report = validation_report.selections[Model.TWO_REGIME_GEOMETRIC]
        sample = validation_report.suite[Model.TWO_REGIME_GEOMETRIC]
        fit_result = report.fits[Model.TWO_REGIME_GEOMETRIC]
        slopes = slope_analysis(fit_result, sample)
        assert slopes.q1 == fit_result.params.q1
        assert slopes.q2 == fit_result.params.q2
        assert slopes.ratio == pytest.approx(slopes.q1 / slopes.q2)
        assert slopes.ratio > 1
        assert slopes.slope1 == pytest.approx(math.log1p(-slopes.q1))

    def test_zeta_geometric_refit_approximation(self, validation_report):
        report = validation_report.selections[Model.ZETA_GEOMETRIC]
        sample = validation_report.suite[Model.ZETA_GEOMETRIC]
        fit_zg = report.fits[Model.ZETA_GEOMETRIC]
        slopes = slope_analysis(fit_zg, sample)
        # Second slope is the fitted geometric tail rate.
        assert slopes.q2 == fit_zg.params.q
        # First slope approximates the power-law regime by the two-regime
        # geometric refit at the same break; the restricted two-regime fit
        # on the same data must land in the same place.
        restricted, _, _ = est._optimize(
            Model.TWO_REGIME_GEOMETRIC, sample, fit_zg.params.break_point
        )
        assert slopes.q1 == pytest.approx(restricted.q1, abs=0.05)
        assert slopes.q1 > slopes.q2

    def test_rejects_one_regime_models(self):
        sample = DistanceSample({1: 5, 2: 3, 3: 1})
        result = fit(Model.GEOMETRIC, sample)
        with pytest.raises(ValueError):
            slope_analysis(result, sample)
