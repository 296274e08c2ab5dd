import dataclasses
import logging
import math
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
    initial_values,
    select,
    slope_analysis,
    threshold_scan,
)
from depdist.models import Model
from depdist.sampling import generate_validation_suite
from depdist.treebank import DistanceSample


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
        assert initial_values(Model.GEOMETRIC, sample).q \
            == pytest.approx(0.2)

    def test_exact_log_linear_frequencies(self):
        # f(d) with exact ratio 0.8 per step: the regression slope is
        # log 0.8, so both regime inits come out at 1 - 0.8 = 0.2.
        sample = DistanceSample({1: 625, 2: 500, 3: 400, 4: 320})
        params = initial_values(Model.TWO_REGIME_GEOMETRIC, sample)
        assert params.q1 == pytest.approx(0.2, rel=1e-9)
        assert params.q2 == pytest.approx(0.2, rel=1e-9)
        assert params.break_point == 3  # init 5 clamped into [min2, max2]

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
        params = initial_values(Model.ZETA_TRUNC, sample)
        assert params.gamma == pytest.approx(expected)
        assert params.d_max == 4

    def test_gamma_degenerate_falls_back(self):
        sample = DistanceSample({3: 25})  # all distances at min(d)
        assert initial_values(Model.ZETA_TRUNC, sample).gamma == 10.0

    def test_tail_rate_uses_distances_beyond_break(self):
        sample = DistanceSample({1: 10, 4: 5, 8: 5})
        q = m._tail_q_init(sample, 4)
        assert q == pytest.approx(5 / 40)  # only d = 8 is beyond the break


def geometric_sample(q, size, seed):
    rng = np.random.default_rng(seed)
    return DistanceSample.from_values(samp.sample_geometric(q, size, rng))


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
        # The zeta start (gamma 245) and every point the search probes put
        # log p(60) below the floor: no finite log-likelihood is found.
        result = fit(Model.ZETA_TRUNC, DistanceSample({1: 1000, 60: 1}))
        assert result.log_l == -math.inf
        assert not result.converged
        _, value, converged = est._maximize(lambda *x: -math.inf, [0.5],
                                            [m.Q_BOUNDS])
        assert value == -math.inf
        assert not converged

    def test_two_regime_exclusions(self):
        thin = DistanceSample({1: 10, 2: 3})
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

    def test_truncation_bound_never_beats_observed_max(self):
        # Scanning d_max above max(d) can only lose likelihood.
        rng = np.random.default_rng(8)
        sample = DistanceSample.from_values(rng.integers(1, 12, size=300))
        d_max = sample.max_d

        def profile(model, build, x0, bounds):
            def obj(*x):
                return m.log_likelihood(model, build(x), sample)
            _, value, _ = est._maximize(obj, x0, bounds)
            return value

        for extra in range(0, 6):
            dm = d_max + extra
            ll_geo = profile(
                Model.GEOMETRIC_TRUNC,
                lambda x, dm=dm: m.TruncatedGeometricParams(float(x[0]), dm),
                [0.3], [est.Q_BOUNDS],
            )
            ll_zeta = profile(
                Model.ZETA_TRUNC,
                lambda x, dm=dm: m.ZetaParams(float(x[0]), dm),
                [1.2], [est.GAMMA_BOUNDS],
            )
            if extra == 0:
                base_geo, base_zeta = ll_geo, ll_zeta
            else:
                assert ll_geo <= base_geo + 1e-9
                assert ll_zeta <= base_zeta + 1e-9

    def test_break_scan_is_exhaustive(self):
        rng = np.random.default_rng(21)
        values = np.concatenate([
            samp.sample_geometric(0.55, 300, rng),
            4 + samp.sample_geometric(0.15, 200, rng),
        ])
        sample = DistanceSample.from_values(values)
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


def row_objective(model, sample, break_point):
    """The objective ``_optimize`` hands to ``_maximize``: the row bound to
    the sample's statistics at the break point."""
    stats = m.sufficient_stats(sample, break_point)
    d_max = sample.max_d if model.is_truncated else None
    return model.spec.bind(stats, d_max)


class TestForwardDifferences:
    """The fused gradient reproduces scipy's default for L-BFGS-B, so the
    optimizer walks the same iterates as with scipy's own differences."""

    @pytest.mark.parametrize("x, bounds", [
        ([0.3, 0.05], [m.Q_BOUNDS, m.Q_BOUNDS]),
        ([1 - m.EPS, 0.2], [m.Q_BOUNDS, m.Q_BOUNDS]),     # step turns back
        ([m.EPS, 1 - m.EPS], [m.Q_BOUNDS, m.Q_BOUNDS]),
        ([2e8, 0.4], [m.GAMMA_BOUNDS, m.Q_BOUNDS]),       # step rounds to 0
        ([0.0, 1 - m.EPS], [m.GAMMA_BOUNDS, m.Q_BOUNDS]),
        ([3.7e9], [m.GAMMA_BOUNDS]),
        ([-2e9, 5.0], [(None, None), (None, None)]),
    ])
    def test_matches_scipy_step_for_step(self, x, bounds):
        def f(v):
            return math.sin(3.0 * v[0]) * math.exp(-v[-1]) + v[0] * v[-1]
        lows = [lo if lo is not None else -np.inf for lo, _ in bounds]
        highs = [hi if hi is not None else np.inf for _, hi in bounds]
        # The fused kernel minimizes -log_l, so log_l = -f gives back f.
        f0, ours = est._fused(lambda *v: -f(v), bounds)(x)
        assert f0 == f(x)
        theirs = approx_derivative(lambda v: f(v.tolist()), np.array(x),
                                   method="2-point", abs_step=1e-8,
                                   bounds=(lows, highs), f0=f0)
        assert np.array_equal(np.array(ours), theirs)

    @pytest.mark.parametrize("bounds, x, clamped", [
        ([m.GAMMA_BOUNDS, m.Q_BOUNDS], (-1.0, 1.5), (0.0, 1 - m.EPS)),
        ([m.Q_BOUNDS, m.GAMMA_BOUNDS], (0.0, 7.0), (m.EPS, 7.0)),
        ([m.Q_BOUNDS], (-0.5,), (m.EPS,)),
    ])
    def test_points_outside_the_box_are_clamped(self, bounds, x, clamped):
        seen = []

        def log_l(*v):
            seen.append(v)
            return -1.0
        f0, _ = est._fused(log_l, bounds)(list(x))
        assert f0 == 1.0
        # The value's point, then the difference points, all in the box.
        assert seen[0] == clamped
        lows, highs = est._box(bounds)
        assert all(lo <= v <= hi for point in seen
                   for v, lo, hi in zip(point, lows, highs))

    @pytest.mark.parametrize("seed", [1, 4])
    def test_maximize_bit_identical_to_scipy_default(self, seed):
        suite = generate_validation_suite(seed)
        cases = []
        for model in (Model.GEOMETRIC_TRUNC, Model.ZETA_TRUNC):
            cases.append((model, suite[model], None))
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
    """Models 1-7, the ones with continuous parameters."""
    return [model for model in Model if model.spec.continuous]


class TestLbfgsbLoop:
    """The in-package L-BFGS-B loop against ``scipy.optimize.minimize`` on the
    same function: every field the fits read, bit for bit."""

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
        assert ours.fun0 == fg(np.clip(x0, *est._box(spec.bounds))
                               .tolist())[0], case
        return ours

    @pytest.mark.parametrize("seed", [1, 4])
    def test_validation_samples(self, seed):
        suite = generate_validation_suite(seed)
        for model in optimized_models():
            sample = suite[model]
            grid = ([sample.min2_d, 4, sample.max2_d] if model.is_two_regime
                    else [None])
            for bp in grid:
                self.assert_same_as_scipy(model, sample, bp)

    def test_abnormal_stops(self):
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        messages = [
            self.assert_same_as_scipy(model, sample, bp).message
            for model in optimized_models()
            for bp in (est._break_grid(sample) if model.is_two_regime
                       else [None])]
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
            return value if rejected(x) else -(x[0] - 0.3) ** 2
        ours = est._maximize(objective, [0.95], [m.Q_BOUNDS])
        theirs = scipy_maximize(objective, [0.95], [m.Q_BOUNDS])
        assert np.array_equal(ours[0], theirs[0])
        assert np.array_equal(ours[1], theirs[1], equal_nan=True)
        assert ours[2] == theirs[2]


class TestFitCounts:
    def test_counts_on_crafted_sample(self, monkeypatch):
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        searched = [model for model in Model if model.spec.fit is None]
        calls = Counter()
        for model in searched:
            spec = model.spec

            def counted_bind(stats, d_max, model=model, bind=spec.bind):
                log_l = bind(stats, d_max)

                def counted(*x):
                    calls[model] += 1
                    return log_l(*x)
                return counted
            monkeypatch.setitem(vars(model), "spec", dataclasses.replace(
                spec, bind=counted_bind))
        report = select(sample, est.FIXED_ENSEMBLE, "aic")
        for model, result in report.fits.items():
            assert result.evaluations == calls[model], model
            assert result.break_points == (
                len(est._break_grid(sample)) if model.is_two_regime else 0)
        assert set(calls) == set(searched)

    def test_rejected_start_is_counted(self):
        # Every evaluation is counted, the rejected start's too.
        calls = []

        def objective(*x):
            calls.append(x)
            return -math.inf if x[0] > 0.9 else -(x[0] - 0.3) ** 2
        tally = Counter()
        est._maximize(objective, [0.95], [m.Q_BOUNDS], tally=tally)
        assert tally["evaluations"] == len(calls)


class TestOptimizerLog:
    def test_nonconverged_results_are_logged(self, caplog):
        # On this sample L-BFGS-B stops early at some break points.
        sample = DistanceSample({2: 4, 5: 4, 8: 1, 9: 2})
        with caplog.at_level(logging.DEBUG, logger="depdist.estimation"):
            select(sample, est.FIXED_ENSEMBLE, "aic")
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

    def test_random_word_order_selects_the_nulls(self):
        # Shuffled word order is exactly the triangular null: the bounded
        # variant must win at a fixed length and the length mixture on
        # pooled lengths, both under AIC.
        from conftest import random_tree
        from depdist.treebank import build_samples

        rng = np.random.default_rng(2026)
        fixed = build_samples([random_tree(8, rng) for _ in range(300)])
        report = select(fixed.by_length[8], est.ensemble_for("fixed"),
                        criterion="aic")
        assert report.best is Model.NULL_FIXED

        mixed = build_samples([random_tree(int(n), rng)
                               for n in rng.integers(4, 13, size=400)])
        report = select(mixed.pooled, est.ensemble_for("mixed"),
                        criterion="aic", per_length=mixed.per_length)
        assert report.best is Model.NULL_MIXTURE

    def test_shuffle_sample_two_regime_fit_decays_faster_second(
            self, validation_report):
        # On uniform-shuffle data a two-regime geometric imitates the
        # triangular shape only with a steeper second regime.
        report = validation_report.selections[Model.NULL_FIXED]
        params = report.fits[Model.TWO_REGIME_GEOMETRIC].params
        assert params.q1 < params.q2


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
