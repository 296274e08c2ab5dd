import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import depdist.models as m
import depdist.sampling as samp
from depdist.models import Model
from depdist.sampling import (
    GENERATORS,
    draw_sample,
    generate_validation_suite,
    pmf_table,
    read_sample_csv,
    write_sample_csv,
)
from depdist.treebank import DistanceSample
from oracles import _chisquare, goodness_of_fit


class FixedRng:
    """Stand-in generator feeding predetermined uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out = np.array(self.values[:size], dtype=float)
        del self.values[:size]
        return out


class TestGeometricInversion:
    """Models 1 and 2 invert their geometric law in closed form: with x the
    uniform that ``rng.random()`` returns, the least d with r^d <= x."""

    def test_inversion_formula(self):
        # ceil(log x / log(1 - q)) at q = 0.2, x = 0.5 lands on 4.
        assert math.ceil(math.log(0.5) / math.log(0.8)) == 4
        draws = draw(Model.GEOMETRIC, m.GeometricParams(0.2), FixedRng([0.5]),
                     1)
        assert draws[0] == 4

    def test_x_near_one_gives_smallest_deviate(self):
        rng = FixedRng([1.0 - 2.0**-53])  # the largest x below 1
        assert draw(Model.GEOMETRIC, m.GeometricParams(0.2), rng, 1)[0] == 1

    def test_head_probability(self):
        rng = np.random.default_rng(100)
        draws = draw(Model.GEOMETRIC, m.GeometricParams(0.2), rng, 10**5)
        p_hat = np.mean(draws == 1)
        se = math.sqrt(0.2 * 0.8 / 10**5)
        assert abs(p_hat - 0.2) <= 3 * se

    def test_truncated_respects_bound(self):
        rng = np.random.default_rng(101)
        draws = draw(Model.GEOMETRIC_TRUNC,
                     m.TruncatedGeometricParams(0.15, 6), rng, 10**4)
        assert draws.max() <= 6
        assert draws.min() >= 1

    def test_truncated_matches_law(self):
        params = m.TruncatedGeometricParams(0.2, 19)
        sample = draw_sample(Model.GEOMETRIC_TRUNC, params, 10**5, seed=102)
        _, p, _ = goodness_of_fit(sample, Model.GEOMETRIC_TRUNC, params)
        assert p > 1e-3


class TestZetaRejection:
    """Model 5 draws by rejection-inversion, on every gamma >= 0."""

    def test_truncation(self):
        rng = np.random.default_rng(103)
        draws = draw(Model.ZETA_TRUNC, m.ZetaParams(1.6, 19), rng, 10**4)
        assert draws.max() <= 19
        assert draws.min() >= 1

    def test_pointwise_agreement(self):
        rng = np.random.default_rng(104)
        n = 10**5
        params = m.ZetaParams(1.6, 19)
        draws = draw(Model.ZETA_TRUNC, params, rng, n)
        probs = pmf_table(Model.ZETA_TRUNC, params, 19)
        observed = np.bincount(draws, minlength=20)[1:] / n
        bound = 3 * np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(observed - probs) <= bound)

    @pytest.mark.parametrize("d_max", [1, 2, 5, 10**3])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 1.0 + 1e-9, 1.6, 5.0])
    def test_chi_square(self, gamma, d_max):
        params = m.ZetaParams(gamma, d_max)
        sample = draw_sample(Model.ZETA_TRUNC, params, 10**5, seed=3)
        assert sample.max_d <= d_max
        _, p, _ = goodness_of_fit(sample, Model.ZETA_TRUNC, params)
        assert p > 1e-3

    @given(st.floats(0.0, 1e6), st.integers(1, 10**12),
           st.integers(0, 2**32 - 1))
    def test_any_parameters_draw_in_support(self, gamma, d_max, seed):
        # No pmf here: the normalizer would sum d_max terms.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            draws = draw(Model.ZETA_TRUNC, m.ZetaParams(gamma, d_max),
                         np.random.default_rng(seed), 100)
        assert len(draws) == 100
        assert 1 <= draws.min() and draws.max() <= d_max


class TestNoHang:
    """Parameters that once made a sampler reject nearly every proposal:
    10^4 draws take well under 0.1 s."""

    @pytest.mark.parametrize("model, params", [
        (Model.ZETA_TRUNC, m.ZetaParams(1.0 + 1e-6, 5)),
        (Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(1e-8, 5))],
        ids=["zeta-near-one", "geometric-slow"])
    def test_draws_are_quick(self, model, params):
        start = time.perf_counter()
        sample = draw_sample(model, params, 10**4, seed=5)
        assert time.perf_counter() - start < 0.1
        assert sample.total == 10**4 and sample.max_d <= 5


class TestTabularInversion:
    def test_first_bin(self):
        params = m.NullParams(3)
        # u = 0.2 < pmf(1) = 0.5, in the table and in closed form.
        rng = FixedRng([1.0 - 0.2])
        assert full_table_draws(Model.NULL_FIXED, params, rng, 1)[0] == 1
        assert draw(Model.NULL_FIXED, params, FixedRng([1.0 - 0.2]), 1)[0] == 1

    def test_worked_cdf_case(self):
        # Shuffle null with d_max = 3 has CDF (0.5, 5/6, 1): u = 0.95 -> 3.
        params = m.NullParams(3)
        rng = FixedRng([1.0 - 0.95])
        assert full_table_draws(Model.NULL_FIXED, params, rng, 1)[0] == 3
        assert draw(Model.NULL_FIXED, params, FixedRng([1.0 - 0.95]), 1)[0] == 3

    def test_binary_search_matches_linear_scan(self):
        params = m.TwoRegimeGeometricParams(0.5, 0.1, 4)
        cdf = np.cumsum(pmf_table(Model.TWO_REGIME_GEOMETRIC, params, 200))
        rng = np.random.default_rng(105)
        us = rng.random(1000)
        via_search = np.searchsorted(cdf, us, side="left") + 1
        for u, got in zip(us, via_search):
            linear = 1
            while cdf[linear - 1] < u:
                linear += 1
            assert linear == got


#: Length of the oracle's table for a model without a bound.
FULL_TABLE = 10**6


def full_table_draws(model, params, rng, size):
    """Oracle: inversion in the cumulative table over all of d = 1..d_max,
    or 1..FULL_TABLE without a bound (a u past the table maps to its end)."""
    cdf = np.cumsum(pmf_table(model, params, FULL_TABLE))
    idx = np.searchsorted(cdf, 1.0 - rng.random(size), side="left")
    return np.minimum(idx, len(cdf) - 1) + 1


def draw(model, params, rng, size):
    """The package's draws, through the generator that the spec row names."""
    return GENERATORS[model.spec.sampler](model, params, size, rng)


class TestShortTables:
    """Draws from the short tables, the first regime 1..b of a two-regime
    row with its geometric tail inverted beyond b, the geometric rows'
    closed form (an empty head, b = 0) and the null's, equal draws from the
    full table, element for element."""

    CASES = [
        (Model.TWO_REGIME_GEOMETRIC,
         samp.REFERENCE_PARAMS[Model.TWO_REGIME_GEOMETRIC]),
        (Model.ZETA_GEOMETRIC, samp.REFERENCE_PARAMS[Model.ZETA_GEOMETRIC]),
        # Slow tails: the CDF changes up to d of about 30,000.
        (Model.TWO_REGIME_GEOMETRIC, m.TwoRegimeGeometricParams(0.5, 1e-3, 4)),
        (Model.ZETA_GEOMETRIC, m.ZetaGeometricParams(1.6, 1e-3, 4)),
        # Bounded supports.
        (Model.NULL_FIXED, samp.REFERENCE_PARAMS[Model.NULL_FIXED]),
        (Model.TWO_REGIME_GEOMETRIC_TRUNC,
         samp.REFERENCE_PARAMS[Model.TWO_REGIME_GEOMETRIC_TRUNC]),
        (Model.ZETA_GEOMETRIC_TRUNC,
         samp.REFERENCE_PARAMS[Model.ZETA_GEOMETRIC_TRUNC]),
        # The geometric rows: one run over the whole support.
        (Model.GEOMETRIC, samp.REFERENCE_PARAMS[Model.GEOMETRIC]),
        (Model.GEOMETRIC, m.GeometricParams(1e-3)),
        (Model.GEOMETRIC_TRUNC, samp.REFERENCE_PARAMS[Model.GEOMETRIC_TRUNC]),
        (Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(1e-3, 19)),
        (Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(1e-8, 5)),
    ]

    @pytest.mark.parametrize("model, params", CASES)
    def test_draws_equal_full_table(self, model, params):
        # Random uniforms, then, on two-regime rows, u at and around every
        # CDF value up to the break point, where the table hands over to
        # the tail.
        top = getattr(params, "break_point", 0)
        edges = np.cumsum(pmf_table(model, params, top))
        u = np.concatenate([
            1.0 - np.random.default_rng(7).random(10**6), edges,
            np.nextafter(edges, 0.0), np.nextafter(edges, 2.0)])
        ours = draw(model, params, FixedRng(1.0 - u), len(u))
        theirs = full_table_draws(model, params, FixedRng(1.0 - u), len(u))
        assert np.array_equal(ours, theirs)

    @pytest.mark.parametrize("model, params", CASES)
    def test_u_of_one_is_finite(self, model, params):
        (d,) = draw(model, params, FixedRng([0.0]), 1)
        bound = m.support_upper(model, params)
        assert d == bound if bound is not None \
            else getattr(params, "break_point", 0) < d
        # The largest u below 1 that the generator makes draws as far.
        assert draw(model, params, FixedRng([2.0**-53]), 1)[0] <= d


def binomial_interval(size, p):
    """Counts of a binomial(size, p) outside which a test fails."""
    from scipy.stats import binom
    return binom.interval(1 - 1e-6, size, p)


class TestExactTails:
    """Draws past d = 10^6, where the table once ended, follow the law."""

    SIZE = 10**4

    @staticmethod
    def params(model, q2):
        return (m.TwoRegimeGeometricParams(0.5, q2, 4)
                if model is Model.TWO_REGIME_GEOMETRIC
                else m.ZetaGeometricParams(1.6, q2, 4))

    @pytest.mark.parametrize("q2", [1e-6, 1e-3, 0.1])
    @pytest.mark.parametrize("model", [Model.TWO_REGIME_GEOMETRIC,
                                       Model.ZETA_GEOMETRIC])
    def test_share_beyond_a_million(self, model, q2):
        params = self.params(model, q2)
        draws = draw(model, params, np.random.default_rng(31), self.SIZE)
        # The mass beyond the geometric tail's start d = 10^6 + 1.
        beyond = m.pmf(model, params, 10**6 + 1) / m.tail_rate(params)
        lo, hi = binomial_interval(self.SIZE, beyond)
        assert lo <= (draws > 10**6).sum() <= hi
        at = binomial_interval(self.SIZE, m.pmf(model, params, 10**6))[1]
        assert (draws == 10**6).sum() <= at
        _, p, _ = goodness_of_fit(DistanceSample.from_values(draws), model,
                                  params)
        assert p > 1e-3

    @pytest.mark.parametrize("model, params", [
        (Model.NULL_FIXED, m.NullParams(2 * 10**6)),
        (Model.ZETA_TRUNC, m.ZetaParams(0.8, 2 * 10**6))],
        ids=["null", "zeta-0.8"])
    def test_bounded_support_past_a_million(self, model, params):
        draws = draw(model, params, np.random.default_rng(32), self.SIZE)
        probs = pmf_table(model, params, params.d_max)
        lo, hi = binomial_interval(self.SIZE, probs[10**6:].sum())
        assert lo <= (draws > 10**6).sum() <= hi
        assert (draws == 10**6).sum() \
            <= binomial_interval(self.SIZE, probs[10**6 - 1])[1]
        assert draws.max() <= params.d_max

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_validation_suite_is_the_oracle_inversion(self, seed):
        suite = generate_validation_suite(seed)
        streams = np.random.SeedSequence(seed).spawn(len(suite))
        for stream, model in zip(streams,
                                 sorted(suite, key=lambda model: model.order)):
            if model.spec.sampler not in ("null", "table"):
                continue
            values = full_table_draws(model, samp.REFERENCE_PARAMS[model],
                                      np.random.default_rng(stream),
                                      samp.SUITE_SIZE)
            assert DistanceSample.from_values(values).freq \
                == suite[model].freq


class TestDrawSample:
    def test_determinism(self):
        a = draw_sample(Model.GEOMETRIC, m.GeometricParams(0.2), 5000,
                        seed=42)
        b = draw_sample(Model.GEOMETRIC, m.GeometricParams(0.2), 5000,
                        seed=42)
        assert a.freq == b.freq

    def test_zeta_low_exponent_stays_in_support(self):
        sample = draw_sample(Model.ZETA_TRUNC, m.ZetaParams(0.8, 9), 2000,
                             seed=1)
        assert sample.max_d <= 9

    def test_mixture_null_has_no_sampler(self):
        from depdist.treebank import LengthDistribution
        params = m.MixtureNullParams(LengthDistribution({4: 1.0}))
        with pytest.raises(ValueError):
            draw_sample(Model.NULL_MIXTURE, params, 10, seed=0)


class TestValidationSuite:
    def test_shape(self, validation_report):
        suite = validation_report.suite
        assert len(suite) == 8
        assert all(sample.total == 10**4 for sample in suite.values())

    def test_truncated_supports(self, validation_report):
        for model in (Model.NULL_FIXED, Model.GEOMETRIC_TRUNC,
                      Model.TWO_REGIME_GEOMETRIC_TRUNC, Model.ZETA_TRUNC,
                      Model.ZETA_GEOMETRIC_TRUNC):
            assert validation_report.suite[model].max_d <= 19

    def test_determinism(self, validation_report):
        again = generate_validation_suite(seed=validation_report.seed)
        for model, sample in validation_report.suite.items():
            assert sample.freq == again[model].freq

    def test_zeta_geometric_mean_matches_analytic(self, validation_report):
        params = samp.REFERENCE_PARAMS[Model.ZETA_GEOMETRIC]
        sample = validation_report.suite[Model.ZETA_GEOMETRIC]
        # Analytic mean by direct summation with a negligible remainder.
        d = np.arange(1, 10**5 + 1, dtype=float)
        probs = np.asarray(m.pmf(Model.ZETA_GEOMETRIC, params, d))
        mean = float((d * probs).sum())
        var = float(((d - mean) ** 2 * probs).sum())
        se = math.sqrt(var / sample.total)
        assert abs(sample.mean_d - mean) <= 3 * se


class TestGoodnessOfFit:
    @pytest.mark.parametrize("model", [
        model for model in Model if model is not Model.NULL_MIXTURE
    ])
    def test_own_law_accepted(self, model):
        params = samp.REFERENCE_PARAMS[model]
        sample = draw_sample(model, params, 10**4, seed=777)
        _, p, dof = goodness_of_fit(sample, model, params)
        assert dof >= 1
        assert p > 1e-3

    def test_wrong_law_rejected(self):
        sample = draw_sample(Model.GEOMETRIC, m.GeometricParams(0.5), 10**4,
                             seed=7)
        _, p, _ = goodness_of_fit(sample, Model.GEOMETRIC,
                                  m.GeometricParams(0.2))
        assert p < 1e-6

    def test_pearson_test_matches_scipy_chisquare(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(11)
        for _ in range(2000):
            k = int(rng.integers(2, 40))
            obs = rng.integers(0, 200, size=k).astype(float)
            obs[0] += 1.0
            weights = rng.random(k) + 1e-3
            # Expected counts renormalized to the observed total, as
            # goodness_of_fit builds them.
            exp = weights * (obs.sum() / weights.sum())
            oracle = chisquare(obs, exp)
            assert _chisquare(obs, exp) \
                == (float(oracle.statistic), float(oracle.pvalue))


class TestSampleFiles:
    def test_roundtrip(self, tmp_path):
        sample = draw_sample(Model.TWO_REGIME_GEOMETRIC,
                             m.TwoRegimeGeometricParams(0.5, 0.1, 4),
                             3000, seed=5)
        path = tmp_path / "sample.csv"
        write_sample_csv(path, sample, model=Model.TWO_REGIME_GEOMETRIC,
                         params=m.TwoRegimeGeometricParams(0.5, 0.1, 4),
                         seed=5)
        loaded, meta = read_sample_csv(path)
        assert loaded.freq == sample.freq
        assert meta["model"] == "3"
        assert float(meta["q1"]) == 0.5
        assert int(meta["seed"]) == 5
        header = path.read_text().splitlines()
        assert header[0].startswith("#")
        assert "d,count" in header
