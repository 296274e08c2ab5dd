import math
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest

import depdist.models as m
from conftest import random_tree
from depdist.estimation import fit
from depdist.models import Model
from depdist.sampling import generate_validation_suite
from depdist.treebank import (
    DepTree,
    DistanceSample,
    LengthDistribution,
    build_samples,
)
from oracles import goodness_of_fit, run_moments


def shuffle_distance_counts(n):
    """Oracle for the uniform-shuffle null: enumerate position pairs."""
    counts = {}
    for a, b in combinations(range(1, n + 1), 2):
        counts[b - a] = counts.get(b - a, 0) + 1
    total = sum(counts.values())
    return {d: c / total for d, c in counts.items()}


def direct_log_likelihood(model, params, sample):
    """Test oracle: plain sum of f(d) log p(d) over the observed support."""
    terms = []
    for d in sorted(sample.freq):
        lp = m.log_pmf(model, params, d)
        if lp == float("-inf") or lp < m.LOG_TERM_FLOOR:
            return float("-inf")
        terms.append(sample.freq[d] * lp)
    return math.fsum(terms)


class TestParameterCounts:
    def test_k(self):
        expected = {"0.0": 1, "0.1": 0, "1": 1, "2": 2, "3": 3, "4": 4,
                    "5": 2, "6": 3, "7": 4}
        assert {model.id: model.k for model in Model} == expected


class TestModelMembers:
    def test_order_is_the_spec_tables(self):
        assert list(m.SPECS) == list(Model)
        assert [model.order for model in m.SPECS] == list(range(len(Model)))

    def test_hash_is_objects(self):
        # Members key every memo and fits dict: the C-level identity hash.
        assert Model.__hash__ is object.__hash__
        assert len({model: None for model in Model}) == len(Model)


class TestPmf:
    def test_geometric_head(self):
        assert m.pmf(Model.GEOMETRIC, m.GeometricParams(0.2), 1) \
            == pytest.approx(0.2, abs=1e-15)

    def test_shuffle_null_vs_enumeration(self):
        # n = 4 words: all C(4,2) = 6 unordered position pairs.
        oracle = shuffle_distance_counts(4)
        params = m.NullParams(3)
        for d, p in oracle.items():
            assert m.pmf(Model.NULL_FIXED, params, d) == pytest.approx(p)
        assert oracle[1] == 0.5
        assert oracle[3] == pytest.approx(1 / 6)

    def test_two_regime_worked_case(self):
        c1, c2, tau = m.two_regime_geometric_constants(0.5, 0.1, 4)
        assert c1 == pytest.approx(1 / 3, rel=1e-12)
        params = m.TwoRegimeGeometricParams(0.5, 0.1, 4)
        assert m.pmf(Model.TWO_REGIME_GEOMETRIC, params, 4) \
            == pytest.approx(1 / 24, rel=1e-12)
        # Continuity: the second branch at the break matches the first.
        second = c2 * (1 - 0.1) ** 3
        assert second == pytest.approx(1 / 24, rel=1e-12)

    def test_mixture_null(self):
        lengths = LengthDistribution({3: 2 / 3, 4: 1 / 3})
        params = m.MixtureNullParams(lengths)
        # p(d) = sum_n p(d|n) w(n) with the n = 4 class extending to d = 3;
        # w(n) is the share of dependencies: 2/3 * 2 against 1/3 * 3.
        oracle3 = shuffle_distance_counts(3)
        oracle4 = shuffle_distance_counts(4)
        expected1 = 4 / 7 * oracle3[1] + 3 / 7 * oracle4[1]
        expected3 = 3 / 7 * oracle4[3]
        assert m.pmf(Model.NULL_MIXTURE, params, 1) \
            == pytest.approx(expected1)
        assert m.pmf(Model.NULL_MIXTURE, params, 3) \
            == pytest.approx(expected3)
        assert m.pmf(Model.NULL_MIXTURE, params, 9) == 0.0

    def test_mixture_null_matches_shuffled_corpus(self):
        # Oracle: shuffling the words of each sentence draws every distance
        # from the triangular null of its sentence's length, so the pooled
        # distances weigh each length by its dependencies.  With 50 three-
        # and 50 nine-word sentences, p(1) = (100 * 2/3 + 400 * 2/9) / 500
        # = 14/45 = 0.3111, where weighing by sentences would give 4/9.
        rng = np.random.default_rng(2026)
        corpus = [random_tree(n, rng) for n in [3] * 50 + [9] * 50]
        shuffled = []
        for tree in corpus * 20:
            position = rng.permutation(tree.n) + 1
            heads = [0] * tree.n
            for token, head in enumerate(tree.heads):
                heads[position[token] - 1] = int(position[head - 1]) \
                    if head else 0
            shuffled.append(DepTree(tuple(heads)))
        pooled = build_samples(shuffled).pooled
        params = fit(Model.NULL_MIXTURE, pooled).params
        assert m.pmf(Model.NULL_MIXTURE, params, 1) \
            == pytest.approx(14 / 45, rel=1e-12)
        _, p_value, dof = goodness_of_fit(pooled, Model.NULL_MIXTURE, params)
        assert dof >= 5 and p_value > 0.01

    def test_mixture_null_bound(self):
        # The longest sentence, n = 4, allows distances up to 3.
        params = m.MixtureNullParams(LengthDistribution({3: 0.5, 4: 0.5}))
        assert m.support_upper(Model.NULL_MIXTURE, params) == 3
        assert m.support_upper(Model.NULL_FIXED, m.NullParams(3)) == 3
        assert m.support_upper(Model.GEOMETRIC, m.GeometricParams(0.2)) \
            is None

    def test_zero_outside_support(self):
        assert m.pmf(Model.GEOMETRIC_TRUNC,
                     m.TruncatedGeometricParams(0.3, 5), 6) == 0.0
        assert m.pmf(Model.ZETA_TRUNC, m.ZetaParams(1.5, 7), 8) == 0.0
        assert m.log_pmf(Model.NULL_FIXED, m.NullParams(3), 4) \
            == float("-inf")

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            m.pmf(Model.GEOMETRIC, m.GeometricParams(0.2), 0)
        with pytest.raises(ValueError):
            m.pmf(Model.GEOMETRIC, m.GeometricParams(0.2), 1.5)

    def test_vectorized(self):
        params = m.ZetaGeometricParams(1.6, 0.2, 4)
        d = np.arange(1, 11)
        vec = m.pmf(Model.ZETA_GEOMETRIC, params, d)
        assert vec.shape == (10,)
        for i, dd in enumerate(d):
            assert vec[i] == m.pmf(Model.ZETA_GEOMETRIC, params, int(dd))


class TestParamValidation:
    def test_q_domain(self):
        with pytest.raises(ValueError):
            m.GeometricParams(0.0)
        with pytest.raises(ValueError):
            m.GeometricParams(1.0)
        m.GeometricParams(m.EPS)  # bounds themselves are admissible
        m.GeometricParams(1 - m.EPS)

    def test_break_below_truncation(self):
        with pytest.raises(ValueError):
            m.TruncatedTwoRegimeGeometricParams(0.5, 0.1, 7, 5)
        with pytest.raises(ValueError):
            m.TruncatedZetaGeometricParams(1.5, 0.1, 7, 5)

    def test_gamma_domain(self):
        with pytest.raises(ValueError):
            m.ZetaParams(-0.5, 10)
        m.ZetaParams(0.0, 10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_rejected(self, value):
        # gamma has no finite upper end, so only the finiteness test
        # rejects nan and +inf there.
        for params in (
            lambda v: m.ZetaParams(v, 10),
            lambda v: m.ZetaGeometricParams(v, 0.2, 3),
            lambda v: m.TruncatedZetaGeometricParams(v, 0.2, 3, 10),
            lambda v: m.GeometricParams(v),
            lambda v: m.TruncatedGeometricParams(v, 10),
            lambda v: m.TwoRegimeGeometricParams(v, 0.2, 3),
            lambda v: m.TwoRegimeGeometricParams(0.2, v, 3),
            lambda v: m.ZetaGeometricParams(1.5, v, 3),
        ):
            with pytest.raises(ValueError, match="finite"):
                params(value)
        m.ZetaParams(1e300, 10)  # any finite gamma >= 0 is admissible


class TestNormalizers:
    def test_equal_rates_collapse_to_geometric(self):
        c1, c2, tau = m.two_regime_geometric_constants(0.3, 0.3, 6)
        assert tau == pytest.approx(1.0)
        assert c1 == pytest.approx(0.3, rel=1e-12)
        assert c2 == pytest.approx(0.3, rel=1e-12)

    def test_untruncated_worked_case(self):
        c1, _, _ = m.two_regime_geometric_constants(0.5, 0.1, 4)
        # 0.05 / (0.1 + 0.125 * 0.4)
        assert c1 == pytest.approx(0.05 / (0.1 + 0.125 * 0.4), rel=1e-12)

    def test_truncated_vs_direct_summation(self):
        q1, q2, bp, d_max = 0.5, 0.1, 4, 19
        c1, c2, tau = m.two_regime_geometric_constants(q1, q2, bp, d_max)
        numerators = [
            (1 - q1) ** (d - 1) if d <= bp else tau * (1 - q2) ** (d - 1)
            for d in range(1, d_max + 1)
        ]
        assert c1 == pytest.approx(1 / math.fsum(numerators), rel=1e-12)

    def test_zeta_geometric_point_first_regime(self):
        # gamma = 0 and break 1: the power regime is the single point d = 1.
        c1, c2, tau = m.zeta_geometric_constants(0.0, 0.25, 1)
        total = c1 + math.fsum(
            c2 * 0.75 ** (d - 1) for d in range(2, 4000)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zeta_geometric_untruncated_vs_tail_sum(self):
        gamma, q, bp = 1.6, 0.2, 4
        c1, c2, tau = m.zeta_geometric_constants(gamma, q, bp)
        closed = q / (q * m.harmonic(bp, gamma) + bp ** -gamma * (1 - q))
        assert c1 == pytest.approx(closed, rel=1e-12)
        head = math.fsum(
            c1 * d ** -gamma if d <= bp else c2 * (1 - q) ** (d - 1)
            for d in range(1, 10**6)
        )
        tail = c2 * (1 - q) ** (10**6 - 1) / q
        assert head + tail == pytest.approx(1.0, abs=1e-9)

    def test_zeta_geometric_truncated_vs_direct(self):
        gamma, q, bp, d_max = 1.6, 0.2, 4, 19
        c1, c2, tau = m.zeta_geometric_constants(gamma, q, bp, d_max)
        direct = math.fsum(
            d ** -gamma if d <= bp else tau * (1 - q) ** (d - 1)
            for d in range(1, d_max + 1)
        )
        assert c1 == pytest.approx(1 / direct, rel=1e-12)

    def test_c2_is_tau_c1_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            q1, q2 = rng.uniform(0.05, 0.9, size=2)
            bp = int(rng.integers(1, 15))
            c1, c2, tau = m.two_regime_geometric_constants(q1, q2, bp)
            assert c2 == tau * c1
            gamma = rng.uniform(0.0, 3.0)
            c1, c2, tau = m.zeta_geometric_constants(gamma, q2, bp)
            assert c2 == tau * c1


class TestHarmonic:
    def test_unit_order(self):
        assert m.harmonic(2, 1.0) == pytest.approx(1.5)

    def test_order_zero_counts_terms(self):
        assert m.harmonic(5, 0.0) == 5.0

    def test_vs_descending_fsum(self):
        expected = math.fsum(k ** -1.6 for k in range(19, 0, -1))
        assert m.harmonic(19, 1.6) == pytest.approx(expected, abs=1e-12)

    def test_rejects_zero_terms(self):
        with pytest.raises(ValueError):
            m.harmonic(0, 1.0)


class TestLogLikelihood:
    def test_single_observation(self):
        sample = DistanceSample({1: 1})
        assert m.log_likelihood(Model.GEOMETRIC, m.GeometricParams(0.2),
                                sample) == pytest.approx(math.log(0.2))

    def test_compact_form_worked_case(self):
        sample = DistanceSample({1: 2, 3: 1})
        expected = 3 * math.log(0.2) + 2 * math.log(0.8)
        assert m.log_likelihood(Model.GEOMETRIC, m.GeometricParams(0.2),
                                sample) == pytest.approx(expected, rel=1e-12)

    def test_all_models_match_direct_sum(self):
        rng = np.random.default_rng(123)
        values = rng.integers(1, 20, size=400)
        sample = DistanceSample.from_values(values)
        d_max = sample.max_d
        cases = [
            (Model.NULL_FIXED, m.NullParams(d_max)),
            (Model.GEOMETRIC, m.GeometricParams(0.23)),
            (Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(0.23, d_max)),
            (Model.TWO_REGIME_GEOMETRIC,
             m.TwoRegimeGeometricParams(0.5, 0.12, 5)),
            (Model.TWO_REGIME_GEOMETRIC_TRUNC,
             m.TruncatedTwoRegimeGeometricParams(0.5, 0.12, 5, d_max)),
            (Model.ZETA_TRUNC, m.ZetaParams(1.4, d_max)),
            (Model.ZETA_GEOMETRIC, m.ZetaGeometricParams(1.4, 0.2, 5)),
            (Model.ZETA_GEOMETRIC_TRUNC,
             m.TruncatedZetaGeometricParams(1.4, 0.2, 5, d_max)),
        ]
        for model, params in cases:
            compact = m.log_likelihood(model, params, sample)
            direct = direct_log_likelihood(model, params, sample)
            assert compact == pytest.approx(direct, rel=1e-10), model

    def test_mixture_null_per_length_form(self):
        by_length = {
            3: DistanceSample({1: 3, 2: 1}, length_class=3),
            5: DistanceSample({1: 4, 2: 2, 4: 1}, length_class=5),
        }
        pooled = DistanceSample({1: 7, 2: 3, 4: 1}, by_length=by_length)
        lengths = LengthDistribution({3: 0.5, 5: 0.5})
        params = m.MixtureNullParams(lengths)
        value = m.log_likelihood(Model.NULL_MIXTURE, params, pooled)
        expected = math.fsum(
            count * math.log(2 * (n - d) / (n * (n - 1)))
            for n, sample in by_length.items()
            for d, count in sample.freq.items()
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_support_violation_sentinel(self):
        sample = DistanceSample({1: 5, 12: 1})
        assert m.log_likelihood(
            Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(0.3, 9), sample
        ) == float("-inf")

    def test_underflow_sentinel(self):
        # At q near its upper bound a 41-step geometric term drops past the
        # double floor; the likelihood becomes the rejection sentinel.
        sample = DistanceSample({1: 5, 42: 1})
        params = m.GeometricParams(1 - m.EPS)
        assert m.log_likelihood(Model.GEOMETRIC, params, sample) \
            == float("-inf")


class TestSufficientStats:
    """The statistics the rows read from the sample."""

    def test_plain(self):
        sample = DistanceSample({1: 2, 3: 1})
        assert (sample.total, sample.weighted_sum) == (3, 5)
        assert sample.log_weighted_sum == pytest.approx(math.log(3))

    def test_restricted(self):
        n_star, m_star, mlog_star = DistanceSample({1: 2, 3: 1}).stats_upto(2)
        assert (n_star, m_star) == (2, 2)
        assert mlog_star == 0.0

    def test_slack_sums(self):
        # The 0.0 row: N log(2 / (d_max (d_max + 1))) plus the slack sum
        # sum f(d) log(d_max + 1 - d) = log 3 + log 2.
        log_l = m.log_likelihood(Model.NULL_FIXED, m.NullParams(3),
                                 DistanceSample({1: 1, 2: 1}))
        assert log_l - 2 * math.log(2 / 12) \
            == pytest.approx(math.log(3) + math.log(2))


def random_params(model, sample, rng):
    """Valid parameters of ``model``: rates from the middle and from both
    ends of their box, exponents small and large, any break point."""
    def rate():
        return float(rng.choice([rng.uniform(0.01, 0.99),
                                 10 ** -rng.uniform(2, 8),
                                 1 - 10 ** -rng.uniform(2, 8)]))
    values = {"q": rate(), "q1": rate(), "q2": rate(),
              "gamma": float(rng.choice([rng.uniform(0, 4),
                                         rng.uniform(50, 400)])),
              "break_point": int(rng.integers(1, sample.max_d + 1)),
              "d_max": sample.max_d + int(rng.integers(0, 4))}
    spec = model.spec
    return spec.params(*(values[name] for name in spec.fields))


class TestRowsFromStatistics:
    """Each row's log-likelihood from precomputed statistics against the
    direct sum of f(d) log p(d) over the observed support."""

    MODELS = [model for model in Model if model is not Model.NULL_MIXTURE]

    def test_random_parameters_match_direct_sum(self):
        rng = np.random.default_rng(2024)
        rejected = accepted = 0
        for _ in range(40):
            sample = DistanceSample.from_values(
                rng.geometric(rng.uniform(0.1, 0.6), size=300))
            for model in self.MODELS:
                params = random_params(model, sample, rng)
                row = model.spec.bind(
                    sample, getattr(params, "break_point", None),
                    getattr(params, "d_max", None))(
                        *model.spec.values(params))
                top = m.log_pmf(model, params, sample.max_d)
                case = (model, params)
                if top < m.LOG_TERM_FLOOR:
                    assert row == float("-inf"), case
                    rejected += 1
                else:
                    direct = direct_log_likelihood(model, params, sample)
                    assert row == pytest.approx(direct, rel=1e-12), case
                    accepted += 1
        assert rejected > 10 and accepted > 250

    @pytest.mark.parametrize("model, params", [
        (Model.GEOMETRIC, m.GeometricParams(1 - 1e-8)),
        (Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(1 - 1e-8, 60)),
        (Model.ZETA_TRUNC, m.ZetaParams(200.0, 60)),
        (Model.TWO_REGIME_GEOMETRIC,
         m.TwoRegimeGeometricParams(0.5, 1 - 1e-8, 3)),
        (Model.TWO_REGIME_GEOMETRIC_TRUNC,
         m.TruncatedTwoRegimeGeometricParams(0.5, 1 - 1e-8, 3, 60)),
        (Model.ZETA_GEOMETRIC, m.ZetaGeometricParams(1.5, 1 - 1e-8, 3)),
        (Model.ZETA_GEOMETRIC_TRUNC,
         m.TruncatedZetaGeometricParams(1.5, 1 - 1e-8, 3, 60)),
    ])
    def test_term_at_max_d_below_floor_is_rejected(self, model, params):
        sample = DistanceSample({1: 5, 2: 3, 60: 1})
        assert m.log_pmf(model, params, 60) < m.LOG_TERM_FLOOR
        # Every other term is representable: only the one at max d decides.
        assert m.log_pmf(model, params, 2) > m.LOG_TERM_FLOOR
        assert model.spec.bind(
            sample, getattr(params, "break_point", None),
            getattr(params, "d_max", None))(
                *model.spec.values(params)) == float("-inf")
        assert m.log_likelihood(model, params, sample) == float("-inf")


def summed_log_pmf(model, params, sample):
    """Oracle: f(d) log p(d) summed over the observed support, -inf when a
    term is -inf or below the floor (``direct_log_likelihood`` on arrays)."""
    lp = m.log_pmf(model, params, sample.support)
    if np.any(lp < m.LOG_TERM_FLOOR):
        return float("-inf")
    return math.fsum(sample.counts * lp)


def rejection_kind(model, params):
    """Why a double cannot hold the two-regime normalizers, or None."""
    constants = (m.two_regime_geometric_constants if model.family == "3-4"
                 else m.zeta_geometric_constants)
    try:
        c1, c2, _ = constants(*m.SPECS[model].values(params),
                              params.break_point, getattr(params, "d_max",
                                                          None))
    except OverflowError:
        return "tau overflows"
    return "c underflows" if c1 == 0.0 or c2 == 0.0 else None


class TestBoundObjective:
    """The bound log-likelihood at every break point up to max d of small
    and large samples, on a grid reaching the ends of the parameter box,
    against the direct sum over the observed support."""

    Q_GRID = (m.EPS, 1e-3, 0.1, 0.5, 0.9, 1 - m.EPS)
    GAMMA_GRID = (0.0, 0.7, 1.6, 5.0, 200.0)

    def test_every_break_point_matches_direct_sum(self):
        samples = [DistanceSample({2: 4, 5: 4, 8: 1, 9: 2}),
                   *generate_validation_suite(1).values()]
        seen = Counter()
        for sample in samples:
            for model in Model:
                spec = model.spec
                if not spec.continuous:
                    continue
                d_max = sample.max_d if model.is_truncated else None
                # Beyond the fits' grid too: at break point max d, max d
                # sits in the first regime.
                grid = (range(1, sample.max_d + 1) if model.is_two_regime
                        else [None])
                values = [self.GAMMA_GRID if name == "gamma" else self.Q_GRID
                          for name in spec.continuous]
                for bp in grid:
                    log_l = spec.bind(sample, bp, d_max)
                    # The integer fields end every parameter class.
                    integers = [value for name, value in (
                        ("break_point", bp), ("d_max", sample.max_d))
                        if name in spec.fields]
                    for x in product(*values):
                        params = spec.params(*x, *integers)
                        direct = summed_log_pmf(model, params, sample)
                        case = (model, bp, x)
                        if direct == float("-inf"):
                            assert log_l(*x) == direct, case
                            kind = (rejection_kind(model, params)
                                    if model.is_two_regime else None)
                            seen[kind or "term below floor"] += 1
                        else:
                            assert log_l(*x) == pytest.approx(
                                direct, rel=1e-12), case
                            seen["accepted"] += 1
        assert min(seen.values()) > 100 and len(seen) == 4, seen


class TestDistributionInvariants:
    def test_truncated_models_normalize(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            d_max = int(rng.integers(2, 40))
            bp = int(rng.integers(1, d_max + 1))
            q1, q2, q = rng.uniform(0.02, 0.95, size=3)
            gamma = rng.uniform(0.0, 3.5)
            cases = [
                (Model.NULL_FIXED, m.NullParams(d_max)),
                (Model.GEOMETRIC_TRUNC,
                 m.TruncatedGeometricParams(q, d_max)),
                (Model.TWO_REGIME_GEOMETRIC_TRUNC,
                 m.TruncatedTwoRegimeGeometricParams(q1, q2, bp, d_max)),
                (Model.ZETA_TRUNC, m.ZetaParams(gamma, d_max)),
                (Model.ZETA_GEOMETRIC_TRUNC,
                 m.TruncatedZetaGeometricParams(gamma, q, bp, d_max)),
            ]
            for model, params in cases:
                assert abs(m.total_mass(model, params) - 1.0) < 1e-9, model

    def test_boundary_rates_normalize(self):
        # Rates at the very edge of the admissible box.
        for q in (m.EPS, 1 - m.EPS):
            assert abs(m.total_mass(Model.GEOMETRIC, m.GeometricParams(q),
                                    upto=10**4) - 1.0) < 1e-9
            assert abs(m.total_mass(
                Model.GEOMETRIC_TRUNC, m.TruncatedGeometricParams(q, 30)
            ) - 1.0) < 1e-9
        params = m.TwoRegimeGeometricParams(1 - m.EPS, m.EPS, 7)
        assert abs(m.total_mass(Model.TWO_REGIME_GEOMETRIC, params,
                                upto=10**4) - 1.0) < 1e-9

    def test_untruncated_models_normalize_with_tail(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            bp = int(rng.integers(1, 25))
            q1, q2, q = rng.uniform(0.02, 0.95, size=3)
            gamma = rng.uniform(0.0, 3.5)
            cases = [
                (Model.GEOMETRIC, m.GeometricParams(q)),
                (Model.TWO_REGIME_GEOMETRIC,
                 m.TwoRegimeGeometricParams(q1, q2, bp)),
                (Model.ZETA_GEOMETRIC,
                 m.ZetaGeometricParams(gamma, q, bp)),
            ]
            for model, params in cases:
                assert abs(m.total_mass(model, params, upto=10**4) - 1.0) \
                    < 1e-9, model

    def test_truncation_limit_recovers_untruncated(self):
        d = np.arange(1, 200)
        big = 10**6
        close = dict(rtol=0, atol=1e-9)
        assert np.allclose(
            m.pmf(Model.GEOMETRIC_TRUNC,
                  m.TruncatedGeometricParams(0.25, big), d),
            m.pmf(Model.GEOMETRIC, m.GeometricParams(0.25), d), **close)
        assert np.allclose(
            m.pmf(Model.TWO_REGIME_GEOMETRIC_TRUNC,
                  m.TruncatedTwoRegimeGeometricParams(0.5, 0.1, 4, big), d),
            m.pmf(Model.TWO_REGIME_GEOMETRIC,
                  m.TwoRegimeGeometricParams(0.5, 0.1, 4), d), **close)
        assert np.allclose(
            m.pmf(Model.ZETA_GEOMETRIC_TRUNC,
                  m.TruncatedZetaGeometricParams(1.6, 0.2, 4, big), d),
            m.pmf(Model.ZETA_GEOMETRIC,
                  m.ZetaGeometricParams(1.6, 0.2, 4), d), **close)

    def test_monotone_decay_within_regimes(self):
        rng = np.random.default_rng(12)
        d = np.arange(1, 60)
        for _ in range(30):
            q1, q2, q = rng.uniform(0.02, 0.95, size=3)
            gamma = rng.uniform(0.05, 3.0)
            bp = int(rng.integers(2, 20))
            p_two = m.pmf(Model.TWO_REGIME_GEOMETRIC,
                          m.TwoRegimeGeometricParams(q1, q2, bp), d)
            assert np.all(np.diff(p_two) < 0)
            p_zg = m.pmf(Model.ZETA_GEOMETRIC,
                         m.ZetaGeometricParams(gamma, q, bp), d)
            assert np.all(np.diff(p_zg) < 0)

    def test_geometric_log_slope_identity(self):
        # log p(d+1) - log p(d) is the decay slope, up to rounding in the
        # (d - 1) multiple.
        for q in (0.2, 0.5, 0.9):
            params = m.GeometricParams(q)
            slope = math.log1p(-q)
            for d in range(1, 40):
                diff = (m.log_pmf(Model.GEOMETRIC, params, d + 1)
                        - m.log_pmf(Model.GEOMETRIC, params, d))
                assert diff == pytest.approx(slope, rel=1e-12, abs=1e-13)

    def test_two_regime_slope_identity_within_regimes(self):
        params = m.TwoRegimeGeometricParams(0.5, 0.1, 6)
        lp = m.log_pmf(Model.TWO_REGIME_GEOMETRIC, params,
                       np.arange(1, 20))
        inner_first = np.diff(lp[:6])   # d = 1..6, inside the first regime
        inner_second = np.diff(lp[6:])  # d = 7..19
        assert np.allclose(inner_first, math.log1p(-0.5), rtol=1e-12)
        assert np.allclose(inner_second, math.log1p(-0.1), rtol=1e-12)


class TestDegenerateNormalizers:
    """Parameters inside the domain whose normalizers a double cannot hold
    (tau overflows, or c2 underflows to 0) are rejected, not raised."""

    SAMPLE = DistanceSample({d: max(1, 100 - d) for d in range(1, 61)})

    @pytest.mark.parametrize("model, params", [
        (Model.ZETA_GEOMETRIC, m.ZetaGeometricParams(0.0, 1 - 1e-8, 50)),
        (Model.ZETA_GEOMETRIC_TRUNC,
         m.TruncatedZetaGeometricParams(0.0, 1 - 1e-8, 50, 60)),
        (Model.TWO_REGIME_GEOMETRIC,
         m.TwoRegimeGeometricParams(1e-8, 1 - 1e-8, 50)),
        (Model.TWO_REGIME_GEOMETRIC_TRUNC,
         m.TruncatedTwoRegimeGeometricParams(1 - 1e-8, 1e-8, 50, 60)),
        (Model.TWO_REGIME_GEOMETRIC_TRUNC,
         m.TruncatedTwoRegimeGeometricParams(1e-8, 1 - 1e-8, 50, 60)),
    ])
    def test_log_likelihood_is_rejection_sentinel(self, model, params):
        assert m.log_likelihood(model, params, self.SAMPLE) == float("-inf")
        lp = m.log_pmf(model, params, np.arange(1, 61))
        assert np.all(lp == float("-inf"))


# Every run length from 1 to 300, and 3,000, for the closed forms.
RUN_LENGTHS = [*range(1, 301), 3000]
# The closed forms divide by 0 or overflow where their series or their
# limits take over; the certificates run them under this state.
QUIET = dict(divide="ignore", invalid="ignore", over="ignore")


def assert_run_moments(got, want, case):
    """log Z within 1e-15 (relative above 1), the mean within 1e-14 and the
    variance within 1e-12, relative."""
    (log_z, mean, var), (log_z_want, mean_want, var_want) = got, want
    for value, expected, tol, floor in ((log_z, log_z_want, 1e-15, 1.0),
                                        (mean, mean_want, 1e-14, 0.0),
                                        (var, var_want, 1e-12, 0.0)):
        scale = np.maximum(np.abs(expected), floor)
        bad = ~(np.abs(value - expected) <= tol * scale)
        assert not bad.any(), (case, value[bad][:3], expected[bad][:3])


class TestRunMoments:
    """The certificates' run moments in closed form, against the direct
    sums they replaced (``oracles.run_moments``)."""

    def test_geometric_runs(self):
        # theta across THETA_BOUNDS, geometric in |theta|, and on both
        # sides of the series region's edge |theta k| = SERIES_BELOW.
        lo, hi = m.THETA_BOUNDS
        lengths, thetas = [], []
        for k in RUN_LENGTHS:
            theta = np.concatenate([-np.geomspace(-hi, -lo, 40),
                                    -m.SERIES_BELOW / k * np.array(
                                        [0.5, 0.999, 1.001, 2.0])])
            theta = theta[(lo <= theta) & (theta <= hi)]
            lengths += [k] * len(theta)
            thetas.append(theta)
        k, theta = np.array(lengths, float), np.concatenate(thetas)
        assert (np.abs(theta * k) < m.SERIES_BELOW).sum() > 1000
        with np.errstate(**QUIET):
            got = m._geometric_runs(theta, k)
        assert_run_moments(got, run_moments(k.astype(int), False, theta),
                           "geometric")

    def test_unbounded_runs_are_the_untruncated_tail(self):
        theta = -np.geomspace(-m.THETA_BOUNDS[1], -m.THETA_BOUNDS[0], 200)
        r, a = np.exp(theta), -np.expm1(theta)
        k = np.full(len(theta), m.UNBOUNDED)
        with np.errstate(**QUIET):
            got = m._geometric_runs(theta, k)
        assert_run_moments(got, (-np.log(a), r / a, r / (a * a)), "tail")

    def test_zeta_heads(self):
        # theta across [-GAMMA_TOP, 0], with 0 and -1 (where the integral's
        # rate theta + 1 is 0); heads beyond ZETA_EXACT add Euler-Maclaurin.
        theta = np.concatenate([[0.0, -1.0, -1.0 + 1e-9],
                                -np.geomspace(1e-9, m.GAMMA_TOP, 40)])
        bs = np.repeat(RUN_LENGTHS, len(theta))
        theta = np.tile(theta, len(RUN_LENGTHS))
        assert (bs > m.ZETA_EXACT).any()
        with np.errstate(**QUIET):
            got = m._zeta_heads(bs)(theta)
        assert_run_moments(got, run_moments(bs, True, theta), "zeta")

    @pytest.mark.parametrize("terms, start", [
        (1, 3), (1, 9), (2, 5), (2, 17), (3, 9), (3, 33),
        (m.EM_TERMS, m.ZETA_EXACT + 1)])
    def test_euler_maclaurin_remainder_within_its_bound(self, terms, start):
        # With few corrections and a low start the remainder shows in
        # doubles; it stays within _em_bounds at every theta of the box
        # and every b, wherever the bound's condition holds.
        assert math.log(start) >= sum(
            1.0 / i for i in range(2, 2 * terms + 2))
        theta = np.concatenate([[0.0, -1.0], -np.geomspace(1e-6, 64.0, 60)])
        bounds = m._em_bounds(terms, start)
        for b in (start, start + 1, 2 * start, 300, 3000):
            with np.errstate(**QUIET):
                got = m._euler_maclaurin(np.full(len(theta), float(b)),
                                         start, terms)(theta)
            logs = np.log(np.arange(start, b + 1.0))
            w = np.exp(np.multiply.outer(theta, logs))
            for j, bound in enumerate(bounds):
                direct = (w * logs ** j).sum(1)
                error = np.abs(got[j] - direct)
                assert np.all(error <= bound + 1e-14 * direct), (b, j)
