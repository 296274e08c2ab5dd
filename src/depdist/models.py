"""The eight-model ensemble for dependency distance distributions.

Support is the positive integers d = 1, 2, ...; truncated variants restrict
it to d <= d_max and renormalize.  The two-regime families decay at one rate
up to a break point and at another beyond it, with the two branches pinned to
the same value at the break.

Model ids (used in every report) and their free parameter counts K:

    0.0  uniform-shuffle null, p(d) proportional to d_max+1-d   K=1
    0.1  length-mixture null, no free parameter                 K=0
    1    geometric q(1-q)^(d-1)                                 K=1
    2    right-truncated geometric                              K=2
    3    two-regime geometric (q1, q2, break)                   K=3
    4    right-truncated two-regime geometric                   K=4
    5    right-truncated zeta d^(-gamma)/H(d_max, gamma)        K=2
    6    zeta first regime, geometric second                    K=3
    7    right-truncated zeta-geometric                         K=4

Everything specific to one model sits in its row of :data:`SPECS`; the
twins 1/2, 3/4 and 6/7 share family functions that take ``d_max: int |
None``.  The rest follows from field names: ``d_max`` makes a model
truncated, ``break_point`` two-regime, and the fields in :data:`BOUNDS` are
its continuous parameters.  The two nulls also carry their own fits, a
d_max scan and a fixed value, which return plain tuples; the optimizer in
:mod:`depdist.estimation` fits the other rows.  The length-mixture null's
likelihood is the fixed null's at d_max = n - 1, summed over lengths n.

Log-likelihoods are computed from sufficient statistics (N, M, M', their
restrictions to d <= break, and max d), never by rescanning the sample.
Each row binds its log-likelihood to the statistics once per break point,
computing there what the break point fixes; the bound function takes the
continuous values as plain floats, so an optimizer builds no parameter
object per evaluation.  :func:`log_likelihood` is the same row behind a
parameter object.  Parameters whose normalizers
overflow or underflow a double get log-likelihood -inf, the same rejection
as a term below LOG_TERM_FLOOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from typing import Callable, Mapping, Union

import numpy as np

from .treebank import DistanceSample, LengthDistribution

EPS = 1e-8  # q-like parameters live in [EPS, 1 - EPS]
NEG_INF = float("-inf")
LOG_TERM_FLOOR = -745.0  # log-probability terms below this count as -inf
GAMMA_FALLBACK = 10.0    # exponent init when the estimator degenerates

Q_BOUNDS = (EPS, 1.0 - EPS)
GAMMA_BOUNDS = (0.0, None)
#: Domain of each continuous parameter, by field name; the optimizer
#: searches the same box.
BOUNDS = {"q": Q_BOUNDS, "q1": Q_BOUNDS, "q2": Q_BOUNDS,
          "gamma": GAMMA_BOUNDS}
INTEGER_FIELDS = ("break_point", "d_max")
#: ``depdist sample`` flag of each field not named after its flag.
FLAGS = {"break_point": "dstar", "d_max": "dmax"}


class Model(Enum):
    """Member of the model ensemble; ``value`` is the report id."""

    NULL_FIXED = "0.0"
    NULL_MIXTURE = "0.1"
    GEOMETRIC = "1"
    GEOMETRIC_TRUNC = "2"
    TWO_REGIME_GEOMETRIC = "3"
    TWO_REGIME_GEOMETRIC_TRUNC = "4"
    ZETA_TRUNC = "5"
    ZETA_GEOMETRIC = "6"
    ZETA_GEOMETRIC_TRUNC = "7"

    @property
    def id(self) -> str:
        return self.value

    @cached_property
    def spec(self) -> "ModelSpec":
        return SPECS[self]

    @property
    def k(self) -> int:
        """Number of free parameters."""
        return self.spec.k

    @property
    def is_two_regime(self) -> bool:
        return "break_point" in self.spec.fields

    @property
    def is_truncated(self) -> bool:
        return "d_max" in self.spec.fields

    @property
    def family(self) -> str:
        """Model family used when aggregating best-model votes."""
        return self.spec.family

    @property
    def order(self) -> int:
        """Position in the canonical ensemble ordering (for tie-breaks)."""
        return list(SPECS).index(self)

    @classmethod
    def from_id(cls, model_id: str) -> "Model":
        try:
            return cls(model_id)
        except ValueError:
            raise ValueError(f"unknown model id {model_id!r}") from None


# ---------------------------------------------------------------------------
# Parameter containers (tagged union)
# ---------------------------------------------------------------------------

class _Checked:
    """Domain checks shared by the parameter classes, keyed by field name."""

    def __post_init__(self):
        for name in self.__dataclass_fields__:  # type: ignore[attr-defined]
            value = getattr(self, name)
            if name in INTEGER_FIELDS:
                if not (isinstance(value, (int, np.integer)) and value >= 1):
                    raise ValueError(
                        f"{name}={value!r} must be a positive integer")
                # break_point precedes d_max in every class that has both.
                if name == "d_max" and value < getattr(self, "break_point", 0):
                    raise ValueError("break_point > d_max")
            elif name in BOUNDS:
                lo, hi = BOUNDS[name]
                if hi is None:
                    if value < lo:
                        raise ValueError(f"{name}={value!r} must be >= {lo:g}")
                elif not (lo <= value <= hi):
                    raise ValueError(f"{name}={value!r} outside [{lo}, {hi}]")


@dataclass(frozen=True)
class NullParams(_Checked):
    """Uniform-shuffle null with an estimated support bound."""

    d_max: int


@dataclass(frozen=True)
class MixtureNullParams(_Checked):
    """Length-mixture null; fully determined by the length distribution."""

    lengths: LengthDistribution

    @property
    def d_max(self) -> int:
        """Support bound: the largest distance of the longest sentence."""
        return self.lengths.max_n - 1


@dataclass(frozen=True)
class GeometricParams(_Checked):
    q: float


@dataclass(frozen=True)
class TruncatedGeometricParams(_Checked):
    q: float
    d_max: int


@dataclass(frozen=True)
class TwoRegimeGeometricParams(_Checked):
    q1: float
    q2: float
    break_point: int


@dataclass(frozen=True)
class TruncatedTwoRegimeGeometricParams(_Checked):
    q1: float
    q2: float
    break_point: int
    d_max: int


@dataclass(frozen=True)
class ZetaParams(_Checked):
    gamma: float
    d_max: int


@dataclass(frozen=True)
class ZetaGeometricParams(_Checked):
    gamma: float
    q: float
    break_point: int


@dataclass(frozen=True)
class TruncatedZetaGeometricParams(_Checked):
    gamma: float
    q: float
    break_point: int
    d_max: int


ModelParams = Union[
    NullParams,
    MixtureNullParams,
    GeometricParams,
    TruncatedGeometricParams,
    TwoRegimeGeometricParams,
    TruncatedTwoRegimeGeometricParams,
    ZetaParams,
    ZetaGeometricParams,
    TruncatedZetaGeometricParams,
]


def params_dict(params: ModelParams) -> dict[str, float | int]:
    """Flat parameter mapping for reports (length mixtures summarized)."""
    if isinstance(params, MixtureNullParams):
        return {"min_n": params.lengths.min_n, "max_n": params.lengths.max_n}
    return {
        name: getattr(params, name)
        for name in params.__dataclass_fields__  # type: ignore[attr-defined]
    }


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------

def harmonic(d_max: int, gamma: float) -> float:
    """Generalized harmonic number: sum of k^(-gamma) for k = 1..d_max."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    return _power_sum(np.arange(1, d_max + 1, dtype=float), gamma)


def _power_sum(ks: np.ndarray, gamma: float) -> float:
    """Sum of k^(-gamma) over the float array ks."""
    return float(np.power(ks, -gamma).sum())


def two_regime_geometric_constants(
    q1: float, q2: float, break_point: int, d_max: int | None = None
) -> tuple[float, float, float]:
    """Normalizers (c1, c2, tau) of the two-regime geometric models.

    The first regime c1*(1-q1)^(d-1) covers d <= break_point, the second
    c2*(1-q2)^(d-1) covers d > break_point, and tau makes both branches
    agree at the break, so c2 = tau*c1 with
    tau = ((1-q1)/(1-q2))^(break_point-1).  c1 follows from total mass 1:
    c1*(S1 + tau*S2) = 1 with S1 the first-regime geometric sum and S2 the
    (possibly truncated) second-regime sum.
    """
    return _two_regime_geometric_constants(
        q1, math.log1p(-q1), q2, math.log1p(-q2), break_point, d_max)


def _two_regime_geometric_constants(q1, log1m_q1, q2, log1m_q2,
                                    break_point, d_max):
    # Shared with the bound log-likelihood, which has the log1p(-q).
    tau = math.exp((break_point - 1) * (log1m_q1 - log1m_q2))
    s1 = -math.expm1(break_point * log1m_q1) / q1
    return _normalize(s1, tau, q2, log1m_q2, break_point, d_max)


def zeta_geometric_constants(
    gamma: float, q: float, break_point: int, d_max: int | None = None
) -> tuple[float, float, float]:
    """Normalizers (c1, c2, tau) of the zeta-geometric models.

    First regime c1*d^(-gamma) for d <= break_point, second regime
    c2*(1-q)^(d-1) beyond it; tau = break^(-gamma)/(1-q)^(break-1) pins the
    branches together at the break and c1 = 1/(H(break, gamma) + tau*S2).
    """
    return _zeta_geometric_constants(
        gamma, q, math.log1p(-q), break_point, math.log(break_point),
        np.arange(1, break_point + 1, dtype=float), d_max)


def _zeta_geometric_constants(gamma, q, log1m_q, break_point, log_break,
                              ks, d_max):
    # Shared with the bound log-likelihood, which has ks = 1..break_point.
    tau = math.exp(-gamma * log_break - (break_point - 1) * log1m_q)
    s1 = _power_sum(ks, gamma)
    return _normalize(s1, tau, q, log1m_q, break_point, d_max)


def _normalize(s1, tau, q, log1m_q, break_point, d_max):
    """(c1, c2, tau) from the first-regime sum s1 and a geometric second
    regime of rate q, log1m_q = log1p(-q), with c1*(s1 + tau*s2) = 1."""
    if d_max is None:
        s2 = math.exp(break_point * log1m_q) / q
    else:
        if break_point > d_max:
            raise ValueError("break_point > d_max")
        s2 = (math.exp(break_point * log1m_q) - math.exp(d_max * log1m_q)) / q
    c1 = 1.0 / (s1 + tau * s2)
    return c1, tau * c1, tau


# ---------------------------------------------------------------------------
# Probability mass
# ---------------------------------------------------------------------------

def log_pmf(model: Model, params: ModelParams, d) -> np.ndarray | float:
    """log p(d); -inf outside the support.  Accepts scalars or arrays."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 1) or np.any(d_arr != np.floor(d_arr)):
        raise ValueError("d must be a positive integer")
    out = model.spec.log_pmf(params, d_arr, getattr(params, "d_max", None))
    if np.isscalar(d) or d_arr.ndim == 0:
        return float(out)
    return out


def pmf(model: Model, params: ModelParams, d) -> np.ndarray | float:
    """p(d) in [0, 1]; 0 outside the support."""
    lp = log_pmf(model, params, d)
    return np.exp(lp) if isinstance(lp, np.ndarray) else math.exp(lp)


def support_upper(model: Model, params: ModelParams) -> int | None:
    """d_max for bounded models, None for unbounded support."""
    d_max = getattr(params, "d_max", None)
    return int(d_max) if d_max is not None else None


def total_mass(model: Model, params: ModelParams, upto: int = 10_000) -> float:
    """Total probability mass, for normalization checks.

    Truncated models are summed over their full support.  Unbounded models
    are summed to ``upto`` and closed with the exact geometric tail of the
    second regime (never silently truncated).
    """
    bound = support_upper(model, params)
    d = np.arange(1, (upto if bound is None else bound) + 1, dtype=float)
    head = float(pmf(model, params, d).sum())
    if bound is not None:
        return head
    if upto < getattr(params, "break_point", 1):
        raise ValueError("summation cutoff below the break point")
    # Every unbounded model ends in a geometric regime of rate q (q2 for
    # the two-regime geometric), so the mass beyond upto is p(upto+1)/q.
    q_tail = getattr(params, "q2", None) or params.q
    return head + float(pmf(model, params, upto + 1) / q_tail)


# ---------------------------------------------------------------------------
# Sufficient statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SufficientStats:
    """Frequency-weighted sums that determine every log-likelihood.

    n_total (N), weighted_sum (M), log_weighted_sum (M') and the largest
    observed distance always; the starred variants N*, M*, M'* restrict to
    d <= break_point; ``w`` is the slack sum sum f(d) log(d_max + 1 - d).
    """

    n_total: int
    weighted_sum: int
    log_weighted_sum: float
    max_d: int
    break_point: int | None = None
    n_upto: int | None = None
    weighted_upto: int | None = None
    log_weighted_upto: float | None = None
    w: float | None = None


def sufficient_stats(
    sample: DistanceSample,
    break_point: int | None = None,
    d_max: int | None = None,
) -> SufficientStats:
    """Compute the statistics needed by the compact likelihood forms."""
    n_star = m_star = mlog_star = None
    if break_point is not None:
        n_star, m_star, mlog_star = sample.stats_upto(break_point)
    w = None
    if d_max is not None:
        if sample.max_d > d_max:
            raise ValueError("observed distance beyond d_max")
        w = float(
            (sample.counts * np.log(d_max + 1 - sample.support)).sum()
        )
    return SufficientStats(
        n_total=sample.total,
        weighted_sum=sample.weighted_sum,
        log_weighted_sum=sample.log_weighted_sum,
        max_d=sample.max_d,
        break_point=break_point,
        n_upto=n_star,
        weighted_upto=m_star,
        log_weighted_upto=mlog_star,
        w=w,
    )


# ---------------------------------------------------------------------------
# Log-likelihoods
# ---------------------------------------------------------------------------

PerLength = tuple[Mapping[int, DistanceSample], LengthDistribution]


def log_likelihood(
    model: Model,
    params: ModelParams,
    sample: DistanceSample | None = None,
    per_length: PerLength | None = None,
) -> float:
    """Log-likelihood of a sample under a model: the model's row bound to
    the sample's statistics at the break point, at the continuous values.

    Support violations (an observed d beyond d_max, or beyond n - 1 under
    the null models) yield -inf so optimizers reject the region.
    """
    spec = model.spec
    if model is Model.NULL_MIXTURE:
        if per_length is None:
            raise ValueError("length-mixture null needs per-length samples")
        return spec.bind(per_length, None)()

    if sample is None:
        raise ValueError("sample required")
    d_max = getattr(params, "d_max", None)
    if d_max is not None and sample.max_d > d_max:
        return NEG_INF
    stats = sufficient_stats(sample, getattr(params, "break_point", None),
                             d_max)
    return spec.bind(stats, d_max)(*spec.values(params))


# ---------------------------------------------------------------------------
# Families.  ``*_log_pmf(params, d, d_max)`` works on a float array d;
# ``*_bind(stats, d_max)`` takes the sample's :class:`SufficientStats` at
# the break point, with the observed distances inside the support, and
# returns the log-likelihood as a function of the continuous values, in
# field order.  Every pmf here is non-increasing in d, so the smallest term
# sits at max d; when it falls below LOG_TERM_FLOOR the whole likelihood is
# the rejection sentinel -inf.  ``d_max`` is the truncation bound, None for
# unbounded twins.  The ``*_term`` helpers give log p(d) for a float or an
# array d and serve both.
# ---------------------------------------------------------------------------

def _on_support(d: np.ndarray, d_max: int | None, log_p) -> np.ndarray:
    """log_p(d) where d <= d_max (everywhere without a bound), else -inf."""
    if d_max is None:
        return log_p(d)
    out = np.full(d.shape, NEG_INF)
    ok = d <= d_max
    out[ok] = log_p(d[ok])
    return out


def _null_term(d_max, d):
    return np.log(2.0 * (d_max + 1 - d)) - math.log(d_max) \
        - math.log(d_max + 1)


def _null_log_pmf(params, d, d_max):
    return _on_support(d, d_max, partial(_null_term, d_max))


def _null_bind(stats, d_max):
    """Needs the slack sum: ``sufficient_stats(sample, d_max=d_max)``."""
    value = NEG_INF if _null_term(d_max, stats.max_d) < LOG_TERM_FLOOR \
        else stats.n_total * math.log(2.0 / (d_max * (d_max + 1.0))) + stats.w
    return lambda: value


def _mixture_log_pmf(params, d, d_max):
    # Marginal over sentence lengths: p(d) = sum_n p(d|n) p(n).
    prob = np.zeros(d.shape)
    for n, p_n in params.lengths.items():
        ok = d <= n - 1
        prob[ok] += p_n * 2.0 * (n - d[ok]) / (n * (n - 1.0))
    with np.errstate(divide="ignore"):
        return np.log(prob)


def _mixture_bind(per_length, d_max):
    """Takes the per-length samples in place of statistics: the fixed null
    at d_max = n - 1, summed over the sentence lengths n."""
    by_length, _ = per_length
    total = 0.0
    for n, length_sample in sorted(by_length.items()):
        if length_sample.max_d > n - 1:
            return lambda: NEG_INF
        total += _null_bind(sufficient_stats(length_sample, d_max=n - 1),
                            n - 1)()
    return lambda: total


# Fits without the optimizer (the nulls and the geometric):
# ``fit(sample, per_length)`` gives (params, log_l, converged), or None when
# the data it needs are missing.

def _null_fit(sample, per_length):
    """Scan d_max upward from max d over a window that grows until the
    likelihood peaks inside it (the null's mass leans on low d, so its
    likelihood can peak above max d)."""
    lo = sample.max_d
    window = max(4 * sample.max_d, 256)
    support = sample.support.astype(float)
    counts = sample.counts.astype(float)
    n = float(sample.total)
    converged = True
    while True:
        grid = np.arange(lo, lo + window + 1, dtype=float)
        slack = np.log(grid[:, None] + 1.0 - support[None, :])
        ll = (
            n * (math.log(2.0) - np.log(grid) - np.log(grid + 1.0))
            + slack @ counts
        )
        best = int(np.argmax(ll))
        if best < len(grid) - 1:
            break
        if window > 1_000_000:
            converged = False  # pathological sample; report the window edge
            break
        window *= 4
    return NullParams(int(grid[best])), float(ll[best]), converged


def _geometric_fit(sample, per_length):
    """The geometric's exact maximum, q = N/M (clamped into its box); a
    value that the row rejects is reported as not converged."""
    (q,) = _rate_init(sample)
    log_l = _geometric_bind(sufficient_stats(sample), None)(q)
    return GeometricParams(q), log_l, math.isfinite(log_l)


def _mixture_fit(sample, per_length):
    if per_length is None:
        return None
    params = MixtureNullParams(per_length[1])
    return params, _mixture_bind(per_length, None)(), True


def _geometric_log_norm(q: float, d_max: int | None) -> float:
    """log of the geometric mass on 1..d_max; 0.0 without truncation."""
    if d_max is None:
        return 0.0
    return math.log(-math.expm1(d_max * math.log1p(-q)))


def _geometric_head(q, d):
    """(d - 1) log(1 - q): the geometric decay from 1 to d."""
    return (d - 1) * math.log1p(-q)


def _geometric_term(q, log_norm, d):
    return math.log(q) + _geometric_head(q, d) - log_norm


def _geometric_log_pmf(params, d, d_max):
    q = params.q
    return _on_support(d, d_max, partial(
        _geometric_term, q, _geometric_log_norm(q, d_max)))


def _geometric_bind(stats, d_max):
    n, top = stats.n_total, stats.max_d
    excess = stats.weighted_sum - n

    def log_l(q):
        log_norm = _geometric_log_norm(q, d_max)
        if _geometric_term(q, log_norm, top) < LOG_TERM_FLOOR:
            return NEG_INF
        return n * (math.log(q) - log_norm) + excess * math.log1p(-q)
    return log_l


def _zeta_head(gamma, d):
    return -gamma * np.log(d)


def _zeta_term(gamma, log_h, d):
    return _zeta_head(gamma, d) - log_h


def _zeta_log_pmf(params, d, d_max):
    gamma = params.gamma
    return _on_support(d, d_max, partial(
        _zeta_term, gamma, math.log(harmonic(d_max, gamma))))


def _zeta_bind(stats, d_max):
    ks = np.arange(1, d_max + 1, dtype=float)
    n, log_sum, top = stats.n_total, stats.log_weighted_sum, stats.max_d

    def log_l(gamma):
        log_h = math.log(_power_sum(ks, gamma))
        if _zeta_term(gamma, log_h, top) < LOG_TERM_FLOOR:
            return NEG_INF
        return -gamma * log_sum - n * log_h
    return log_l


# Models 3, 4, 6 and 7: log c1 + head(d) up to the break, geometric at rate
# q_tail beyond it.  ``constants(*args)`` gives (c1, c2, tau); normalizers
# that a double cannot hold (tau overflows, c1 or c2 underflows to 0) put
# -inf everywhere: rejected, like a term below LOG_TERM_FLOOR, instead of
# raising.  The bound log-likelihoods hoist what the break point fixes and
# compute each log1p(-q) once per evaluation.

def _two_regime_log_constants(constants, *args):
    """(log c1, log c2), or None when a double cannot hold them."""
    try:
        c1, c2, _ = constants(*args)
    except OverflowError:
        return None
    if c1 == 0.0 or c2 == 0.0:
        return None
    return math.log(c1), math.log(c2)


def _tail_term(log_c2, q_tail, d):
    return log_c2 + _geometric_head(q_tail, d)


def _two_regime_log_pmf(d, break_point, d_max, q_tail, constants, head):
    logs = _two_regime_log_constants(constants, break_point, d_max)
    if logs is None:
        return np.full(d.shape, NEG_INF)
    # The tail formula over all of d, then the first regime and the
    # truncation written over it: one array as long as d, not two.
    out = np.asarray(_tail_term(logs[1], q_tail, d))
    first = d <= break_point
    out[first] = logs[0] + head(d[first])
    if d_max is not None:
        out[d > d_max] = NEG_INF
    return out


def _two_regime_geometric_log_pmf(params, d, d_max):
    q1, q2, break_point = params.q1, params.q2, params.break_point
    return _two_regime_log_pmf(
        d, break_point, d_max, q2,
        partial(two_regime_geometric_constants, q1, q2),
        partial(_geometric_head, q1))


def _two_regime_geometric_bind(stats, d_max):
    bp, steps = stats.break_point, stats.max_d - 1
    first = stats.max_d <= bp  # the regime that holds max d
    n_star, n_tail = stats.n_upto, stats.n_total - stats.n_upto
    m_first = stats.weighted_upto - n_star
    m_all = stats.weighted_sum - stats.n_total

    def log_l(q1, q2):
        log1m_q1, log1m_q2 = math.log1p(-q1), math.log1p(-q2)
        logs = _two_regime_log_constants(_two_regime_geometric_constants,
                                         q1, log1m_q1, q2, log1m_q2, bp, d_max)
        if logs is None:
            return NEG_INF
        log_c1, log_c2 = logs
        top = (log_c1 + steps * log1m_q1 if first
               else log_c2 + steps * log1m_q2)
        if top < LOG_TERM_FLOOR:
            return NEG_INF
        return (n_star * log_c1 + n_tail * log_c2
                + m_first * (log1m_q1 - log1m_q2) + m_all * log1m_q2)
    return log_l


def _zeta_geometric_log_pmf(params, d, d_max):
    gamma, q, break_point = params.gamma, params.q, params.break_point
    return _two_regime_log_pmf(
        d, break_point, d_max, q,
        partial(zeta_geometric_constants, gamma, q),
        partial(_zeta_head, gamma))


def _zeta_geometric_bind(stats, d_max):
    bp, steps = stats.break_point, stats.max_d - 1
    first = stats.max_d <= bp  # the regime that holds max d
    log_bp, ks = math.log(bp), np.arange(1, bp + 1, dtype=float)
    log_top, log_first = float(np.log(stats.max_d)), stats.log_weighted_upto
    n_star, n_tail = stats.n_upto, stats.n_total - stats.n_upto
    m_tail = stats.weighted_sum - stats.weighted_upto - n_tail

    def log_l(gamma, q):
        log1m_q = math.log1p(-q)
        logs = _two_regime_log_constants(
            _zeta_geometric_constants, gamma, q, log1m_q, bp, log_bp, ks,
            d_max)
        if logs is None:
            return NEG_INF
        log_c1, log_c2 = logs
        top = log_c1 + -gamma * log_top if first else log_c2 + steps * log1m_q
        if top < LOG_TERM_FLOOR:
            return NEG_INF
        return (n_star * log_c1 - gamma * log_first + n_tail * log_c2
                + m_tail * log1m_q)
    return log_l


# ---------------------------------------------------------------------------
# Starting values of the continuous parameters, from the sample and the
# break point (None for one-regime models)
# ---------------------------------------------------------------------------

def _clamp_q(value: float) -> float:
    return min(max(value, EPS), 1.0 - EPS)


def _regression_slope(sample: DistanceSample, lo=None, hi=None) -> float | None:
    """Least-squares slope of log(f(d)/N) on d over observed support."""
    mask = np.ones(len(sample.support), dtype=bool)
    if lo is not None:
        mask &= sample.support >= lo
    if hi is not None:
        mask &= sample.support <= hi
    d = sample.support[mask].astype(float)
    if len(d) < 2:
        return None
    y = np.log(sample.counts[mask] / sample.total)
    d_mean, y_mean = d.mean(), y.mean()
    denom = ((d - d_mean) ** 2).sum()
    return float(((d - d_mean) * (y - y_mean)).sum() / denom)


def _q_init_from_slope(slope: float | None, fallback: float) -> float:
    if slope is None:
        return _clamp_q(fallback)
    if slope >= 0:
        # A flat or rising tail gives a slope with no geometric reading.
        return EPS
    return _clamp_q(1.0 - math.exp(slope))


def _rate_init(sample: DistanceSample, break_point=None) -> tuple[float]:
    """The inverse mean distance."""
    return (_clamp_q(sample.total / sample.weighted_sum),)


def _regime_q_inits(sample, break_point) -> tuple[float, float]:
    """Log-frequency regression slopes on each side of the break."""
    (q_global,) = _rate_init(sample)
    b1 = _regression_slope(sample, hi=break_point)
    b2 = _regression_slope(sample, lo=break_point)
    return _q_init_from_slope(b1, q_global), _q_init_from_slope(b2, q_global)


def _gamma_init(sample: DistanceSample, upto: int | None = None) -> float:
    """Power-law exponent estimate 1 + N / sum(f(d) log(d / min(d)))."""
    mask = (sample.support <= upto) if upto is not None else slice(None)
    support = sample.support[mask].astype(float)
    counts = sample.counts[mask]
    denom = float((counts * np.log(support / support[0])).sum())
    if denom <= 0.0:
        return GAMMA_FALLBACK
    return 1.0 + float(counts.sum()) / denom


def _tail_q_init(sample: DistanceSample, break_point: int) -> float:
    """Geometric rate init from distances strictly beyond the break."""
    mask = sample.support > break_point
    if not mask.any():
        return _rate_init(sample)[0]
    n_tail = int(sample.counts[mask].sum())
    m_tail = int((sample.support[mask] * sample.counts[mask]).sum())
    return _clamp_q(n_tail / m_tail)


def _exponent_init(sample, break_point=None) -> tuple[float]:
    return (_gamma_init(sample),)


def _zeta_geometric_init(sample, break_point) -> tuple[float, float]:
    return (_gamma_init(sample, upto=break_point),
            _tail_q_init(sample, break_point))


# ---------------------------------------------------------------------------
# The spec table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One model.  ``log_pmf(params, d, d_max)`` works on a float array;
    ``bind(stats, d_max)`` takes the sample's :class:`SufficientStats` (the
    per-length samples for the length mixture) and returns the
    log-likelihood as a function of the continuous values, in field order;
    ``init(sample, break_point)`` starts the continuous
    parameters; ``sampler`` keys :data:`sampling.GENERATORS`; ``fit``, set
    for the nulls and the geometric, replaces the optimizer.  None: nothing to
    optimize, no sampler, or the optimizer fits the model."""

    params: type
    k: int
    family: str
    log_pmf: Callable
    bind: Callable
    init: Callable | None
    sampler: str | None
    fit: Callable | None = None

    @cached_property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.params.__dataclass_fields__)

    @cached_property
    def continuous(self) -> tuple[str, ...]:
        """Names of the parameters fitted by the continuous optimizer."""
        return tuple(name for name in self.fields if name in BOUNDS)

    @property
    def bounds(self) -> list[tuple]:
        return [BOUNDS[name] for name in self.continuous]

    def values(self, params: ModelParams) -> list[float]:
        """The continuous values of a parameter object, in field order."""
        return [getattr(params, name) for name in self.continuous]

    @property
    def flags(self) -> tuple[str, ...]:
        """``depdist sample`` flag of each field, in field order."""
        return tuple(FLAGS.get(name, name) for name in self.fields)

    def build(self, break_point: int | None = None,
              d_max: int | None = None) -> Callable[..., ModelParams]:
        """Parameters from the continuous values, with the integer fields
        (the last fields of every parameter class) fixed."""
        integers = [value for name, value in (("break_point", break_point),
                                              ("d_max", d_max))
                    if name in self.fields]
        return lambda *continuous: self.params(*continuous, *integers)


#: One row per model, in the canonical ensemble order.
SPECS: dict[Model, ModelSpec] = {
    Model.NULL_FIXED: ModelSpec(
        NullParams, 1, "0", _null_log_pmf, _null_bind,
        None, "table", _null_fit),
    Model.NULL_MIXTURE: ModelSpec(
        MixtureNullParams, 0, "0", _mixture_log_pmf, _mixture_bind,
        None, None, _mixture_fit),
    Model.GEOMETRIC: ModelSpec(
        GeometricParams, 1, "1-2", _geometric_log_pmf,
        _geometric_bind, _rate_init, "geometric", _geometric_fit),
    Model.GEOMETRIC_TRUNC: ModelSpec(
        TruncatedGeometricParams, 2, "1-2", _geometric_log_pmf,
        _geometric_bind, _rate_init, "geometric"),
    Model.TWO_REGIME_GEOMETRIC: ModelSpec(
        TwoRegimeGeometricParams, 3, "3-4", _two_regime_geometric_log_pmf,
        _two_regime_geometric_bind, _regime_q_inits, "table"),
    Model.TWO_REGIME_GEOMETRIC_TRUNC: ModelSpec(
        TruncatedTwoRegimeGeometricParams, 4, "3-4",
        _two_regime_geometric_log_pmf, _two_regime_geometric_bind,
        _regime_q_inits, "table"),
    Model.ZETA_TRUNC: ModelSpec(
        ZetaParams, 2, "5", _zeta_log_pmf, _zeta_bind,
        _exponent_init, "zeta"),
    Model.ZETA_GEOMETRIC: ModelSpec(
        ZetaGeometricParams, 3, "6-7", _zeta_geometric_log_pmf,
        _zeta_geometric_bind, _zeta_geometric_init, "table"),
    Model.ZETA_GEOMETRIC_TRUNC: ModelSpec(
        TruncatedZetaGeometricParams, 4, "6-7", _zeta_geometric_log_pmf,
        _zeta_geometric_bind, _zeta_geometric_init, "table"),
}
