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
its continuous parameters.  The one-regime rows carry their own fits (a
bisection for d_max that takes the larger of two tied bounds, a fixed
value, q = N/M, and for models 2 and 5 the Newton iterate of their
certificate, as 4 and 7 at b = max d), which return
plain tuples; the optimizer in :mod:`depdist.estimation` fits the
two-regime rows, at the break points that their certificates (exact upper
bounds at every break point, from a 2-D Newton) do not rule out.
The length-mixture null's likelihood is the fixed null's at d_max = n - 1,
summed over the per-length samples that a pooled sample carries
(``DistanceSample.by_length``); a sample without them leaves it excluded.

Log-likelihoods are computed from sufficient statistics, never by
rescanning the sample: N, M, M' and max d, which :class:`DistanceSample`
caches, their restrictions to d <= break from ``sample.stats_upto``, and
for the shuffle null the slack sum over the support.  Each row binds its
log-likelihood to the sample once per break point, computing there what
the break point fixes; the bound function takes the continuous values as
plain floats (a two-regime row's is :class:`Factored`), so an optimizer
builds no parameter object per evaluation.  :func:`log_likelihood` is the
same row behind a parameter object.
Parameters whose normalizers overflow or underflow a double get
log-likelihood -inf, the same rejection as a term below LOG_TERM_FLOOR;
the one-regime fits read that floor as a cap on their rate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property, partial
from typing import Callable, NamedTuple, Union

import numpy as np

from .treebank import DistanceSample, LengthDistribution

EPS = 1e-8  # q-like parameters live in [EPS, 1 - EPS]
NEG_INF = float("-inf")
LOG_TERM_FLOOR = -745.0  # log-probability terms below this count as -inf

Q_BOUNDS = (EPS, 1.0 - EPS)
GAMMA_BOUNDS = (0.0, math.inf)
#: Domain of each continuous parameter, by field name: a finite value in
#: [lo, hi]; the optimizer searches the same box.
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

    # Members are dict keys throughout (memos, fits): object's C-level hash,
    # consistent with their identity equality.
    __hash__ = object.__hash__

    def __init__(self, _value):
        #: Position in the canonical ensemble ordering, which :data:`SPECS`
        #: follows (for tie-breaks).
        self.order = len(type(self)._member_names_)

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
                if not (math.isfinite(value) and lo <= value <= hi):
                    raise ValueError(f"{name}={value!r} must be finite and "
                                     f"in [{lo}, {hi}]")


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
    (log1m_q1, s1), (log1m_q2, s2) = (_geometric_first(break_point)(q1),
                                      _geometric_tail(break_point, d_max)(q2))
    return _constants((break_point - 1) * (log1m_q1 - log1m_q2), s1, s2)


def zeta_geometric_constants(
    gamma: float, q: float, break_point: int, d_max: int | None = None
) -> tuple[float, float, float]:
    """Normalizers (c1, c2, tau) of the zeta-geometric models.

    First regime c1*d^(-gamma) for d <= break_point, second regime
    c2*(1-q)^(d-1) beyond it; tau = break^(-gamma)/(1-q)^(break-1) pins the
    branches together at the break and c1 = 1/(H(break, gamma) + tau*S2).
    """
    (_, log_head, s1), (log1m_q, s2) = (
        _zeta_first(break_point)(gamma), _geometric_tail(break_point, d_max)(q))
    return _constants(log_head - (break_point - 1) * log1m_q, s1, s2)


def _geometric_first(break_point):
    """q1 -> (log(1 - q1), S1), S1 the geometric sum over 1..break_point."""
    def part(q1):
        log1m_q1 = math.log1p(-q1)
        return log1m_q1, -math.expm1(break_point * log1m_q1) / q1
    return part


def _zeta_first(break_point):
    """gamma -> (gamma, log break_point^-gamma, H(break_point, gamma))."""
    ks, log_break = np.arange(1, break_point + 1, dtype=float), math.log(
        break_point)

    def part(gamma):
        return gamma, -gamma * log_break, _power_sum(ks, gamma)
    return part


def _geometric_tail(break_point, d_max):
    """q -> (log(1 - q), S2), S2 the second regime's sum of (1 - q)^(d - 1)
    over d > break_point, up to d_max if there is one."""
    if d_max is not None and break_point > d_max:
        raise ValueError("break_point > d_max")

    def part(q):
        log1m_q = math.log1p(-q)
        if d_max is None:
            return log1m_q, math.exp(break_point * log1m_q) / q
        return log1m_q, (math.exp(break_point * log1m_q)
                         - math.exp(d_max * log1m_q)) / q
    return part


def _constants(log_tau, s1, s2):
    """(c1, c2, tau) from log tau and the sums s1 and s2, with
    c1*(s1 + tau*s2) = 1; OverflowError where tau overflows."""
    tau = math.exp(log_tau)
    c1 = 1.0 / (s1 + tau * s2)
    return c1, tau * c1, tau


def _log_constants(log_tau, s1, s2):
    """(log c1, log c2) of :func:`_constants` (inlined: it runs once per
    point of a search), or None when a double cannot hold them."""
    try:
        tau = math.exp(log_tau)
    except OverflowError:
        return None
    c1 = 1.0 / (s1 + tau * s2)
    c2 = tau * c1
    if c1 == 0.0 or c2 == 0.0:
        return None
    return math.log(c1), math.log(c2)


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
    # The geometric regime beyond upto has mass p(upto+1)/q.
    return head + float(pmf(model, params, upto + 1) / tail_rate(params))


def tail_rate(params: ModelParams) -> float:
    """Rate q of the geometric regime beyond the break point (or of the
    whole geometric): q2 for the two-regime geometric, else q."""
    return getattr(params, "q2", None) or params.q


# ---------------------------------------------------------------------------
# Log-likelihoods
# ---------------------------------------------------------------------------

def log_likelihood(model: Model, params: ModelParams,
                   sample: DistanceSample) -> float:
    """Log-likelihood of a sample under a model: the model's row bound to
    the sample at the break point, at the continuous values.

    Support violations (an observed d beyond d_max, or beyond n - 1 under
    the null models) yield -inf so optimizers reject the region.  The
    length-mixture null reads the sample's per-length samples and raises
    ValueError on a sample without them.
    """
    spec = model.spec
    d_max = getattr(params, "d_max", None)
    if d_max is not None and sample.max_d > d_max:
        return NEG_INF
    return spec.bind(sample, getattr(params, "break_point", None),
                     d_max)(*spec.values(params))


# ---------------------------------------------------------------------------
# Families.  ``*_log_pmf(params, d, d_max)`` works on a float array d;
# ``*_bind(sample, break_point, d_max)`` takes a sample whose distances lie
# inside the support (the length mixture reads ``sample.by_length``) and
# returns its log-likelihood as a function of the continuous values, in
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


def _null_bind(sample, break_point, d_max):
    if _null_term(d_max, sample.max_d) < LOG_TERM_FLOOR:
        return lambda: NEG_INF
    # The slack sum: sum f(d) log(d_max + 1 - d).
    slack = float((sample.counts * np.log(d_max + 1 - sample.support)).sum())
    value = sample.total * math.log(2.0 / (d_max * (d_max + 1.0))) + slack
    return lambda: value


def _mixture_log_pmf(params, d, d_max):
    # Marginal over a corpus's dependencies: p(d) = sum_n p(d|n) w(n), with
    # w(n) = p(n)(n - 1) / sum_m p(m)(m - 1) the share of the dependencies
    # in n-word sentences (p(n) is their share of the sentences); the n - 1
    # cancels against p(d|n) = 2(n - d) / (n(n - 1)).
    prob = np.zeros(d.shape)
    lengths = list(params.lengths.items())
    dependencies = math.fsum(p_n * (n - 1) for n, p_n in lengths)
    for n, p_n in lengths:
        ok = d <= n - 1
        prob[ok] += p_n * 2.0 * (n - d[ok]) / (n * dependencies)
    with np.errstate(divide="ignore"):
        return np.log(prob)


def _mixture_bind(sample, break_point, d_max):
    """The fixed null at d_max = n - 1, summed over the sample's per-length
    samples of sentence length n."""
    if not sample.by_length:
        raise ValueError("length-mixture null needs per-length samples")
    total = 0.0
    for n, length_sample in sorted(sample.by_length.items()):
        if length_sample.max_d > n - 1:
            return lambda: NEG_INF
        total += _null_bind(length_sample, None, n - 1)()
    return lambda: total


# Fits of the one-regime rows (those of models 1, 2 and 5 follow the
# bounds): ``fit(sample)`` gives (params, log_l, converged), or None when
# the data it needs are missing.

def _null_fit(sample):
    """Bisect [max d, 2 max d - 1] for the bound D (the null's mass leans
    on low d, so its likelihood can peak above max d), moving up while
    log L(D + 1) - log L(D) = dL(D) = sum_d f(d) log1p(1 / (D + 1 - d)) -
    N log1p(2 / D) >= 0, so that of two tied bounds it takes the larger;
    log L is the row's own (``_null_bind``).

    The window holds the peak: each term f(d) (log1p(1 / (D + 1 - d)) -
    log1p(2 / D)) is negative once D >= 2d - 1, so log L falls from D = 2
    max d - 1 on.  The bisection is exact because dL changes sign at most
    once there: dL(D) = N log1p(2 / D) (sum_d (f(d) / N) r_d(D) - 1), with
    r_d(D) = log1p(1 / (D + 1 - d)) / log1p(2 / D), and each r_d strictly
    falls for D >= d.  With x = D + 1 - d and y = D, y >= x >= 1, that is
    x (x + 1) log1p(1 / x) < y (y + 2) log1p(2 / y) / 2, which holds as x
    (x + 1) log1p(1 / x) < x + 1/2 <= y + 1 - 1 / (y + 1) < y (y + 2)
    log1p(2 / y) / 2 (the outer two are log1p(t) < t (2 + t) / (2 (1 +
    t)) at t = 1 / x and log1p(t) > 2t / (2 + t) at t = 2 / y).  A single
    distance d ties at D = 2d - 2, where both terms take numpy's log1p of
    the same double (math.log1p can differ from it by an ulp, as at d =
    50), so its dL is 0.0 and it takes 2d - 1."""
    lo, n = sample.max_d, float(sample.total)
    support, counts = sample.support, sample.counts.astype(float)

    def falls(bound):
        return counts @ np.log1p(1.0 / (bound + 1.0 - support)) \
            < n * np.log1p(2.0 / bound)

    d_max = lo + bisect.bisect_left(range(lo, 2 * lo - 1), True, key=falls)
    return NullParams(d_max), _null_bind(sample, None, d_max)(), True


def _mixture_fit(sample):
    """The length distribution counts the sentences of each per-length
    sample, n - 1 distances each; None without per-length samples."""
    if not sample.by_length:
        return None
    lengths = LengthDistribution.from_counts(
        {n: s.total // (n - 1) for n, s in sample.by_length.items()})
    return (MixtureNullParams(lengths), _mixture_bind(sample, None, None)(),
            True)


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


def _geometric_bind(sample, break_point, d_max):
    n, top = sample.total, sample.max_d
    excess = sample.weighted_sum - n

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


def _ranks(sample, d_max):
    """1.0, 2.0, ..., d_max."""
    return np.arange(1, d_max + 1, dtype=float)


def _zeta_bind(sample, break_point, d_max):
    ks = _part(sample, _ranks, d_max)
    n, log_sum, top = sample.total, sample.log_weighted_sum, sample.max_d

    def log_l(gamma):
        log_h = math.log(_power_sum(ks, gamma))
        if _zeta_term(gamma, log_h, top) < LOG_TERM_FLOOR:
            return NEG_INF
        return (0.0 - gamma) * log_sum - n * log_h  # 0.0, not -0.0, at 0
    return log_l


# Models 3, 4, 6 and 7: log c1 + head(d) up to the break, geometric at rate
# q_tail beyond it.  ``constants(break_point, d_max)`` gives (c1, c2, tau);
# normalizers that a double cannot hold (tau overflows, c1 or c2 underflows to
# 0) put -inf everywhere: rejected, like a term below LOG_TERM_FLOOR, instead
# of raising.  The bound log-likelihoods hoist what the break point fixes.


class Factored(NamedTuple):
    """A bound two-regime log-likelihood: combine(first(x1), second(x2))."""

    first: Callable
    second: Callable
    combine: Callable

    def __call__(self, x1, x2):
        return self.combine(self.first(x1), self.second(x2))


def _two_regime_log_pmf(params, d, d_max, constants, head):
    break_point = params.break_point
    try:
        c1, c2, _ = constants(break_point, d_max)
    except OverflowError:
        c1 = c2 = 0.0
    if c1 == 0.0 or c2 == 0.0:
        return np.full(d.shape, NEG_INF)
    # The tail formula over all of d, then the first regime and the
    # truncation written over it: one array as long as d, not two.
    out = np.asarray(math.log(c2) + _geometric_head(tail_rate(params), d))
    first = d <= break_point
    out[first] = math.log(c1) + head(d[first])
    if d_max is not None:
        out[d > d_max] = NEG_INF
    return out


def _two_regime_geometric_log_pmf(params, d, d_max):
    q1, q2 = params.q1, params.q2
    return _two_regime_log_pmf(
        params, d, d_max, partial(two_regime_geometric_constants, q1, q2),
        partial(_geometric_head, q1))


def _two_regime_geometric_bind(sample, bp, d_max):
    steps, first = sample.max_d - 1, sample.max_d <= bp  # max d's regime
    n_star, m_star, _ = sample.stats_upto(bp)
    n_tail, m_first = sample.total - n_star, m_star - n_star
    m_all = sample.weighted_sum - sample.total

    def combine(head, tail):
        (log1m_q1, s1), (log1m_q2, s2) = head, tail
        log_ratio = log1m_q1 - log1m_q2
        logs = _log_constants((bp - 1) * log_ratio, s1, s2)
        if logs is None:
            return NEG_INF
        log_c1, log_c2 = logs
        top = (log_c1 + steps * log1m_q1 if first
               else log_c2 + steps * log1m_q2)
        if top < LOG_TERM_FLOOR:
            return NEG_INF
        return (n_star * log_c1 + n_tail * log_c2
                + m_first * log_ratio + m_all * log1m_q2)
    return Factored(_geometric_first(bp), _geometric_tail(bp, d_max), combine)


def _zeta_geometric_log_pmf(params, d, d_max):
    gamma, q = params.gamma, params.q
    return _two_regime_log_pmf(
        params, d, d_max, partial(zeta_geometric_constants, gamma, q),
        partial(_zeta_head, gamma))


def _zeta_geometric_bind(sample, bp, d_max):
    steps, first = sample.max_d - 1, sample.max_d <= bp  # max d's regime
    n_star, m_star, log_first = sample.stats_upto(bp)
    log_top, n_tail = float(np.log(sample.max_d)), sample.total - n_star
    m_tail = sample.weighted_sum - m_star - n_tail

    def combine(head, tail):
        (gamma, log_head, s1), (log1m_q, s2) = head, tail
        logs = _log_constants(log_head - (bp - 1) * log1m_q, s1, s2)
        if logs is None:
            return NEG_INF
        log_c1, log_c2 = logs
        top = log_c1 + -gamma * log_top if first else log_c2 + steps * log1m_q
        if top < LOG_TERM_FLOOR:
            return NEG_INF
        return (n_star * log_c1 - gamma * log_first + n_tail * log_c2
                + m_tail * log1m_q)
    return Factored(_zeta_first(bp), _geometric_tail(bp, d_max), combine)


# Certificates: upper bounds on the two-regime log-likelihoods at every break
# point b of a grid.  In theta = (log(1 - q1) or -gamma, log(1 - q2)) a
# two-regime row is a concave exponential family, log L = theta . sum T - N
# log Z, with T1(d) = min(d, b) - 1 or log min(d, b), T2(d) = max(d - b, 0)
# and Z the head sum over k <= b of exp(theta1 T1(k)) plus exp(theta1 T1(b) +
# theta2) times the geometric tail's sum of exp(theta2 j), j >= 0 (j < max d
# - b if truncated).  At any x of the box, concavity bounds the maximum by
# f(x) + sum_i max(g_i (lo_i - x_i), g_i (hi_i - x_i)).  The box is the
# search's in theta, gamma capped at GAMMA_TOP: at gamma >= 64, Z >= 1 and
# E[T1] <= ZETA_SLOPE_CAP (head terms k >= 2 add at most 2 log 2 2^-64, the
# tail log b b^-64 / EPS), so the slope in theta1, sum T1 - N E[T1], stays
# positive where sum T1 > N ZETA_SLOPE_CAP, about N 3.8e-12 (sum T1 >= log 2
# once a distance exceeds 1).  Elsewhere there is no certificate: the bound
# is +inf.  A sum's cost at a break point is bounded, however long its
# run: the geometric runs (heads of models 2, 3 and 4, every tail) are in
# closed form, and a zeta head is summed term by term up to ZETA_EXACT and
# by Euler-Maclaurin beyond it.  A truncated row's bound adds
# :func:`_tail_rounding`, the most that its search's tail sum can raise log L
# by rounding, and a zeta head beyond ZETA_EXACT adds :func:`_em_remainder`,
# the most that the Euler-Maclaurin remainder can move the bound.

CERT_STEPS = 64  # most evaluations of a certificate; 92% take 8 or fewer
ASCENT_SLACK = 1e-12  # relative fall of a Newton step still accepted
NEWTON_GAP = 1e-12  # relative rise of a certified bound above its iterate
GAMMA_TOP = 64.0  # the slope at gamma 64 is negative unless N* >= 2^64
THETA_BOUNDS = (math.log1p(-Q_BOUNDS[1]), math.log1p(-Q_BOUNDS[0]))
ZETA_SLOPE_CAP = math.log(2.0) * 2.0 ** -GAMMA_TOP * (2.0 + 1.0 / EPS)
SERIES_BELOW = 0.1  # |theta k| where a geometric run's moments turn series
UNBOUNDED = 2.0 ** 60  # an untruncated tail's run length: exp(theta k) is 0
# Zeta head terms summed one by one: Euler-Maclaurin's fixed cost per
# evaluation (about 70 numpy calls) is more than the direct sums of
# heads of about 100 terms at a grid's row counts, and from k = 129 on
# its remainders with 5 corrections are below 3e-18.
ZETA_EXACT = 128
EM_TERMS = 5  # Euler-Maclaurin corrections beyond them

# Taylor coefficients, by power of x, of phi1(x) = 1 / (1 - e^-x) - 1 / x =
# 1/2 + sum_j B_2j x^(2j - 1) / (2j)! and of phi2 = phi1', through x^8: a
# geometric run's mean is k phi1(theta k) - phi1(theta), its variance k^2
# phi2(theta k) - phi2(theta).  At |x| < SERIES_BELOW the next terms are
# below 5e-17 relative.
_RUN_SERIES = np.array([
    [1 / 2, 1 / 12, 0, -1 / 720, 0, 1 / 30240, 0, -1 / 1209600, 0],
    [1 / 12, 0, -1 / 240, 0, 1 / 6048, 0, -1 / 172800, 0, 1 / 5322240]])
# Taylor coefficients of E_i(z) = integral over [0, 1] of e^(zs) s^i ds,
# 1 / (m! (m + i + 1)) for z^m; at |z| < 1 the next term is below 1e-17.
_EXP_SERIES = np.array([[1.0 / (math.factorial(m) * (m + i + 1))
                         for m in range(18)] for i in range(3)])
_LOG_K = np.log(np.arange(1.0, ZETA_EXACT + 1.0))
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66)  # B_2, ..., B_10


def _part(sample, part, *args):
    key = (part, *args)
    if key not in sample.memo:
        sample.memo[key] = part(sample, *args)
    return sample.memo[key]


def _grid_stats(sample, grid):
    """At each b of the grid: N*, the sums of d - 1 and of log d over d <=
    b, the count T beyond b and the sum of d - b - 1 there."""
    bs = np.array(grid)
    n_star, m_star, log_star = sample.stats_upto(bs)
    n_star, m_star = n_star.astype(float), m_star.astype(float)
    tail = sample.total - n_star
    return (n_star, m_star - n_star, log_star, tail,
            sample.weighted_sum - m_star - tail * (bs + 1.0))


def _powers(x, count):
    """x^0, x^1, ..., x^(count - 1), one row each, by products (float
    pow is slow on most arrays)."""
    out = np.empty((count, *np.shape(x)))
    out[0], out[1:] = 1.0, x
    return np.multiply.accumulate(out, axis=0)


def _geometric_runs(theta, k):
    """log Z, the mean and the variance of T = 0, 1, ..., k - 1 weighted by
    exp(theta T), for theta < 0 and run lengths k, as a 3 x len(theta)
    array: log(expm1(theta k) / expm1(theta)), k r(theta k) -
    r(theta) and r(theta) / expm1(theta) - k^2 r(theta k) / expm1(theta k),
    with r(x) = exp(x) / expm1(x).  Where |theta k| < SERIES_BELOW the last
    two cancel and their series replace them; UNBOUNDED runs give the
    untruncated tail."""
    tk = theta * k
    e1, ek = np.expm1(theta), np.expm1(tk)
    r1, rk = np.exp(theta) / e1, np.exp(tk) / ek
    out = np.array([np.log(ek / e1), k * rk - r1, r1 / e1 - k * k * rk / ek])
    near = np.flatnonzero(np.abs(tk) < SERIES_BELOW)
    if len(near):
        x = np.array([tk[near], theta[near]])
        phi = (_RUN_SERIES[:, :, None, None] * _powers(x, 9)).sum(1)
        k = k[near]
        out[1:, near] = np.array([k, k * k]) * phi[:, 0] - phi[:, 1]
    return out


def _exp_moments(z):
    """E_i(z) = integral over [0, 1] of e^(zs) s^i ds, i = 0, 1, 2, as a 3 x
    len(z) array: E_0 = expm1(z) / z and E_i = (e^z - i E_(i-1)) / z, or
    their series where |z| < 1, where that recursion cancels."""
    ez, e0 = np.exp(z), np.expm1(z) / z
    e1 = (ez - e0) / z
    out = np.array([e0, e1, (ez - 2.0 * e1) / z])
    near = np.flatnonzero(np.abs(z) < 1.0)
    if len(near):
        out[:, near] = (_EXP_SERIES[:, :, None] * _powers(
            z[near], _EXP_SERIES.shape[1])).sum(1)
    return out


@cache
def _falling_factorial_derivatives(terms):
    """[r, i, s]: the coefficient of theta^s in B_2i / (2i)! times the r-th
    derivative of the falling factorial theta (theta - 1) ... (theta - 2i),
    for i < terms (B_2 first) and r = 0, 1, 2."""
    table = np.zeros((3, terms, 2 * terms))
    for i, bernoulli in enumerate(_BERNOULLI[:terms]):
        poly = np.polynomial.polynomial.polyfromroots(range(2 * i + 1)) * (
            bernoulli / math.factorial(2 * i + 2))
        for r in range(3):
            table[r, i, :len(poly)] = poly
            poly = np.polynomial.polynomial.polyder(poly)
    return table


def _euler_maclaurin(bs, start=ZETA_EXACT + 1, terms=EM_TERMS):
    """theta -> the sums of k^theta (log k)^j over k = a, ..., b, for j = 0,
    1, 2 (3 x len(bs), one theta and one b >= a per column), a = start:
    the integral of f(x) = x^theta (log x)^j over [a, b],
    plus (f(a) + f(b)) / 2, plus the sum over i <= terms of B_2i / (2i)!
    (f^(2i-1)(b) - f^(2i-1)(a)).  With x = a e^t the integral is a^(theta +
    1) times that of e^(ut) (log a + t)^j over [0, L], u = theta + 1 and L =
    log(b / a), which is sum_i C(j, i) (log a)^(j - i) L^(i + 1) E_i(uL)
    (:func:`_exp_moments`).  The m-th derivative of f_j = d^j f_0 / dtheta^j
    is x^(theta - m) sum_r C(j, r) P_m^(j - r)(theta) (log x)^r, with P_m
    the falling factorial theta (theta - 1) ... (theta - m + 1) and P^(r)
    its r-th derivative in theta."""
    a, table = float(start), _falling_factorial_derivatives(terms)
    log_a = math.log(a)
    ends = np.array([np.full(len(bs), a), bs])
    logs = np.log(ends)  # log a and log b, 2 x len(bs)
    span = logs[1] - log_a
    spans = _powers(span, 4)[1:]
    halves = np.array([np.full(logs.shape, 0.5), logs / 2.0,
                       logs * logs / 2.0])
    odd = _powers(1.0 / (ends * ends), terms) / ends
    signs = np.array([-1.0, 1.0])[:, None]

    def sums(theta):
        powers = np.exp(theta * logs)  # x^theta at both ends
        e0, e1, e2 = _exp_moments((theta + 1.0) * span) * spans
        integral = a * powers[0] * np.array([
            e0, log_a * e0 + e1, log_a * (log_a * e0 + 2.0 * e1) + e2])
        p = table[..., -1, None]
        for coefficients in table[..., -2::-1].T:
            p = p * theta + coefficients.T[..., None]
        q0, q1, q2 = (p[:, :, None] * odd).sum(1)
        corrections = np.array([q0, q1 + logs * q0,
                                q2 + logs * (2.0 * q1 + logs * q0)])
        return integral + ((halves + signs * corrections) * powers).sum(1)
    return sums


def _short_sums(bs):
    """theta -> the sums of k^theta (log k)^j over k = 1, ..., b for j = 0,
    1, 2 (3 x len(bs), one theta and one b <= ZETA_EXACT per column), term
    by term, each head on its own."""
    starts = np.cumsum(bs) - bs
    logs = _LOG_K[np.arange(starts[-1] + bs[-1]) - np.repeat(starts, bs)]
    cells = np.array([np.ones(len(logs)), logs, logs * logs])
    return lambda theta: np.add.reduceat(
        np.exp(np.repeat(theta, bs) * logs) * cells, starts, axis=1)


def _long_sums(bs):
    """The same sums for b > ZETA_EXACT: the first ZETA_EXACT terms one by
    one, the rest by :func:`_euler_maclaurin`."""
    rest = _euler_maclaurin(bs)

    def sums(theta):
        w = np.multiply.outer(theta, _LOG_K)  # updated in place: it is big
        np.exp(w, out=w)
        s0 = w.sum(1)
        w *= _LOG_K
        s1 = w.sum(1)
        w *= _LOG_K
        return np.array([s0, s1, w.sum(1)]) + rest(theta)
    return sums


def _zeta_heads(bs):
    """theta -> log Z, the mean and the variance of log k over k = 1, ...,
    b weighted by k^theta (3 x len(bs), one theta and one b per column),
    from :func:`_short_sums` and :func:`_long_sums`, each on its own
    heads."""
    long = bs > ZETA_EXACT
    parts = [(rows, sums(bs[rows])) for rows, sums in (
        (np.flatnonzero(~long), _short_sums),
        (np.flatnonzero(long), _long_sums)) if len(rows)]

    def heads(theta):
        if len(parts) == 1:
            sums = parts[0][1](theta)
        else:
            sums = np.empty((3, len(bs)))
            for rows, part in parts:
                sums[:, rows] = part(theta[rows])
        mean = sums[1] / sums[0]
        return np.array([np.log(sums[0]), mean,
                         sums[2] / sums[0] - mean * mean])
    return heads


def _runs(bs, zeta, tails):
    """(theta1, theta2) -> the moments (log Z, mean, variance) of the head
    runs and of the tail runs at break points bs, two 3 x len(bs) arrays;
    ``tails`` holds the tail runs' lengths.  The geometric heads and the
    tails go through :func:`_geometric_runs` together, the zeta heads
    through :func:`_zeta_heads`."""
    geometric, heads = np.flatnonzero(~zeta), np.flatnonzero(zeta)
    k = np.concatenate([bs[geometric], tails]).astype(float)
    split = len(geometric)
    zeta_heads = _zeta_heads(bs[heads]) if len(heads) else None

    def moments(x1, x2):
        out = _geometric_runs(np.concatenate([x1[geometric], x2]), k)
        if zeta_heads is None:
            return out[:, :split], out[:, split:]
        head = np.empty((3, len(bs)))
        head[:, geometric] = out[:, :split]
        head[:, heads] = zeta_heads(x1[heads])
        return head, out[:, split:]
    return moments


def certificates(rows):
    """Upper bounds on the log-likelihood of each row (model, sample, grid)
    at every break point of its grid, one array per row: :func:`_certify`
    from the regimes' own maximum-likelihood values, in theta log(1 - N* /
    M*) (the head's geometric), -1 - 1 / (M'* / N* + log 2) (the discrete
    power law's approximate estimate; Clauset, Shalizi & Newman, 2009) and
    the geometric of d - b over the tail, -1 where one is not finite.
    Models 2 and 5 are 4 and 7 at b = max d with an empty tail.  Each row's
    theta, 2 x len(grid) (nan without a certificate), goes to its sample's
    memo under (_certify, model)."""
    sizes = [len(grid) for _, _, grid in rows]
    bs, n_star, offsets, log_star, tail, tail_offsets = (
        np.concatenate(column) for column in zip(*[
            (np.array(grid), *_part(sample, _grid_stats, grid))
            for _, sample, grid in rows]))
    zeta, truncated, n, top = (np.repeat(column, sizes) for column in zip(*[
        ("gamma" in model.spec.continuous, model.is_truncated, sample.total,
         sample.max_d) for model, sample, _ in rows]))
    # log 0 where every offset is 0, and 0 / 0 where a tail is empty
    with np.errstate(divide="ignore", invalid="ignore"):
        starts = (np.where(zeta, -1.0 - 1.0 / (log_star / n_star
                                                + math.log(2.0)),
                           np.log(offsets / (n_star + offsets))),
                  np.log(tail_offsets / (tail + tail_offsets)))
    x1, x2 = (np.where(np.isfinite(x), x, -1.0) for x in starts)
    x1[top == 1] = np.inf  # flat rows (max d = 1): the rate's low end
    t_b = np.where(zeta, np.log(bs), bs - 1.0)
    bound, theta = _certify(bs, zeta, truncated, top - bs, t_b, n,
                            np.where(zeta, log_star, offsets) + tail * t_b,
                            tail_offsets + tail, x1, x2)
    cut = truncated & (bs < top)
    bound[cut] += _tail_rounding(n[cut], top[cut], bs[cut])
    summed = zeta & (bs > ZETA_EXACT)
    bound[summed] += _em_remainder(n[summed], bs[summed], np.where(
        truncated, top - bs, 1.0 / EPS)[summed])
    ends = np.cumsum(sizes)[:-1]
    for (model, sample, _), iterates in zip(rows, np.split(theta, ends, 1)):
        sample.memo[_certify, model] = iterates
    return np.split(bound, ends)


def _tail_rounding(n, top, bs):
    """The most that rounding moves the search's log L, at any theta2 of
    the box, through a truncated tail sum ((1 - q)^b - (1 - q)^max d) / q
    with b < max d.  Each power carries a relative error of at most (2 + 2
    max d |theta2|) u, u = 2^-53 (exp's own, and its argument's through
    log1p and the product), which the difference divides by 1 - (1 -
    q)^(max d - b): near q = EPS that is about (max d - b) EPS, so the sum
    keeps only about half of its digits.  log L moves by at most N times
    the sum's relative error.  Of the two terms, the first falls with
    |theta2| and the second rises, so each is taken at its end of the
    box."""
    lo, hi = THETA_BOUNDS
    k = top - bs
    return n * 2.0 ** -53 * (4.0 / -np.expm1(k * hi)
                             + 4.0 * top * -lo / -np.expm1(k * lo))


def _em_bounds(terms, start):
    """Bounds on the remainders of :func:`_euler_maclaurin`'s three sums
    with ``terms`` corrections from k = ``start``, at every theta of
    [-GAMMA_TOP, 0] and every b, where log(start) >= H(2 terms + 1) - 1
    (:func:`_em_remainder` derives them): |B_2p| / (2p)! (2p + 1)! a^(1 -
    2p) (2p + log a + 2 / (2p - 1))^j / (2p - 1), p = terms, a = start."""
    m, log_a = 2 * terms, math.log(start)
    scale = abs(_BERNOULLI[terms - 1]) * (m + 1) * start ** (1 - m) / (m - 1)
    return [scale * (m + log_a + 2.0 / (m - 1)) ** j for j in range(3)]


def _em_remainder(n, bs, tail_mean):
    """The most that the Euler-Maclaurin remainders R_j of a zeta head's
    sums (:func:`_euler_maclaurin`) move a certificate, to first order, at
    b > ZETA_EXACT; ``tail_mean`` bounds E[T2] over the box (max d - b, or
    1 / EPS untruncated).  A remainder is at most |B_2p| / (2p)! times the
    integral of |f^(2p)| over x >= a, p = EM_TERMS.  For theta in
    [-GAMMA_TOP, 0], |P_m|, |P_m'| / m and |P_m''| / (m (m - 1)) are at
    most D = Gamma(gamma + 2 + m) / Gamma(gamma + 2), so |f_j^(m)(x)| <=
    D x^(-gamma - m) (m + log x)^j, whose integral is at most D a^(1 -
    gamma - m) (m + log a + 2 / c)^j / c, c = gamma + m - 1.  Its log falls
    with gamma, as sum_l 1 / (gamma + 2 + l) <= H(2p + 1) - 1 < log a, so
    gamma = 0 bounds it (:func:`_em_bounds`).  Z >= 1, so log Z moves by at
    most R_0, E[T1] by R_1 + log b R_0 and E[T2] by E[T2] R_0; the bound
    moves by N times the first plus the box's widths times the other
    two."""
    widths = GAMMA_TOP, THETA_BOUNDS[1] - THETA_BOUNDS[0]
    r0, r1, _ = _em_bounds(EM_TERMS, ZETA_EXACT + 1)
    return n * (r0 * (1.0 + widths[0] * np.log(bs) + widths[1] * tail_mean)
                + widths[0] * r1)


def _certify(bs, zeta, truncated, tail_size, t_b, n, s1, s2, x1, x2):
    """Upper bounds at break points bs and the last accepted theta at each,
    from (x1, x2): projected Newton steps, halved where f falls by more
    than ASCENT_SLACK (1 + |f|) below its best value, each point a bound,
    until a bound is within NEWTON_GAP (1 + |f|) of f, or for CERT_STEPS
    evaluations; each step evaluates only the break points still running.
    s1 and s2 are the sums of T1 and T2.  An empty tail (b = max d) has no
    term, holds theta2 and skips the zeta cap."""
    empty = truncated & (tail_size == 0)
    tails = np.where(truncated & ~empty, tail_size, UNBOUNDED)
    lo2, hi2 = THETA_BOUNDS
    bound, theta = np.full(len(bs), np.inf), np.full((2, len(bs)), np.nan)
    # The break points still running, by index, and their columns.
    rows = np.flatnonzero(~zeta | empty | (n * ZETA_SLOPE_CAP < s1))
    if not len(rows):
        return bound, theta
    bs, zeta, tails, empty, t_b, n, s1, s2, x1, x2 = (
        column[rows] for column in (
            bs, zeta, tails, empty, t_b, n, s1, s2, x1, x2))
    lo1, hi1 = (np.where(zeta, -GAMMA_TOP, THETA_BOUNDS[0]),
                np.where(zeta, 0.0, THETA_BOUNDS[1]))
    x1, x2 = np.clip(x1, lo1, hi1), np.clip(x2, lo2, hi2)
    # y is the trial point, at_x f, g1, g2 and the three curvatures at x.
    y1, y2, cert = x1, x2, bound[rows]
    at_x = [np.full(len(rows), -np.inf)] + [np.zeros(len(rows))] * 5
    moments = _runs(bs, zeta, tails)

    def evaluate(x1, x2):
        (log_head, head_mean, head_var), tails = moments(x1, x2)
        tails[0, empty] = -np.inf
        log_weight = x1 * t_b + x2 + tails[0]
        log_total = np.logaddexp(log_head, log_weight)
        p_head = np.exp(log_head - log_total)
        p_tail = np.exp(log_weight - log_total)
        gap1, gap2, mix = head_mean - t_b, 1.0 + tails[1], p_head * p_tail
        f = x1 * s1 + x2 * s2 - n * log_total
        g1 = s1 - n * (p_head * head_mean + p_tail * t_b)
        g2 = s2 - n * p_tail * gap2
        return (f, g1, g2, p_head * head_var + mix * gap1 * gap1,
                p_tail * tails[2] + mix * gap2 * gap2, -mix * gap1 * gap2,
                f + np.maximum(g1 * (lo1 - x1), g1 * (hi1 - x1))
                + np.maximum(g2 * (lo2 - x2), g2 * (hi2 - x2)))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(CERT_STEPS):
            *at_y, point = evaluate(y1, y2)
            cert = np.fmin(cert, point)
            accept = at_y[0] >= at_x[0] - ASCENT_SLACK * (
                1.0 + np.abs(at_x[0]))
            x1, x2 = np.where(accept, y1, x1), np.where(accept, y2, x2)
            at_x = [np.where(accept, *pair) for pair in zip(at_y, at_x)]
            bound[rows], theta[:, rows] = cert, (x1, x2)
            going = cert - at_x[0] > NEWTON_GAP * (1.0 + np.abs(at_x[0]))
            if not going.all():
                (rows, bs, zeta, tails, empty, t_b, n, s1, s2, lo1, hi1, x1,
                 x2, y1, y2, cert, accept, *at_x) = (
                    column[going] for column in (
                        rows, bs, zeta, tails, empty, t_b, n, s1, s2, lo1,
                        hi1, x1, x2, y1, y2, cert, accept, *at_x))
                if not len(rows):
                    break
                moments = _runs(bs, zeta, tails)
            # Newton's step from x; a coordinate at an end of the box whose
            # slope points out of it stays, and the other steps alone.
            f, g1, g2, c11, c22, c12 = at_x
            fix1 = ((x1 <= lo1) & (g1 < 0)) | ((x1 >= hi1) & (g1 > 0))
            fix2 = (((x2 <= lo2) & (g2 < 0)) | ((x2 >= hi2) & (g2 > 0))
                    | empty)
            det = n * (c11 * c22 - c12 * c12)
            d1 = np.where(fix2, g1 / (n * c11), (c22 * g1 - c12 * g2) / det)
            d2 = np.where(fix1, g2 / (n * c22), (c11 * g2 - c12 * g1) / det)
            d1 = np.where(fix1 | ~np.isfinite(d1), 0.0, d1)
            d2 = np.where(fix2 | ~np.isfinite(d2), 0.0, d2)
            y1 = np.where(accept, np.clip(x1 + d1, lo1, hi1), (x1 + y1) / 2.0)
            y2 = np.where(accept, np.clip(x2 + d2, lo2, hi2), (x2 + y2) / 2.0)
    return bound, theta


# Models 1, 2 and 5 fit exactly: model 1 has q = N/M, and 2 and 5 take
# theta1 of their certificate at b = max d, q = 1 - exp(theta1) or gamma =
# -theta1.  log p(max d) falls with the rate above 1 / max d (0 for gamma):
# the floor caps the rate.

CAP_BISECTIONS = 64  # the cap to a double's spacing, where log L is steep


def _bisect(up, lo, hi, steps):
    """(lo, width) of the bracket around the point of [lo, hi] below which
    ``up`` holds, after ``steps`` halvings."""
    width = hi - lo
    for _ in range(steps):
        width /= 2.0
        lo = lo + width * up(lo + width)
    return lo, width


def _floor_capped(build, log_l, lo, rate):
    """(params, log-likelihood, converged) at the rate, or where the floor
    rejects it, at the largest rate above ``lo`` that the floor allows."""
    value = log_l(rate)
    if value == NEG_INF:
        rate, _ = _bisect(lambda x: log_l(x) > NEG_INF, lo, rate,
                          CAP_BISECTIONS)
        value = log_l(rate)
    return build(float(rate)), float(value), True


def _geometric_fit(sample):
    return _floor_capped(GeometricParams, _geometric_bind(sample, None, None),
                         1.0 / sample.max_d, _rate_init(sample))


def _rate_fit(model, sample):
    """Model 2 or 5 at theta1 of its row's certificate at b = max d, which
    the sample's memo must hold (``estimation.fit`` certifies the row
    first): q = 1 - exp(theta1), capped above 1 / max d, or gamma = 0.0 -
    theta1 (never -0.0), capped above 0."""
    d_max, zeta = sample.max_d, model is Model.ZETA_TRUNC
    theta1 = float(sample.memo[_certify, model][0, 0])
    return _floor_capped(partial(model.spec.params, d_max=d_max),
                         model.spec.bind(sample, None, d_max),
                         *((0.0, 0.0 - theta1) if zeta else (
                             1.0 / d_max, _clamp_q(-math.expm1(theta1)))))


# ---------------------------------------------------------------------------
# Starting values of the two-regime searches, from the sample and the break
# point
# ---------------------------------------------------------------------------

def _clamp_q(value: float) -> float:
    return min(max(value, EPS), 1.0 - EPS)


def _q_init_from_slope(slope: float | None, fallback: float) -> float:
    if slope is None:
        return _clamp_q(fallback)
    if slope >= 0:
        # A flat or rising tail gives a slope with no geometric reading.
        return EPS
    return _clamp_q(1.0 - math.exp(slope))


def _rate_init(sample: DistanceSample) -> float:
    """The inverse mean distance."""
    return _clamp_q(sample.total / sample.weighted_sum)


def _start_columns(sample):
    """The support (list, floats), log(f/N), f log(d/min d) and 1/mean d."""
    d = sample.support.astype(float)
    return (sample.support.tolist(), d, np.log(sample.counts / sample.total),
            sample.counts * np.log(d / d[0]), _rate_init(sample))


def _regression_slope(d, y) -> float | None:
    """Least-squares slope of y on d; None below two points."""
    if len(d) < 2:
        return None
    # ndarray.mean's sum and division, without its wrapper.
    d_mean, y_mean = d.sum() / len(d), y.sum() / len(y)
    spread = d - d_mean
    return float((spread * (y - y_mean)).sum() / (spread ** 2).sum())


def _regime_q_inits(sample, break_point) -> tuple[float, float]:
    """Log-frequency regression slopes over d <= and d >= break_point."""
    support, d, y, _, q_global = _part(sample, _start_columns)
    sides = (slice(bisect.bisect_right(support, break_point)),
             slice(bisect.bisect_left(support, break_point), None))
    return tuple(_q_init_from_slope(_regression_slope(d[side], y[side]),
                                    q_global) for side in sides)


def _zeta_geometric_init(sample, break_point) -> tuple[float, float]:
    """1 + N* / sum(f(d) log(d / min(d))) over d <= break_point, and the
    inverse mean of the distances beyond it (or of all, without any)."""
    support, _, _, log_ratios, q_global = _part(sample, _start_columns)
    n_star, m_star, _ = sample.stats_upto(break_point)
    head = log_ratios[:bisect.bisect_right(support, break_point)]
    n_tail = sample.total - n_star
    return (1.0 + float(n_star) / float(head.sum()),
            _clamp_q(n_tail / (sample.weighted_sum - m_star)) if n_tail
            else q_global)


# ---------------------------------------------------------------------------
# The spec table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One model.  ``log_pmf(params, d, d_max)`` works on a float array;
    ``bind(sample, break_point, d_max)`` takes the sample (the length
    mixture reads its per-length samples) and returns the log-likelihood as
    a function of the continuous values, in field order; ``sampler`` keys
    :data:`sampling.GENERATORS` (None: no sampler).  One-regime rows have
    ``fit(sample)``, which fits without the optimizer; two-regime rows have
    ``init(sample, break_point)``, the optimizer's start, and
    :func:`certificates` bounds their log-likelihood at each break point.

    The length mixture's ``bind`` conditions each distance on the length of
    its sentence, and its ``log_pmf`` is the marginal over the sample's
    dependencies; the other rows' log-likelihood is the sum of their
    ``log_pmf``."""

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

    @cached_property
    def bounds(self) -> tuple[tuple, ...]:
        return tuple(BOUNDS[name] for name in self.continuous)

    def values(self, params: ModelParams) -> list[float]:
        """The continuous values of a parameter object, in field order."""
        return [getattr(params, name) for name in self.continuous]

    @property
    def flags(self) -> tuple[str, ...]:
        """``depdist sample`` flag of each field, in field order."""
        return tuple(FLAGS.get(name, name) for name in self.fields)


#: One row per model, in the canonical ensemble order.
SPECS: dict[Model, ModelSpec] = {
    Model.NULL_FIXED: ModelSpec(
        NullParams, 1, "0", _null_log_pmf, _null_bind,
        None, "null", _null_fit),
    Model.NULL_MIXTURE: ModelSpec(
        MixtureNullParams, 0, "0", _mixture_log_pmf, _mixture_bind,
        None, None, _mixture_fit),
    Model.GEOMETRIC: ModelSpec(
        GeometricParams, 1, "1-2", _geometric_log_pmf,
        _geometric_bind, None, "geometric", _geometric_fit),
    Model.GEOMETRIC_TRUNC: ModelSpec(
        TruncatedGeometricParams, 2, "1-2", _geometric_log_pmf,
        _geometric_bind, None, "geometric",
        partial(_rate_fit, Model.GEOMETRIC_TRUNC)),
    Model.TWO_REGIME_GEOMETRIC: ModelSpec(
        TwoRegimeGeometricParams, 3, "3-4", _two_regime_geometric_log_pmf,
        _two_regime_geometric_bind, _regime_q_inits, "table"),
    Model.TWO_REGIME_GEOMETRIC_TRUNC: ModelSpec(
        TruncatedTwoRegimeGeometricParams, 4, "3-4",
        _two_regime_geometric_log_pmf, _two_regime_geometric_bind,
        _regime_q_inits, "table"),
    Model.ZETA_TRUNC: ModelSpec(
        ZetaParams, 2, "5", _zeta_log_pmf, _zeta_bind,
        None, "zeta", partial(_rate_fit, Model.ZETA_TRUNC)),
    Model.ZETA_GEOMETRIC: ModelSpec(
        ZetaGeometricParams, 3, "6-7", _zeta_geometric_log_pmf,
        _zeta_geometric_bind, _zeta_geometric_init, "table"),
    Model.ZETA_GEOMETRIC_TRUNC: ModelSpec(
        TruncatedZetaGeometricParams, 4, "6-7", _zeta_geometric_log_pmf,
        _zeta_geometric_bind, _zeta_geometric_init, "table"),
}
