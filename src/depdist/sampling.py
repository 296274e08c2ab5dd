"""Random variate generation for every model in the ensemble; every draw
is exact, whatever the support, and no parameter makes a draw hang.

Three generators, named by each model's spec row in :data:`GENERATORS`:
the shuffle null inverts its CDF in closed form; the truncated zeta draws
by rejection-inversion; the geometric and two-regime models search a table
over their first regime, 1..b (empty for the geometric, b = 0), and invert
the geometric run beyond b in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from . import models as m
from .models import Model, ModelParams
from .treebank import DistanceSample

DEFAULT_SEED = 20260808
SUITE_SIZE = 10**4
GENERATOR_NAME = "numpy.random.default_rng (PCG64)"  # recorded in reports

#: Generation parameters of the reference validation suite (one sample per
#: model; d_max = 19 corresponds to 20-word sentences).
REFERENCE_PARAMS: dict[Model, ModelParams] = {
    Model.NULL_FIXED: m.NullParams(19),
    Model.GEOMETRIC: m.GeometricParams(0.2),
    Model.GEOMETRIC_TRUNC: m.TruncatedGeometricParams(0.2, 19),
    Model.TWO_REGIME_GEOMETRIC: m.TwoRegimeGeometricParams(0.5, 0.1, 4),
    Model.TWO_REGIME_GEOMETRIC_TRUNC:
        m.TruncatedTwoRegimeGeometricParams(0.5, 0.1, 4, 19),
    Model.ZETA_TRUNC: m.ZetaParams(1.6, 19),
    Model.ZETA_GEOMETRIC: m.ZetaGeometricParams(1.6, 0.2, 4),
    Model.ZETA_GEOMETRIC_TRUNC:
        m.TruncatedZetaGeometricParams(1.6, 0.2, 4, 19),
}


def _uniform_open(rng: np.random.Generator, size: int) -> np.ndarray:
    # (0, 1]: u -> 1 draws the largest deviate, and rejection-inversion's
    # proposals stay below H(d_max + 1/2).
    return 1.0 - rng.random(size)


def pmf_table(model: Model, params: ModelParams, top: int) -> np.ndarray:
    """pmf over d = 1..min(d_max, top) as a dense vector."""
    top = min(m.support_upper(model, params) or top, top)
    d = np.arange(1, top + 1, dtype=float)
    return np.asarray(m.pmf(model, params, d))


def sample_tabular(model: Model, params: ModelParams, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Exact deviates by inversion: for each uniform u, the least d with
    CDF(d) >= u.

    A two-regime row searches a cumulative table over its first regime,
    1..b; the geometric rows (1, 2) have no first regime, b = 0.  Beyond
    F = CDF(b) (0 for an empty head) the law is geometric, r = 1 - q, so
    with K = d_max - b (r^K = 0 without a bound) d = b + j for the least
    j >= 1 with (1 - F)(r^j - r^K)/(1 - r^K) <= 1 - u, at most K (Devroye
    1986, ch. X).  Without a bound, u = 1 reads as the largest u below 1
    that the generator makes, 1 - 2^-53.
    """
    b = getattr(params, "break_point", 0)
    d_max = m.support_upper(model, params)
    cdf = np.cumsum(pmf_table(model, params, b))
    head = cdf[-1] if b else 0.0
    u = _uniform_open(rng, size)
    draws = np.searchsorted(cdf, u, side="left") + 1
    tail = u > head
    excess, mass = 1.0 - u[tail], 1.0 - head
    log_r = math.log1p(-m.tail_rate(params))
    if d_max is None:
        span, x = math.inf, np.maximum(excess, 2.0**-53) / mass
    else:
        span = d_max - b
        x = excess * -math.expm1(span * log_r) / mass + math.exp(span * log_r)
    with np.errstate(divide="ignore"):  # u = 1 with r^K = 0: j = K
        draws[tail] = b + np.clip(np.ceil(np.log(x) / log_r), 1, span)
    return draws


def _draw_null(model, params, size, rng) -> np.ndarray:
    """Shuffle-null deviates by closed-form inversion: with D = d_max, the
    least d with F(d) = d(2D + 1 - d)/(D(D + 1)) >= u is the ceiling of the
    smaller root of a quadratic, written so that nothing cancels:
    2uD(D + 1)/(2D + 1 + sqrt(1 + 4D(D + 1)(1 - u)))."""
    d_max, u = params.d_max, _uniform_open(rng, size)
    c = d_max * (d_max + 1.0)
    root = 2.0 * u * c / (2.0 * d_max + 1.0
                          + np.sqrt(1.0 + 4.0 * c * (1.0 - u)))
    return np.clip(np.ceil(root), 1, d_max).astype(np.int64)


def _ratio(f, z, series):
    """f(z)/z, or its series where |z| < 1e-8, where the quotient cancels."""
    small = np.abs(z) < 1e-8
    safe = np.where(small, 1.0, z)
    return np.where(small, series, f(safe) / safe)


def _draw_zeta(model, params, size, rng) -> np.ndarray:
    """Truncated zeta deviates by rejection-inversion (Hoermann and
    Derflinger, ACM TOMACS 6(3), 1996), for every gamma >= 0 and d_max.

    With h(x) = x^-gamma and H(x) the integral of h from 1 to x, a proposal
    y, uniform on [H(3/2) - 1, H(d_max + 1/2)), draws k = H^-1(y) rounded,
    and is kept if y >= H(k + 1/2) - h(k); so d = 1 takes the first unit of
    the interval and each k > 1 an interval under the hat of the convex h.
    The hat over k > 1 lies under h(k - 1), so its area is at most 1 +
    sum h(k): at least half of the proposals are kept, on any parameters.
    H and H^-1 use the log1p/expm1 forms of Apache Commons RNG's
    ``RejectionInversionZipfSampler``, which do not cancel near gamma = 1.
    """
    gamma, d_max = params.gamma, params.d_max

    def integral(x):  # H(x) = log x expm1(s)/s, s = (1 - gamma) log x
        log_x = np.log(x)
        s = (1 - gamma) * log_x
        return log_x * _ratio(np.expm1, s,
                              1 + s / 2 * (1 + s / 3 * (1 + s / 4)))

    def inverse(y):  # H^-1(y) = exp(y log1p(t)/t), t = (1 - gamma) y
        t = np.maximum((1 - gamma) * y, -1.0)
        # Rounding near H(inf) can reach t = -1, so H^-1 = inf: k = d_max,
        # which the acceptance test judges.
        with np.errstate(divide="ignore"):
            return np.exp(y * _ratio(np.log1p, t,
                                     1 - t * (1 / 2 - t * (1 / 3 - t / 4))))

    top, low = integral(d_max + 0.5), integral(1.5) - 1.0
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        y = top + _uniform_open(rng, size - filled) * (low - top)
        k = np.clip(np.floor(inverse(y) + 0.5), 1, d_max)
        draws = k[y >= integral(k + 0.5) - k ** -gamma].astype(np.int64)
        out[filled:filled + len(draws)] = draws
        filled += len(draws)
    return out


#: Generator for each ``ModelSpec.sampler`` name.
GENERATORS = {
    "null": _draw_null,
    "zeta": _draw_zeta,
    "table": sample_tabular,
}


def draw_sample(
    model: Model,
    params: ModelParams,
    size: int,
    seed: int | np.random.Generator = DEFAULT_SEED,
) -> DistanceSample:
    """Generate a frequency-table sample from a model."""
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    sampler = model.spec.sampler
    if sampler is None:
        raise ValueError(f"model {model.id} has no sampler")
    values = GENERATORS[sampler](model, params, size, rng)
    return DistanceSample.from_values(values)


def generate_validation_suite(
    seed: int = DEFAULT_SEED,
    size: int = SUITE_SIZE,
) -> dict[Model, DistanceSample]:
    """One sample per model at the reference generation parameters.

    Each model draws from its own spawned RNG stream, so the suite is
    reproducible as a whole and per model.
    """
    streams = np.random.SeedSequence(seed).spawn(len(REFERENCE_PARAMS))
    suite: dict[Model, DistanceSample] = {}
    for stream, (model, params) in zip(streams,
                                       sorted(REFERENCE_PARAMS.items(),
                                              key=lambda kv: kv[0].order)):
        rng = np.random.default_rng(stream)
        suite[model] = draw_sample(model, params, size, rng)
    return suite


# ---------------------------------------------------------------------------
# Sample files: two columns (d, count) plus metadata header comments
# ---------------------------------------------------------------------------

def write_sample_csv(path, sample: DistanceSample, *, model=None,
                     params=None, seed=None, extra=None) -> None:
    lines = []
    meta = {}
    if model is not None:
        meta["model"] = model.id if isinstance(model, Model) else str(model)
    if params is not None:
        meta.update(m.params_dict(params))
    if seed is not None:
        meta["seed"] = seed
        meta["generator"] = GENERATOR_NAME
    if extra:
        meta.update(extra)
    for key, value in meta.items():
        lines.append(f"# {key}={value}")
    lines.append("d,count")
    for d in sorted(sample.freq):
        lines.append(f"{d},{sample.freq[d]}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_sample_csv(path, *, language=None, collection=None,
                    length_class=None) -> tuple[DistanceSample, dict]:
    freq: dict[int, int] = {}
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value.strip()
                continue
            if line.lower().startswith("d,"):
                continue
            d_text, _, count_text = line.partition(",")
            freq[int(d_text)] = int(count_text)
    sample = DistanceSample(freq, language=language, collection=collection,
                            length_class=length_class)
    return sample, meta
