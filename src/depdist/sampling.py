"""Random variate generation for every model in the ensemble; every draw
is exact, whatever the support.

Geometric deviates come from inversion (L = 1 + floor(log x / log(1-q))),
with rejection of overshoots for the truncated variant.  Truncated zeta
deviates use the classic rejection scheme with acceptance test
V*X*(T-1)/(b-1) <= T/b, b = 2^(gamma-1), and a table over the whole support
below gamma = 1.  The shuffle null inverts its CDF in closed form.  The
two-regime models search a table over their first regime, 1..b, and invert
their second, a geometric, in closed form.  Each model's spec row names its
generator in :data:`GENERATORS`.
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
    # (0, 1]: keeps log() finite and maps u -> 1 to the smallest deviate.
    return 1.0 - rng.random(size)


def sample_geometric(
    q: float,
    size: int,
    rng: np.random.Generator,
    d_max: int | None = None,
) -> np.ndarray:
    """Geometric deviates on {1, 2, ...} by inversion.

    With ``d_max`` set, overshoots are rejected and redrawn, which yields
    exactly the right-truncated law.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    lam = math.log1p(-q)
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        x = _uniform_open(rng, size - filled)
        draws = 1 + np.floor(np.log(x) / lam).astype(np.int64)
        if d_max is not None:
            draws = draws[draws <= d_max]
        out[filled:filled + len(draws)] = draws
        filled += len(draws)
    return out


def sample_zeta_truncated(
    gamma: float,
    d_max: int,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Right-truncated zeta deviates by rejection (requires gamma > 1)."""
    if gamma <= 1.0:
        raise ValueError("rejection sampler needs gamma > 1")
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    b = 2.0 ** (gamma - 1.0)
    inv_exp = -1.0 / (gamma - 1.0)
    out = np.empty(size, dtype=np.int64)
    filled = 0
    while filled < size:
        block = size - filled
        u = _uniform_open(rng, block)
        v = rng.random(block)
        x = np.floor(u ** inv_exp)
        ok = x <= d_max  # also drops the rare overflow to inf
        x, v = x[ok], v[ok]
        t = (1.0 + 1.0 / x) ** (gamma - 1.0)
        accept = v * x * (t - 1.0) / (b - 1.0) <= t / b
        draws = x[accept].astype(np.int64)
        out[filled:filled + len(draws)] = draws
        filled += len(draws)
    return out


def pmf_table(model: Model, params: ModelParams, top: int) -> np.ndarray:
    """pmf over d = 1..min(d_max, top) as a dense vector."""
    top = min(m.support_upper(model, params) or top, top)
    d = np.arange(1, top + 1, dtype=float)
    return np.asarray(m.pmf(model, params, d))


def sample_tabular(model: Model, params: ModelParams, size: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Exact deviates by inversion: for each uniform u, the least d with
    CDF(d) >= u, by binary search in a cumulative table.

    A one-regime row (the zeta below gamma = 1) tabulates its whole support,
    and a u past the table's rounded total draws d_max.  A two-regime row
    tabulates 1..b only.  Beyond F = CDF(b) its second regime is geometric,
    r = 1 - q_tail, so with K = d_max - b (r^K = 0 without a bound) d = b +
    j for the least j >= 1 with (1 - F)(r^j - r^K)/(1 - r^K) <= 1 - u, at
    most K (Devroye 1986, ch. X).  Without a bound, u = 1 reads as the
    largest u below 1 that the generator makes, 1 - 2^-53.
    """
    b = getattr(params, "break_point", None)
    d_max = m.support_upper(model, params)
    top = d_max if b is None else b
    cdf = np.cumsum(pmf_table(model, params, top))
    u = _uniform_open(rng, size)
    draws = np.minimum(np.searchsorted(cdf, u, side="left"), top - 1) + 1
    if b is None:
        return draws
    tail = u > cdf[-1]
    excess, mass = 1.0 - u[tail], 1.0 - cdf[-1]
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


def _draw_geometric(model, params, size, rng) -> np.ndarray:
    return sample_geometric(params.q, size, rng,
                            d_max=getattr(params, "d_max", None))


def _draw_zeta(model, params, size, rng) -> np.ndarray:
    if params.gamma > 1.0:
        return sample_zeta_truncated(params.gamma, params.d_max, size, rng)
    return sample_tabular(model, params, size, rng)


#: Generator for each ``ModelSpec.sampler`` name.
GENERATORS = {
    "null": _draw_null,
    "geometric": _draw_geometric,
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
