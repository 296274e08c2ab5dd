"""Random variate generation for every model in the ensemble.

Geometric deviates come from inversion (L = 1 + floor(log x / log(1-q))),
with rejection of overshoots for the truncated variant.  Truncated zeta
deviates use the classic rejection scheme with acceptance test
V*X*(T-1)/(b-1) <= T/b, b = 2^(gamma-1).  The null and two-regime models use
tabular inversion: a cumulative table searched by binary search, with an
explicit 10^6 cutoff for the models whose support is unbounded, built only
as far as it changes.  Each model's spec row names its generator in
:data:`GENERATORS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import models as m
from .models import Model, ModelParams
from .treebank import DistanceSample

DEFAULT_CUTOFF = 10**6
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


@dataclass
class DrawInfo:
    """Bookkeeping for one generated sample."""

    overflow: int = 0  # tabular draws that fell past the cutoff table


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


def pmf_table(model: Model, params: ModelParams,
              cutoff: int = DEFAULT_CUTOFF) -> np.ndarray:
    """pmf over d = 1..min(d_max, cutoff) as a dense vector."""
    top = min(m.support_upper(model, params) or cutoff, cutoff)
    d = np.arange(1, top + 1, dtype=float)
    return np.asarray(m.pmf(model, params, d))


def sample_tabular(
    model: Model,
    params: ModelParams,
    size: int,
    rng: np.random.Generator,
    cutoff: int = DEFAULT_CUTOFF,
    info: DrawInfo | None = None,
) -> np.ndarray:
    """Tabular-inversion deviates located by binary search in the CDF.

    Returns, for each uniform u, the least index c with CDF(c-1) < u <=
    CDF(c), or the smaller of d_max and ``cutoff`` for a u past the table,
    which is counted in ``info.overflow`` (``cutoff_overflow``): its share
    is the model's mass past the cutoff (37% for model 3 with q2 = 1e-6).
    """
    top = min(m.support_upper(model, params) or cutoff, cutoff)
    # The table grows fourfold until its last term no longer moves the
    # sum; every pmf here is non-increasing, so no later term would, and
    # cumsum adds in order: the table is a prefix of the full one.
    length = 1024
    cdf = np.cumsum(pmf_table(model, params, min(length, top)))
    while len(cdf) < top and cdf[-1] != cdf[-2]:
        length *= 4
        cdf = np.cumsum(pmf_table(model, params, min(length, top)))
    u = _uniform_open(rng, size)
    idx = np.searchsorted(cdf, u, side="left")
    overflow = int((idx >= len(cdf)).sum())
    if overflow and info is not None:
        info.overflow += overflow
    return np.where(idx < len(cdf), idx, top - 1).astype(np.int64) + 1


def _draw_geometric(model, params, size, rng, cutoff, info) -> np.ndarray:
    return sample_geometric(params.q, size, rng,
                            d_max=getattr(params, "d_max", None))


def _draw_zeta(model, params, size, rng, cutoff, info) -> np.ndarray:
    if params.gamma > 1.0:
        return sample_zeta_truncated(params.gamma, params.d_max, size, rng)
    # The rejection scheme needs gamma > 1; the truncated table covers the
    # rest of the parameter domain.
    return sample_tabular(model, params, size, rng, cutoff, info)


#: Generator for each ``ModelSpec.sampler`` name.
GENERATORS = {
    "geometric": _draw_geometric,
    "zeta": _draw_zeta,
    "table": sample_tabular,
}


def draw_sample(
    model: Model,
    params: ModelParams,
    size: int,
    seed: int | np.random.Generator = DEFAULT_SEED,
    cutoff: int = DEFAULT_CUTOFF,
    info: DrawInfo | None = None,
) -> DistanceSample:
    """Generate a frequency-table sample from a model."""
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    sampler = model.spec.sampler
    if sampler is None:
        raise ValueError(f"model {model.id} has no sampler")
    values = GENERATORS[sampler](model, params, size, rng, cutoff, info)
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
