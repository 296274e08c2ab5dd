"""Independent oracles.

For the minimum linear arrangement, two exponential references for
:func:`depdist.arrangement.min_arrangement_cost`: a DP over every prefix
set of vertices (``np.bitwise_count`` needs numpy >= 2.0), and a brute
force over every ordering.

For the break-point scan of the two-regime fits, the exhaustive scan that
:func:`depdist.estimation.fit` prunes, and the constrained log-likelihood
on a dense parameter grid, written from the pmf's definition.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from depdist import estimation as est


def _minla_subsets_dp(edges: list[tuple[int, int]], n: int) -> int:
    """Exact DP over all 2^n prefix sets (test oracle)."""
    dtype = np.int32 if n < 31 else np.int64
    size = 1 << n
    masks = np.arange(size, dtype=dtype)
    cut = np.zeros(size, dtype=np.int16)
    for u, v in edges:
        cut += (((masks >> u) ^ (masks >> v)) & 1).astype(np.int16)

    big = np.iinfo(np.int32).max // 4
    cost = np.full(size, big, dtype=np.int32)
    cost[0] = 0
    popcounts = np.bitwise_count(masks)
    for k in range(1, n + 1):
        layer = masks[popcounts == k]
        best = np.full(len(layer), big, dtype=np.int32)
        for bit in range(n):
            has = (layer >> bit) & 1 == 1
            prev = layer[has] ^ dtype(1 << bit)
            cand = cost[prev] + cut[prev]
            best[has] = np.minimum(best[has], cand)
        cost[layer] = best
    # cost[full] has accumulated cut(S) over every proper prefix, which is
    # exactly the arrangement length.
    return int(cost[size - 1])


_PERM_CACHE: dict[int, np.ndarray] = {}


def _all_positions(n: int) -> np.ndarray:
    # Rows are position vectors; the set of all permutations is closed
    # under inversion, so minimizing over rows covers every arrangement.
    if n not in _PERM_CACHE:
        from itertools import permutations

        _PERM_CACHE[n] = np.array(
            list(permutations(range(n))), dtype=np.int8
        )
    return _PERM_CACHE[n]


def brute_force_min_arrangement(
    edges: list[tuple[int, int]], n: int
) -> int:
    """Reference minimum by trying every ordering (test oracle, n <= 10)."""
    if n <= 1:
        return 0
    pos = _all_positions(n)
    total = np.zeros(len(pos), dtype=np.int32)
    for u, v in edges:
        total += np.abs(pos[:, u].astype(np.int32) - pos[:, v])
    return int(total.min())


def exhaustive_break_scan(model, sample):
    """(params, log_l, converged) of the search at every break point of the
    grid, the first strict maximum kept."""
    best = None
    for bp in est._break_grid(sample):
        fitted = est._optimize(model, sample, bp)
        if best is None or fitted[1] > best[1]:
            best = fitted
    return best


def dense_grid_max(model, sample, bp, size=64):
    """Largest log-likelihood of a two-regime model at break point ``bp``
    over a size x size grid of its continuous parameters: q1 or gamma (0 to
    20) for the first regime, q2 or q for the tail, each q on a logistic
    grid inside [1e-8, 1 - 1e-8].  The pmf is the first regime's weight
    h(d) up to bp and h(bp) (1 - q2)^(d - bp) beyond it, normalized over
    1..max d for truncated models and over every d otherwise."""
    q = 1.0 / (1.0 + np.exp(-np.linspace(-18.0, 18.0, size)))
    first = (np.linspace(0.0, 20.0, size) if model.family == "6-7" else q)
    first, q2 = (a.ravel() for a in np.meshgrid(first, q))
    d_head = np.arange(1, bp + 1, dtype=float)
    if model.family == "6-7":
        log_h = -first[:, None] * np.log(d_head)
    else:
        log_h = (d_head - 1) * np.log1p(-first)[:, None]
    log1m_q2 = np.log1p(-q2)
    # Tail mass beyond bp, relative to h(bp): sum of (1 - q2)^j, j >= 1.
    log_tail = log1m_q2 - np.log(q2)
    if model.is_truncated:
        log_tail += np.log(-np.expm1((sample.max_d - bp) * log1m_q2))
    log_z = np.logaddexp(logsumexp(log_h, axis=1), log_h[:, -1] + log_tail)
    d, f = sample.support, sample.counts.astype(float)
    head = d <= bp
    log_l = (log_h[:, d[head] - 1] @ f[head]
             + f[~head].sum() * log_h[:, -1]
             + ((d[~head] - bp) @ f[~head]) * log1m_q2
             - sample.total * log_z)
    return float(log_l.max())
