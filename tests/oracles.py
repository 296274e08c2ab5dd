"""Independent oracles for the minimum linear arrangement.

Both are exponential and serve only as references for
:func:`depdist.arrangement.min_arrangement_cost`: a DP over every prefix
set of vertices (``np.bitwise_count`` needs numpy >= 2.0), and a brute
force over every ordering.
"""

from __future__ import annotations

import numpy as np


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
