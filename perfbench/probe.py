"""A fixed CPU probe that tracks the speed of the machine during a run.

On a shared host the same pass can take 40% longer a few minutes later
(identical validate passes took 5.4 to 9.7 s within five minutes).  The
benchmark therefore times this probe, which uses no depdist code, next to
every measurement and scales each time to the probe's reference speed:
``time * REFERENCE_S / probe_s``.  A change to the program moves the
scaled time; a change in the speed of the host moves the probe too and
cancels out.

The probe mixes the three kinds of work the program does, in about
equal shares: interpreter-bound Python (dict and integer operations),
small numpy array operations like a log-likelihood evaluation, and
scipy's bounded L-BFGS-B on a smooth two-parameter objective.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

REFERENCE_S = 0.16  # probe time that scaled times are expressed in


def _python_work() -> int:
    table: dict[int, int] = {}
    for i in range(350_000):
        key = i % 251
        table[key] = table.get(key, 0) + (i * i) % 7
    return len(table)


def _numpy_work() -> float:
    d = np.arange(1.0, 61.0)
    total = 0.0
    for q in np.linspace(0.01, 0.99, 9_000):
        total += float(np.sum(np.log1p(-q) * (d - 1.0) + np.log(q)))
    return total


def _scipy_work() -> float:
    d = np.arange(1.0, 61.0)
    weights = np.exp(-0.3 * d)

    def objective(x):
        return float(np.sum(weights * (np.log1p(-x[0]) * (d - 1.0)
                                       - x[1] * np.log(d)) ** 2))

    total = 0.0
    for start in np.linspace(0.1, 0.9, 100):
        result = minimize(objective, [start, 1.0 - start], method="L-BFGS-B",
                          bounds=[(1e-8, 1 - 1e-8), (0.0, 5.0)])
        total += result.fun
    return total


def probe() -> float:
    """Wall time of one run of the fixed probe work, in seconds."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    _scipy_work()
    return time.perf_counter() - start
