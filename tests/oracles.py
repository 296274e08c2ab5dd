"""Independent oracles.

For the minimum linear arrangement, two exponential references for
:func:`depdist.arrangement.min_arrangement_cost`: a DP over every prefix
set of vertices (``np.bitwise_count`` needs numpy >= 2.0), and a brute
force over every ordering.  Both take 0-based edge lists; :func:`edges`
turns a head vector into one.  For sentences too long for them, the
sequential work-list solver that the lock-step solver replaced: Chung's
recursion on one sentence at a time, with adjacency sets.

For the break-point scan of the two-regime fits, the exhaustive scan that
:func:`depdist.estimation.fit` prunes and the constrained log-likelihood on
a dense parameter grid, written from the pmf's definition.
For their certificates, the run moments summed term by term, as they were
before closed forms replaced them.
For their searches, the starting values as they were computed before the
starts read cached slices, and the log-likelihood as one function of both
values, before it was factored into one part per value.
For the one-regime fits of models 1, 2 and 5, the log-likelihood on a
dense grid of the rate, within the floor on log p(max d), written from the
pmf likewise, and the fits of models 2 and 5 by the 40-step bisection that
Newton steps replaced, on the rows' own curves (value, slope and curvature
in the rate).  For the uniform-shuffle null (model 0.0), a scan of every
bound that decides each step of the likelihood exactly, in integers.

For CoNLL-U parsing, the line-by-line reader and the per-tree checks that
:func:`depdist.treebank.parse_conllu` replaced with its array pass.

For the samplers, a chi-square goodness-of-fit test of a sample against a
model's pmf.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

import numpy as np
from scipy.special import logsumexp

from depdist import estimation as est
from depdist import models as m
from depdist.models import Model, ModelParams
from depdist.sampling import pmf_table
from depdist.treebank import (
    ConlluFormatError,
    DistanceSample,
    StructuralIssue,
    TreeStructureError,
)


def edges(heads) -> list[tuple[int, int]]:
    """Dependency edges of a 1-based head vector as 0-based vertex pairs
    (dependent, head)."""
    return [(pos - 1, head - 1)
            for pos, head in enumerate(heads, start=1) if head != 0]


def fraction_average_omega(vectors) -> dict[int, tuple[Fraction | None,
                                                       int, int]]:
    """(mean score, scored, skipped) per sentence length of the head
    vectors, each score an exact fraction with its minimum from the subset
    DP (test oracle for :func:`depdist.optimality.average_omega`)."""
    groups: dict[int, tuple[list[Fraction], list[int]]] = {}
    for heads in vectors:
        n = len(heads)
        scores, skipped = groups.setdefault(n, ([], []))
        d = sum(abs(pos - head)
                for pos, head in enumerate(heads, start=1) if head != 0)
        denominator = n * n - 1 - 3 * _minla_subsets_dp(edges(heads), n)
        if denominator:
            scores.append(Fraction(n * n - 1 - 3 * d, denominator))
        else:
            skipped.append(n)
    return {n: (sum(scores) / len(scores) if scores else None, len(scores),
                len(skipped)) for n, (scores, skipped) in groups.items()}


def worklist_min_arrangement(heads) -> int:
    """Minimum linear arrangement of one sentence by Chung's recursion,
    one part at a time (test oracle; the package's solver before it ran in
    lock-step over a treebank).

    A work list of pending parts replaces recursion; the tree is one copy,
    adjacency sets from which steps cut edges, with subtree sizes relative
    to each pending part's root.  Where case B may hold, a step marks the
    log of cut edges; once the work list has solved case A, case B is
    tried unless its lower bound rules it out: the edges cut since the
    mark are re-joined, the part is re-rooted at h, and a nested work list
    solves case B's parts.
    """
    heads = list(map(int, heads))
    n = len(heads)
    if heads.count(0) != 1:
        raise ValueError("a tree has exactly one root")
    adj: list[set[int]] = [set() for _ in range(n)]
    for dependent, head in enumerate(heads):
        if head:
            if not 0 < head <= n or head == dependent + 1:
                raise ValueError(f"token {dependent + 1} has head {head}")
            adj[dependent].add(head - 1)
            adj[head - 1].add(dependent)
    size = [1] * n
    if _worklist_rooted(adj, size, heads.index(0)) != n:
        raise ValueError("the heads form a cycle")
    cuts: list[tuple[int, int]] = []  # cut while case B markers wait
    pending = 0

    def cut(h: int, c: int) -> None:
        adj[h].discard(c)
        adj[c].discard(h)
        size[h] -= size[c]
        if pending:
            cuts.append((h, c))

    def solve(work: list[tuple]) -> int:
        nonlocal pending
        cost = 0
        while work:
            item = work.pop()
            if len(item) > 2:  # case A of this part is solved: try case B
                h, m, blocks, crossing, mark, start = item
                pending -= 1
                if crossing + m - len(blocks) - 1 < cost - start:
                    for x, y in cuts[mark:]:
                        adj[x].add(y)
                        adj[y].add(x)
                    del cuts[mark:]
                    _worklist_rooted(adj, size, h)
                    for c in blocks:
                        cut(h, c)
                    cost = min(cost, start + crossing + solve(
                        [(c, True) for c in blocks] + [(h, False)]))
                continue
            h, anchored = item
            m = size[h]
            if m <= 2:
                cost += m - 1
                continue
            if not anchored:  # walk to the centroid, re-rooting
                while True:
                    for c in adj[h]:
                        if 2 * size[c] > m:
                            size[h] = m - size[c]
                            h = c
                            break
                    else:
                        break
                size[h] = m
            c0, s0, s1, s2 = -1, 0, 0, 0
            for c in adj[h]:
                if size[c] > s2:
                    if size[c] > s1:
                        if size[c] > s0:
                            c0, s0, s1, s2 = c, size[c], s0, s1
                        else:
                            s1, s2 = size[c], s1
                    else:
                        s2 = size[c]
            blocks, crossing = (
                _worklist_case_b(adj[h] - {c0}, m, anchored, size)
                if 2 * s1 > s0 + 1 and (anchored and 3 * s1 > m
                                        or s1 + len(adj[h]) * s2 > m)
                else ((), 0))
            if blocks:
                work.append((h, m, blocks, crossing, len(cuts), cost))
                pending += 1
            cut(h, c0)
            cost += size[h] if anchored else 1
            work += [(c0, True), (h, not anchored)]
        return cost

    return solve([(heads.index(0), False)])


def _worklist_rooted(adj, size, r) -> int:
    """Subtree sizes of r's component rooted at r; its number of
    vertices."""
    order, up = [r], [-1]
    for x, p in zip(order, up):
        size[x] = 1
        for y in adj[x]:
            if y != p:
                order.append(y)
                up.append(x)
    for i in range(len(order) - 1, 0, -1):
        size[up[i]] += size[order[i]]
    return len(order)


def _worklist_case_b(near, m, anchored, size):
    """Case B's blocks among ``near`` (largest j of its parity with
    2|T_j| > |C|) and what the edges from h cross."""
    ranked = sorted(near, key=size.__getitem__, reverse=True)
    centre, j = m, 0
    for i, c in enumerate(ranked, start=1):
        centre -= size[c]
        if i % 2 == anchored and 2 * size[c] > centre:
            j, crossing = i, (i + 1) // 2 * centre + i // 2
    if not j:
        return [], 0
    return ranked[:j], crossing + sum(
        (i - 1 + anchored) // 2 * size[c]
        for i, c in enumerate(ranked[:j], start=1))

@cache
def _subset_layers(n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """The subsets of n words as bit masks (0 to 2^n - 1), each word's bit,
    and the nonempty masks by size, one array per size 1..n: the subset
    DP's tables, which depend on n alone."""
    dtype = np.int32 if n < 31 else np.int64
    masks = np.arange(1 << n, dtype=dtype)
    by_size = np.split(
        masks[np.argsort(np.bitwise_count(masks), kind="stable")],
        np.cumsum([math.comb(n, k) for k in range(n)]))
    return masks, dtype(1) << np.arange(n, dtype=dtype), by_size[1:]


def _minla_subsets_dp(edges: list[tuple[int, int]], n: int) -> int:
    """Exact DP over all 2^n prefix sets (test oracle).

    An arrangement's length is the sum of cut(S), the edges leaving S,
    over its proper prefixes S, so the least length that puts the words of
    S first is cost(S) = min over words w of S of cost(S - w) + cut(S - w),
    with cost of the empty set 0.  The sets are solved by size.  Each
    reads S ^ w for every word w; where w is not in S that is a larger
    set, still at the start value, so only S's own words count."""
    masks, bits, layers = _subset_layers(n)
    # cut(S + w) = cut(S) + deg(w) - 2 |N(w) & S| for S of words below w.
    neighbours = [0] * n
    for u, v in edges:
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    cut = np.zeros(1 << n, dtype=np.int32)
    for w, near in enumerate(neighbours):
        low = 1 << w
        inside = np.bitwise_count(masks[:low] & near).astype(np.int32)
        cut[low:2 * low] = cut[:low] + near.bit_count() - 2 * inside
    # through(S) = cost(S) + cut(S); cut of the full set is 0.
    through = np.full(1 << n, np.iinfo(np.int32).max // 4, dtype=np.int32)
    through[0] = 0
    for layer in layers:
        cost = through[bits[:, None] ^ layer].min(axis=0)
        through[layer] = cost + cut[layer]
    return int(cost[0])


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


def exhaustive_searches(model, sample):
    """(params, log_l, converged) of the search at every break point of the
    grid."""
    return [est._optimize(model, sample, bp) for bp in est._break_grid(sample)]


def exhaustive_break_scan(model, sample, searches=None):
    """The first strict maximum of the search at every break point of the
    grid (of ``searches``, :func:`exhaustive_searches`'s result, if given)."""
    best = None
    for fitted in searches or exhaustive_searches(model, sample):
        if best is None or fitted[1] > best[1]:
            best = fitted
    return best


FIT_BISECTIONS = 40


def _truncated_geometric(n, offsets, k):
    """The log-likelihood of n distances whose offsets from the first of k
    support points sum to ``offsets``, in theta = log(1 - q): a function
    that returns its value, slope and curvature.  The slope is ``offsets``
    less n times the mean offset, the curvature -n times the offset's
    variance."""
    def curve(theta):
        r, a = np.exp(theta), -np.expm1(theta)
        rk, ak = np.exp(k * theta), -np.expm1(k * theta)
        ratio, ratio_k = r / a, k * rk / ak  # the mean offset's two terms
        return (theta * offsets - n * np.log(ak / a),
                offsets - n * (ratio - ratio_k),
                n * (ratio_k * k / ak - ratio / a))
    return curve


def _truncated_zeta(n, log_sum, log_k):
    """The log-likelihood of n distances whose logs sum to ``log_sum``, in
    gamma: a function that returns its value, slope and curvature.  The
    slope is n times the mean log k less ``log_sum``, the curvature -n
    times the variance of log k."""
    log_k2 = log_k * log_k

    def curve(gamma):
        w = np.exp(-gamma * log_k)
        z, first = w.sum(), w @ log_k
        mean = first / z
        return (-gamma * log_sum - n * np.log(z),
                n * first / z - log_sum,
                n * (mean * mean - (w @ log_k2) / z))
    return curve


def bisection_rate(model, sample, d_max=None):
    """The rate of model 2 or 5 with truncation bound ``d_max`` (max d by
    default), unconstrained by the floor: 40 bisections on the sign of the
    slope of its log-likelihood (:func:`_truncated_geometric` and
    :func:`_truncated_zeta`), q to 1e-12 and gamma to 6e-11.  The fits'
    first solver, before Newton steps replaced it."""
    n, d_max = sample.total, sample.max_d if d_max is None else d_max
    if model is m.Model.ZETA_TRUNC:
        curve = _truncated_zeta(n, sample.log_weighted_sum,
                                np.log(np.arange(1, d_max + 1)))
        rate, _ = m._bisect(lambda g: curve(g)[1] > 0, 0.0, m.GAMMA_TOP,
                            FIT_BISECTIONS)
    else:
        curve = _truncated_geometric(n, sample.weighted_sum - n, d_max)
        rate, _ = m._bisect(lambda q: curve(math.log1p(-q))[1] < 0,
                            *m.Q_BOUNDS, FIT_BISECTIONS)
    return rate


def bisection_fit(model, sample):
    """(params, log_l, converged) of model 2 or 5 as the bisection fitted
    it: :func:`bisection_rate`, capped by the floor on log p(max d)."""
    d_max, zeta = sample.max_d, model is m.Model.ZETA_TRUNC
    return m._floor_capped(
        partial(m.ZetaParams if zeta else m.TruncatedGeometricParams,
                d_max=d_max),
        (m._zeta_bind if zeta else m._geometric_bind)(sample, None, d_max),
        0.0 if zeta else 1.0 / d_max, bisection_rate(model, sample))


def null_maximizers(sample) -> range:
    """The bounds D in [max d, 2 max d - 1] at which the uniform-shuffle
    null's likelihood L(D) = prod_d (2 (D + 1 - d) / (D (D + 1)))^f(d) is
    largest, by a scan of every bound.  L(D + 1) > L(D) exactly when the
    integer prod_d (D + 2 - d)^f(d) D^N exceeds prod_d (D + 1 - d)^f(d) (D
    + 2)^N.  The scan compares these integers wherever the double log of
    their ratio, from differences of logs, is within 1e-9 N of 0 (its
    rounding is below 1e-13 N), and reads the double's sign elsewhere.  It
    checks that L falls at D = 2 max d - 1 and that the steps' signs never
    rise, so that the bounds where the sign turns are all the maxima."""
    lo, n = sample.max_d, sample.total
    freq = list(zip(sample.support.tolist(), sample.counts.tolist()))
    bounds = np.arange(lo, 2 * lo, dtype=float)
    logs = np.log(bounds[:, None] + 2.0 - sample.support) \
        - np.log(bounds[:, None] + 1.0 - sample.support)
    steps = logs @ sample.counts - n * (np.log(bounds + 2.0) - np.log(bounds))
    signs = np.sign(steps).astype(int)
    for i in np.flatnonzero(np.abs(steps) <= 1e-9 * n).tolist():
        bound = lo + i
        rise = math.prod((bound + 2 - d) ** f for d, f in freq) * bound ** n
        fall = math.prod((bound + 1 - d) ** f for d, f in freq) \
            * (bound + 2) ** n
        signs[i] = (rise > fall) - (rise < fall)
    assert signs[-1] < 0 and (np.diff(signs) <= 0).all(), signs
    return range(lo + int((signs > 0).sum()), lo + int((signs >= 0).sum()) + 1)


# ---------------------------------------------------------------------------
# The starting values of the two-regime searches and their log-likelihoods
# as they were computed before the starts read cached slices and the
# log-likelihoods were factored, kept as they were.
# ---------------------------------------------------------------------------

def regression_slope(sample, lo=None, hi=None) -> float | None:
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


def regime_q_inits(sample, break_point) -> tuple[float, float]:
    """Log-frequency regression slopes on each side of the break."""
    q_global = m._rate_init(sample)
    b1 = regression_slope(sample, hi=break_point)
    b2 = regression_slope(sample, lo=break_point)
    return (m._q_init_from_slope(b1, q_global),
            m._q_init_from_slope(b2, q_global))


def gamma_init(sample, upto: int) -> float:
    """Power-law exponent estimate 1 + N / sum(f(d) log(d / min(d))) over
    the distances up to ``upto``, a break point: two of them are distinct."""
    mask = sample.support <= upto
    support = sample.support[mask].astype(float)
    counts = sample.counts[mask]
    denom = float((counts * np.log(support / support[0])).sum())
    return 1.0 + float(counts.sum()) / denom


def tail_q_init(sample, break_point: int) -> float:
    """Geometric rate init from distances strictly beyond the break."""
    mask = sample.support > break_point
    if not mask.any():
        return m._rate_init(sample)
    n_tail = int(sample.counts[mask].sum())
    m_tail = int((sample.support[mask] * sample.counts[mask]).sum())
    return m._clamp_q(n_tail / m_tail)


def two_regime_init(model, sample, break_point) -> tuple[float, float]:
    """The start of a two-regime search at the break point."""
    if model.family == "6-7":
        return (gamma_init(sample, upto=break_point),
                tail_q_init(sample, break_point))
    return regime_q_inits(sample, break_point)


def run_moments(lengths, log, theta):
    """The direct sums that the certificates' closed forms replaced: for
    runs of T = 0, 1, ..., length - 1 laid end to end (log(T + 1) where
    ``log``), one theta per run, the log of each run's sum of exp(theta
    T) and T's mean and variance under those weights (about the mean),
    each run summed term by term on its own."""
    lengths = np.asarray(lengths)
    firsts = np.cumsum(lengths) - lengths
    t = np.arange(lengths.sum()) - np.repeat(firsts, lengths)
    t = np.where(np.repeat(np.broadcast_to(log, lengths.shape), lengths),
                 np.log1p(t), t)
    w = np.exp(np.repeat(theta, lengths) * t)
    z = np.add.reduceat(w, firsts)
    mean = np.add.reduceat(w * t, firsts) / z
    spread = t - np.repeat(mean, lengths)
    return np.log(z), mean, np.add.reduceat(w * spread * spread, firsts) / z


def _log_constants(tau, s1, s2):
    """(log c1, log c2) with c1 (s1 + tau s2) = 1, c2 = tau c1, or None
    where a double cannot hold them."""
    c1 = 1.0 / (s1 + tau * s2)
    c2 = tau * c1
    if c1 == 0.0 or c2 == 0.0:
        return None
    return math.log(c1), math.log(c2)


def unfactored_log_likelihood(model, sample, bp, d_max):
    """The two-regime log-likelihood at break point ``bp`` as one function
    of its two continuous values, from N*, M*, M'*, N, M and max d."""
    steps, first = sample.max_d - 1, sample.max_d <= bp
    n_star, m_star, log_first = sample.stats_upto(bp)
    n_tail = sample.total - n_star
    zeta = model.family == "6-7"
    ks, log_bp = np.arange(1, bp + 1, dtype=float), math.log(bp)
    log_top = float(np.log(sample.max_d))

    def tail_sum(log1m_q, q):
        if d_max is None:
            return math.exp(bp * log1m_q) / q
        return (math.exp(bp * log1m_q) - math.exp(d_max * log1m_q)) / q

    def log_l(x1, x2):
        log1m_q2 = math.log1p(-x2)
        if zeta:
            try:
                tau = math.exp(-x1 * log_bp - (bp - 1) * log1m_q2)
            except OverflowError:
                return -math.inf
            s1 = float(np.power(ks, -x1).sum())
        else:
            log1m_q1 = math.log1p(-x1)
            try:
                tau = math.exp((bp - 1) * (log1m_q1 - log1m_q2))
            except OverflowError:
                return -math.inf
            s1 = -math.expm1(bp * log1m_q1) / x1
        logs = _log_constants(tau, s1, tail_sum(log1m_q2, x2))
        if logs is None:
            return -math.inf
        log_c1, log_c2 = logs
        if zeta:
            top = (log_c1 + -x1 * log_top if first
                   else log_c2 + steps * log1m_q2)
        else:
            top = (log_c1 + steps * log1m_q1 if first
                   else log_c2 + steps * log1m_q2)
        if top < m.LOG_TERM_FLOOR:
            return -math.inf
        if zeta:
            return (n_star * log_c1 - x1 * log_first + n_tail * log_c2
                    + (sample.weighted_sum - m_star - n_tail) * log1m_q2)
        return (n_star * log_c1 + n_tail * log_c2
                + (m_star - n_star) * (log1m_q1 - log1m_q2)
                + (sample.weighted_sum - sample.total) * log1m_q2)
    return log_l


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


def dense_grid_max_1d(model, sample, size=1001, zooms=6):
    """Largest log-likelihood of model 1, 2 or 5 over a grid of its rate, q
    on a logistic grid inside [1e-8, 1 - 1e-8] or gamma on [0, 64], zoomed
    ``zooms`` times into the cells beside the best point; grid points where
    log p(max d) falls below the floor are left out.  The pmf is
    q (1 - q)^(d - 1), divided by 1 - (1 - q)^(max d) for model 2, or
    d^-gamma / sum of k^-gamma over k = 1..max d for model 5."""
    d, f = sample.support.astype(float), sample.counts.astype(float)
    zeta = model is m.Model.ZETA_TRUNC
    edge = np.log((1.0 - m.EPS) / m.EPS)
    lo, hi = (0.0, 64.0) if zeta else (-edge, edge)
    best = -np.inf
    for _ in range(zooms + 1):
        u = np.linspace(lo, hi, size)
        if zeta:
            log_k = np.log(np.arange(1, sample.max_d + 1))
            log_p = (-u[:, None] * np.log(d)
                     - logsumexp(-u[:, None] * log_k, axis=1)[:, None])
        else:
            q = np.clip(1.0 / (1.0 + np.exp(-u)), m.EPS, 1.0 - m.EPS)
            log_p = np.log(q)[:, None] + np.log1p(-q)[:, None] * (d - 1.0)
            if model.is_truncated:
                log_p -= np.log(-np.expm1(sample.max_d * np.log1p(-q)))[
                    :, None]
        # The support is sorted: its last column is max d.
        log_l = np.where(log_p[:, -1] < m.LOG_TERM_FLOOR, -np.inf, log_p @ f)
        i = int(np.argmax(log_l))
        best = max(best, float(log_l[i]))
        lo, hi = u[max(i - 1, 0)], u[min(i + 1, size - 1)]
    return best


# ---------------------------------------------------------------------------
# CoNLL-U reference parser: the line-by-line reader and the per-tree checks
# that depdist.treebank.parse_conllu replaced with its array pass, kept as
# they were for the differential tests, but for IDs and HEADs, which must be
# 1 to 18 ASCII digits (_plain_int) where int() took any number.
# ---------------------------------------------------------------------------

log = logging.getLogger("depdist.treebank")

N_COLUMNS = 10
ID_COLUMN = 0
HEAD_COLUMN = 6


@dataclass(frozen=True)
class ReferenceTree:
    """A head vector checked by the reference rules of DepTree."""

    heads: tuple[int, ...]

    def __post_init__(self):
        heads = self.heads
        if type(heads) is not tuple or set(map(type, heads)) != {int}:
            try:
                ints = tuple(map(int, heads))
            except (TypeError, ValueError, OverflowError):
                ints = None
            if ints is None or ints != tuple(heads):
                raise TreeStructureError(f"heads must be integers: {heads!r}")
            object.__setattr__(self, "heads", ints)
        n = len(self.heads)
        if n == 0:
            raise TreeStructureError("empty sentence")
        roots = 0
        for pos, head in enumerate(self.heads, start=1):
            if not 0 <= head <= n:
                raise TreeStructureError(
                    f"token {pos}: head {head} out of range 1..{n}"
                )
            if head == pos:
                raise TreeStructureError(f"token {pos} is its own head")
            if head == 0:
                roots += 1
        if roots != 1:
            raise TreeStructureError(f"{roots} roots (exactly one required)")
        # Cycle check: every token must reach the root by climbing heads.
        # Each token is climbed through once: its state is 0 until the climb
        # reaches it, 1 while it is on the current climb, 2 once that climb
        # reached the root.
        state = [2] + [0] * n
        for pos in range(1, n + 1):
            chain = []
            cur = pos
            while state[cur] == 0:
                state[cur] = 1
                chain.append(cur)
                cur = self.heads[cur - 1]
            if state[cur] == 1:
                raise TreeStructureError(f"cycle through token {cur}")
            for token in chain:
                state[token] = 2


def reference_parse_conllu(
    text: str | bytes,
    *,
    issues: list[StructuralIssue] | None = None,
) -> list[ReferenceTree]:
    """Parse CoNLL-U text into dependency trees.

    Sentences are blocks of 10-column tab-separated token lines separated by
    blank lines; ``#`` lines are comments.  Multiword-token ranges ("1-2")
    and empty nodes ("1.1") are dropped, the remaining tokens renumbered
    1..n in order of appearance, and heads remapped.

    A malformed line (wrong column count, non-integer head) raises
    :class:`ConlluFormatError` with its line number.  A sentence whose head
    vector is structurally invalid (bad reference, zero or several roots,
    cycle) is skipped and recorded in ``issues``; a summary is logged.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if issues is None:
        issues = []

    trees: list[ReferenceTree] = []
    sentence_index = 0
    block: list[tuple[int, str, str]] = []  # (line number, ID, HEAD)
    sent_id: str | None = None

    def flush():
        nonlocal sentence_index, sent_id
        if not block:
            sent_id = None
            return
        sentence_index += 1
        try:
            trees.append(_reference_block_to_tree(block))
        except TreeStructureError as exc:
            issues.append(StructuralIssue(sentence_index, str(exc), sent_id))
        block.clear()
        sent_id = None

    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        if line.startswith("#"):
            if "=" in line:
                key, _, value = line[1:].partition("=")
                if key.strip() == "sent_id":
                    sent_id = value.strip()
            continue
        fields = line.split("\t")
        if len(fields) != N_COLUMNS:
            raise ConlluFormatError(
                f"expected {N_COLUMNS} tab-separated columns, got {len(fields)}",
                line_number,
            )
        block.append((line_number, fields[ID_COLUMN], fields[HEAD_COLUMN]))
    flush()

    if issues:
        log.warning(
            "skipped %d structurally invalid sentence(s) out of %d",
            len(issues), sentence_index,
        )
    return trees


def _reference_block_to_tree(
        block: list[tuple[int, str, str]]) -> ReferenceTree:
    """Turn one sentence block, (line number, ID, HEAD) per token line,
    into a ReferenceTree (renumbering token ids)."""
    old_ids: list[int] = []
    raw_heads: list[int] = []
    for line_number, token_id, head_field in block:
        if "-" in token_id or "." in token_id:
            continue  # multiword range / empty node
        try:
            tid = _plain_int(token_id)
        except ValueError:
            raise ConlluFormatError(f"bad token id {token_id!r}", line_number)
        try:
            head = _plain_int(head_field)
        except ValueError:
            raise ConlluFormatError(f"bad head {head_field!r}", line_number)
        old_ids.append(tid)
        raw_heads.append(head)

    if not old_ids:
        raise TreeStructureError("no syntactic tokens")
    renumber = {0: 0}
    for new_id, old in enumerate(old_ids, start=1):
        if old in renumber:
            raise TreeStructureError(f"duplicate token id {old}")
        renumber[old] = new_id
    heads = []
    for old, head in zip(old_ids, raw_heads):
        if head not in renumber:
            raise TreeStructureError(
                f"token {old} has head {head}, which is skipped or missing"
            )
        heads.append(renumber[head])
    return ReferenceTree(tuple(heads))


def _plain_int(field: str) -> int:
    """A CoNLL-U ID or HEAD: 1 to 18 ASCII digits."""
    if not re.fullmatch("[0-9]{1,18}", field):
        raise ValueError(field)
    return int(field)


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------

def goodness_of_fit(
    sample: DistanceSample,
    model: Model,
    params: ModelParams,
    min_expected: float = 5.0,
    cutoff: int = 10**6,
) -> tuple[float, float, int]:
    """Chi-square test of a sample against a model pmf.

    Support points are pooled left to right until each bin's expected count
    reaches ``min_expected``; the remaining tail (including mass beyond the
    table for unbounded models) forms the last bin, merged backwards if too
    thin.  The table runs to d_max, or to ``cutoff`` for unbounded models.
    Returns (statistic, p-value, degrees of freedom).
    """
    table = pmf_table(model, params, cutoff)
    n = sample.total
    expected_all = n * table
    observed_all = np.zeros(len(table))
    sel = sample.support <= len(table)
    observed_all[sample.support[sel] - 1] = sample.counts[sel]

    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed_all, expected_all):
        acc_obs += o
        acc_exp += e
        if acc_exp >= min_expected:
            obs_bins.append(acc_obs)
            exp_bins.append(acc_exp)
            acc_obs = acc_exp = 0.0
    # Remaining support plus any analytic mass beyond the table; the
    # unbinned observed count covers observations beyond the table too.
    rest_obs = float(n - sum(obs_bins))
    rest_exp = acc_exp + n * max(0.0, 1.0 - float(table.sum()))
    if rest_exp > 0 or rest_obs > 0:
        if exp_bins and rest_exp < min_expected:
            obs_bins[-1] += rest_obs
            exp_bins[-1] += rest_exp
        else:
            obs_bins.append(rest_obs)
            exp_bins.append(rest_exp)

    obs = np.array(obs_bins)
    exp = np.array(exp_bins) * (n / sum(exp_bins))  # exact renormalization
    if len(obs) < 2:
        return 0.0, 1.0, 0
    return (*_chisquare(obs, exp), len(obs) - 1)


def _chisquare(obs: np.ndarray, exp: np.ndarray) -> tuple[float, float]:
    """Pearson's statistic of observed against expected counts with equal
    totals, and its chi-square p-value at len(obs) - 1 degrees of freedom:
    ``scipy.stats.chisquare`` without loading ``scipy.stats``."""
    from scipy.special import chdtrc
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, float(chdtrc(len(obs) - 1, stat))
