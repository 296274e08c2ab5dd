"""Property tests over random valid dependency trees (n = 1 to 200), random
head vectors that may not be trees, and random distance samples."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_tree_heads
from depdist.arrangement import min_arrangement_cost
from depdist.estimation import (
    FIXED_ENSEMBLE,
    PRUNE_MARGIN,
    _break_grid,
    _optimize,
    fit,
    select,
)
from depdist.models import (
    Model,
    TruncatedGeometricParams,
    ZetaParams,
    certificates,
    log_likelihood,
)
from depdist.optimality import average_omega
from depdist.sampling import draw_sample
from depdist.treebank import (
    DepTree,
    DistanceSample,
    TreeStructureError,
    Treebank,
    build_samples,
    distances,
    parse_conllu,
    to_conllu,
)
from oracles import (
    ReferenceTree,
    _minla_subsets_dp,
    brute_force_min_arrangement,
    edges,
    exhaustive_break_scan,
    fraction_average_omega,
    null_maximizers,
    two_regime_init,
)


@st.composite
def trees(draw, max_n=30):
    """A random attachment tree over shuffled labels: each token after the
    first attaches to one drawn before it, so the head vector is valid."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    heads = [0] * n
    for i in range(1, n):
        heads[order[i]] = order[draw(st.integers(0, i - 1))] + 1
    return DepTree(tuple(heads))


corpora = st.lists(trees(), min_size=1, max_size=8)
TWO_REGIME = [model for model in Model if model.is_two_regime]


@given(corpora)
def test_conllu_round_trip(corpus):
    assert parse_conllu(to_conllu(corpus)) == corpus


@given(corpora)
def test_pooled_sample_is_sum_of_per_length_samples(corpus):
    assume(any(tree.n >= 2 for tree in corpus))
    samples = build_samples(corpus)
    per_length = sum((Counter(sample.freq)
                      for sample in samples.by_length.values()), Counter())
    assert per_length == Counter(samples.pooled.freq)
    assert samples.pooled.by_length is samples.by_length
    assert sum(samples.sentence_counts.values()) == len(corpus)


@st.composite
def head_vectors(draw, max_n=12):
    """A head vector of 0 to ``max_n`` heads, each from -1 to n + 1: a
    random tree; one root and every other head another token, which often
    makes cycles with tails; or every head drawn at random."""
    n = draw(st.integers(0, max_n))
    kind = draw(st.sampled_from(["tree", "rooted", "random"])) if n else ""
    if kind == "tree":
        seed = draw(st.integers(0, 2**32 - 1))
        return random_tree_heads(n, np.random.default_rng(seed))
    if kind == "rooted":
        root = draw(st.integers(1, n))
        others = draw(st.lists(st.integers(1, max(n - 1, 1)), min_size=n,
                               max_size=n))
        return tuple(0 if pos == root else other + (other >= pos)
                     for pos, other in enumerate(others, start=1))
    return tuple(draw(st.lists(st.integers(-1, n + 1), min_size=n,
                               max_size=n)))


def reference_reason(heads) -> str | None:
    try:
        ReferenceTree(heads)
    except TreeStructureError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(head_vectors())
def test_tree_check_words_what_the_reference_does(heads):
    reason = reference_reason(heads)
    if reason is None:
        assert DepTree(heads).heads == heads
    else:
        with pytest.raises(TreeStructureError) as exc:
            DepTree(heads)
        assert str(exc.value) == reason


@given(st.lists(head_vectors(), max_size=6))
def test_a_treebank_is_its_trees_or_names_the_first_non_tree(vectors):
    heads = np.array([head for vector in vectors for head in vector],
                     dtype=np.int64)
    sizes = np.array(list(map(len, vectors)), dtype=np.int64)
    reasons = [(i, reason) for i, reason in enumerate(
        map(reference_reason, vectors), start=1) if reason is not None]
    if reasons:
        with pytest.raises(TreeStructureError) as exc:
            Treebank(heads, sizes)
        assert str(exc.value) == "sentence {}: {}".format(*reasons[0])
    else:
        assert [tree.heads for tree in Treebank(heads, sizes)] == vectors


def rerooted(heads, relabel, root):
    """The head vector of the tree of ``heads`` with token i + 1 moved to
    position relabel[i] + 1 and rooted at token root + 1 (0-based)."""
    near = [[] for _ in heads]
    for u, v in edges(heads):
        near[u].append(v)
        near[v].append(u)
    up = {root: -1}
    order = [root]
    for x in order:
        for y in near[x]:
            if y not in up:
                up[y] = x
                order.append(y)
    out = [0] * len(heads)
    for x, y in up.items():
        if y != -1:
            out[relabel[x]] = relabel[y] + 1
    return tuple(out)


@given(trees(max_n=8), st.data())
def test_min_arrangement_is_exact_label_free_and_a_lower_bound(tree, data):
    n = tree.n
    cost = min_arrangement_cost(tree.heads)
    assert cost == brute_force_min_arrangement(edges(tree.heads), n)
    relabel = data.draw(st.permutations(range(n)))
    assert min_arrangement_cost(
        rerooted(tree.heads, relabel, tree.heads.index(0))) == cost
    # The sentence's own word order is one arrangement.
    assert cost <= sum(distances(tree))


@settings(max_examples=60)
@given(trees(max_n=200), st.data())
def test_min_arrangement_does_not_depend_on_root_or_labels(tree, data):
    # Each root gives the solver another decomposition of the same tree.
    n = tree.n
    cost = min_arrangement_cost(tree.heads)
    relabel = data.draw(st.permutations(range(n)))
    root = data.draw(st.integers(0, n - 1))
    assert min_arrangement_cost(rerooted(tree.heads, relabel, root)) == cost
    assert cost <= sum(distances(tree))


@settings(max_examples=40)
@given(st.lists(trees(max_n=40), max_size=12), st.data())
def test_a_treebank_solves_as_its_sentences_alone(corpus, data):
    # One call for the whole treebank, a 1- and a 2-word sentence among
    # its sentences, gives each sentence's minimum alone, and up to 12
    # words the subset DP's.
    for tree in (DepTree((0,)), DepTree((2, 0))):
        corpus.insert(data.draw(st.integers(0, len(corpus))), tree)
    heads = np.array([h for tree in corpus for h in tree.heads])
    together = min_arrangement_cost(heads, [tree.n for tree in corpus])
    alone = [int(min_arrangement_cost(tree.heads)[0]) for tree in corpus]
    assert together.tolist() == alone
    for tree, cost in zip(corpus, alone):
        if tree.n <= 12:
            assert cost == _minla_subsets_dp(edges(tree.heads), tree.n)


@settings(max_examples=30)
@given(st.lists(trees(max_n=14), min_size=1, max_size=40))
def test_average_omega_matches_exact_fractions(corpus):
    expected = fraction_average_omega([tree.heads for tree in corpus])
    columns = Treebank(
        np.array([h for tree in corpus for h in tree.heads], dtype=np.int64),
        np.array([tree.n for tree in corpus], dtype=np.int64))
    for stats in (average_omega(corpus), average_omega(columns)):
        assert stats.keys() == expected.keys()
        for n, (mean, scored, skipped) in expected.items():
            assert (stats[n].count, stats[n].skipped) == (scored, skipped)
            if mean is None:
                assert stats[n].mean_omega is None
            else:
                assert math.isclose(stats[n].mean_omega, mean,
                                    rel_tol=1e-12, abs_tol=1e-15)


distance_tables = st.dictionaries(st.integers(1, 40), st.integers(1, 60),
                                  min_size=1, max_size=10)


@settings(max_examples=20)
@given(distance_tables)
def test_fits_do_not_depend_on_order_or_shared_work(freq):
    # The twins share starting values per break point through the
    # sample; a reversed ensemble on the same (warm) sample
    # and each model fitted alone on a fresh (cold) sample must agree.
    sample = DistanceSample(freq)
    forward = select(sample, FIXED_ENSEMBLE)
    backward = select(sample, FIXED_ENSEMBLE[::-1])
    for model in FIXED_ENSEMBLE:
        alone = fit(model, DistanceSample(dict(freq)))
        assert forward.fits[model] == backward.fits[model] == alone, model
    assert forward.best == backward.best


@settings(max_examples=40)
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 400),
                       min_size=3, max_size=12))
# Every search of models 6 and 7 is rejected: the lowest break point wins.
@example({1: 1000, 2: 1, 60: 1, 61: 1})
def test_pruned_break_scan_matches_exhaustive_scan(freq):
    for model in TWO_REGIME:
        result = fit(model, DistanceSample(freq))
        params, log_l, converged = exhaustive_break_scan(
            model, DistanceSample(dict(freq)))
        assert result.params == params, model
        assert result.log_l == log_l, model
        assert result.converged == converged, model


@settings(max_examples=40)
@given(st.dictionaries(st.integers(1, 60), st.integers(1, 400),
                       min_size=3, max_size=12))
@example({1: 1000, 2: 1, 60: 1, 61: 1})
@example({1: 1, 2: 3, 5: 400, 9: 2, 40: 1})  # maxima at the box's ends
def test_break_point_bound_is_above_every_search(freq):
    sample = DistanceSample(freq)
    grid = _break_grid(sample)
    for model, bounds in zip(TWO_REGIME, certificates(
            [(model, sample, grid) for model in TWO_REGIME])):
        for bp, bound in zip(grid, bounds):
            log_l = _optimize(model, sample, bp)[1]
            assert bound >= log_l - PRUNE_MARGIN * (1.0 + abs(log_l)), \
                (model, bp)


@settings(max_examples=40)
@given(st.dictionaries(st.integers(1, 2000), st.integers(1, 400),
                       min_size=1, max_size=12))
@example({1: 1})
@example({10: 100})  # the peak at 2 max d - 1
@example({1: 50, 2: 20, 3: 5, 4: 2, 2000: 1})
@example({50: 1})  # math.log1p(2 / 98) can exceed np.log1p(1 / 49)
def test_null_peak_is_inside_the_first_window(freq):
    # log L(D + 1) < log L(D) from D = 2 max d - 1 on, so the window
    # [max d, 2 max d - 1] holds the peak; the bisection finds an exact
    # maximizer there, by the oracle's exact scan of every bound.  A
    # single distance d ties at 2d - 2 and 2d - 1, where its step computes
    # to exactly 0.0, and takes the larger bound.
    sample = DistanceSample(freq)
    result = fit(Model.NULL_FIXED, sample)
    maxima = null_maximizers(DistanceSample(dict(freq)))
    assert result.params.d_max in maxima
    if len(freq) == 1:
        assert len(maxima) == min(sample.max_d, 2)
        assert result.params.d_max == maxima[-1] == 2 * sample.max_d - 1
    assert result.log_l == log_likelihood(Model.NULL_FIXED, result.params,
                                          sample)
    assert result.converged


@settings(max_examples=30)
@given(st.dictionaries(st.integers(1, 400), st.integers(1, 400),
                       min_size=3, max_size=300))
@example({1: 1000, 2: 1, 60: 1, 61: 1})
def test_starts_equal_the_masked_starts(freq):
    # The starts sum slices of cached arrays; numpy sums blocks of 8 and
    # halves of 128 and more, which supports of up to 300 distances reach.
    sample = DistanceSample(freq)
    for bp in _break_grid(sample):
        for model in (Model.TWO_REGIME_GEOMETRIC, Model.ZETA_GEOMETRIC):
            assert model.spec.init(sample, bp) == two_regime_init(
                model, sample, bp), (model, bp)


@settings(max_examples=40)
@given(st.one_of(
    st.builds(TruncatedGeometricParams, st.floats(0.01, 0.95),
              st.integers(1, 200)),
    st.builds(ZetaParams, st.floats(1.05, 5.0), st.integers(1, 200))),
    st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_one_regime_fit_beats_the_generating_parameters(params, size, seed):
    # The fit pins d_max at max d and maximizes the rate there, so it is
    # never below the likelihood of the parameters that drew the sample.
    model = (Model.ZETA_TRUNC if isinstance(params, ZetaParams)
             else Model.GEOMETRIC_TRUNC)
    sample = draw_sample(model, params, size, seed)
    truth = log_likelihood(model, params, sample)
    assert fit(model, sample).log_l >= truth - 1e-9
