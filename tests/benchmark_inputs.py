"""The inputs of the benchmark's workloads, generated by the benchmark's
own code (``perfbench/``): the distance samples that validate (by seed)
and fit-select (by corpus variant) select models for, the treebank that
omega scores (by seed), and the 20,000-sentence corpus of ROADMAP's
baseline."""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path

import numpy as np

from depdist.estimation import DEFAULT_MIN_LENGTH
from depdist.sampling import generate_validation_suite
from depdist.treebank import Treebank, build_samples, parse_conllu

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _perfbench(name: str):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


@functools.cache
def validate_samples(seed: int) -> dict:
    """``depdist validate --seed SEED``'s samples, by generating model."""
    return generate_validation_suite(seed)


@functools.cache
def fit_select_samples(variant: int) -> dict:
    """The samples that ``depdist fit-select`` fits on the benchmark's
    corpus variant: per language, the pooled sample and the per-length
    samples of lengths it does not exclude, keyed (language, n or
    "mixed")."""
    gen, run = _perfbench("gen"), _perfbench("run")
    samples = {}
    for language, trees in run.fit_select_corpora(variant).items():
        sset = build_samples(parse_conllu(gen.to_conllu_text(trees)),
                             language=language)
        samples[language, "mixed"] = sset.pooled
        samples.update({(language, n): sample
                        for n, sample in sset.by_length.items()
                        if n >= DEFAULT_MIN_LENGTH})
    return samples


def benchmark_samples(seeds, variants) -> list:
    """(label, sample) for validate's seeds and fit-select's variants."""
    return ([(f"validate-{seed}-{model.id}", sample) for seed in seeds
             for model, sample in validate_samples(seed).items()]
            + [(f"fit-select-{variant}-{language}-{n}", sample)
               for variant in variants
               for (language, n), sample in fit_select_samples(
                   variant).items()])


@functools.cache
def omega_treebank(seed: int) -> Treebank:
    """The treebank that ``depdist omega`` scores in the benchmark's omega
    workload for ``seed``, read back from its CoNLL-U."""
    gen, run = _perfbench("gen"), _perfbench("run")
    trees = gen.corpus(np.random.default_rng([seed, 2]), run.OMEGA_LANGUAGE,
                       run.OMEGA_SENTENCES, hi=run.OMEGA_MAX_LENGTH)
    return parse_conllu(gen.to_conllu_text(trees))


@functools.cache
def corpus_treebank() -> Treebank:
    """The 20,000-sentence corpus of ROADMAP's baseline (language Alpha,
    seed 3)."""
    gen = _perfbench("gen")
    trees = gen.corpus(np.random.default_rng(3), gen.LANGUAGES[0], 20000)
    return Treebank(np.concatenate(trees),
                    np.array([len(heads) for heads in trees]))
