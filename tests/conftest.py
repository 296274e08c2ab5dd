import numpy as np
import pytest
from hypothesis import settings

from depdist.treebank import DepTree
from depdist.validation import run_validation

# Property tests draw the same examples on every run, with no time limit
# per example, so the suite stays deterministic on a loaded machine.
settings.register_profile("depdist", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("depdist")


def random_tree_heads(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Random labeled dependency tree: attachment tree, labels shuffled."""
    labels = rng.permutation(n)
    heads = [0] * n
    for i in range(1, n):
        parent = int(rng.integers(0, i))
        heads[labels[i]] = int(labels[parent]) + 1
    heads[labels[0]] = 0
    return tuple(heads)


def random_tree(n: int, rng: np.random.Generator) -> DepTree:
    return DepTree(random_tree_heads(n, rng))


@pytest.fixture(scope="session")
def validation_report():
    """The generate-fit-select loop over the reference suite, run once."""
    return run_validation()
