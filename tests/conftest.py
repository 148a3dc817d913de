import sys

import pytest

from minpl.prover import derivable

from helpers import CORPUS_SIZE, corpus_formula

_START_LIMIT = sys.getrecursionlimit()


@pytest.fixture(autouse=True)
def _starting_recursion_limit():
    """Every test starts at the session's starting recursion limit, so none
    relies on a limit that an earlier ``derivable`` call left raised."""
    sys.setrecursionlimit(_START_LIMIT)


@pytest.fixture(scope="session")
def corpus():
    return [corpus_formula(seed) for seed in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def corpus_results(corpus):
    """Every corpus formula decided once, under the termination-rail timeout."""
    out = []
    for f in corpus:
        verdict, stats, derivation = derivable(f, timeout=10.0)
        out.append((f, verdict, stats, derivation))
    return out
