import numpy as np
import pytest

from cqdual import corpus

ACCEPTANCE_SEED = 20240811


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def small_corpus():
    """Forty mixed binary-input channels with output dims 2-4."""
    return corpus.binary_channel_corpus(777, 40)


@pytest.fixture(scope="session")
def acceptance_corpus():
    """The seeded 200-channel corpus that the acceptance rows of cqdual.checks also draw."""
    return corpus.binary_channel_corpus(ACCEPTANCE_SEED, 200)
