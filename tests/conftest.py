"""Fixtures shared by the test modules."""

import pytest

from qgm_sim import oracles


@pytest.fixture(autouse=True)
def empty_noise_memo():
    """Every test starts with an empty noise memo, so no result or draw
    count depends on the tests run before it."""
    oracles._noise_memo = (None, {})

