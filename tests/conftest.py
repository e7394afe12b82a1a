"""Shared test set-up."""

import pytest

from qdeform.states import build_distribution


@pytest.fixture(autouse=True)
def _no_kept_build():
    """Start every test without the kept last build and without the level
    vectors that algebra keeps for the last epsilon: one clear call drops
    both, so a test that patches a family or algebra kernel cannot read
    values computed before the patch."""
    build_distribution.cache_clear()
