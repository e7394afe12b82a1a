"""Shared test set-up."""

import pytest

from qdeform.states import build_distribution


@pytest.fixture(autouse=True)
def _no_kept_build():
    """Start every test without the kept last build, so a test that patches a
    family kernel cannot read a distribution built before the patch."""
    build_distribution.cache_clear()
