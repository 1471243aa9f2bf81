"""Fixtures shared by every test module."""

import pytest

from quasimodes import jwkb


@pytest.fixture(autouse=True)
def cold_build():
    """Empty the memo of the last h-free build, so that a test that counts
    marches or spans starts cold whatever ran before it."""
    jwkb._last_build[0] = None
