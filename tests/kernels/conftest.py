"""Fixtures shared by the kernel suites."""

import pytest

from tests.kernels.sharded import sharded_kernels_registered


@pytest.fixture(scope="module")
def sharded_kernels():
    """The block-sharded ``parallel`` leg, registered for one module."""
    with sharded_kernels_registered() as impl:
        yield impl
