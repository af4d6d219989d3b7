"""Session-wide test options.

``--kernels=naive`` runs the session with the differential oracle
(:class:`tests.kernels.naive.NaiveKernels`) installed as the library's
kernel set, so every detector, checksum build and baseline the tests
construct runs the per-block reference loops: the suite's invariants
must hold under them too.
"""

import pytest

from tests.kernels.naive import NaiveKernels, kernels_installed


def pytest_addoption(parser):
    parser.addoption(
        "--kernels",
        choices=("vectorized", "naive"),
        default="vectorized",
        help="kernel set the library runs: its own (vectorized) or the naive oracle",
    )


@pytest.fixture(scope="session", autouse=True)
def _session_kernels(request):
    if request.config.getoption("--kernels") == "naive":
        with kernels_installed(NaiveKernels()):
            yield
    else:
        yield
