"""The related-work schemes under the naive oracle.

Every baseline recomputes rows through its kernel set's
``row_checksums``: ``BaselineContext._recompute_rows`` and the
tie-breaking third run of DWC.  Built while the oracle
(:mod:`tests.kernels.naive`) is installed, each of the six related-work
schemes must return exactly what it returns on the library's kernel set,
on a clean multiply and on one whose result takes a NaN and an offset:
value bits, detections, corrections, rounds, ``exhausted``, simulated
seconds and flops, and the tamper-call trace.
"""

import numpy as np
import pytest

from repro.core.config import AbftConfig
from repro.kernels import VectorizedKernels
from repro.machine import Machine
from repro.schemes import make_scheme
from repro.sparse import random_spd
from tests.kernels.naive import NaiveKernels, kernels_installed

RELATED_WORK = ("bisection", "checkpoint", "complete", "dense_check", "redundancy", "tmr")

MATRIX = random_spd(300, 3000, seed=5)
OPERAND = np.random.default_rng(5).standard_normal(MATRIX.n_cols)


def _run(name, kernels, burst):
    """One multiply of scheme ``name`` built on ``kernels``: the result's
    fields and the tamper-call trace (stage, data bits, work)."""
    with kernels_installed(kernels):
        scheme = make_scheme(name, MATRIX, config=AbftConfig(), machine=Machine())
    trace = []

    def tamper(stage, data, work):
        nonlocal burst
        if burst and stage == "result":
            data[17] = np.nan
            data[211] += 1e3
            burst = False
        trace.append((stage, data.dtype.str, data.tobytes(), float(work)))

    result = scheme.multiply(OPERAND.copy(), tamper=tamper)
    fields = {
        "value": (result.value.dtype.str, result.value.tobytes()),
        "detections": result.detections,
        "corrections": result.corrections,
        "rounds": result.rounds,
        "exhausted": result.exhausted,
        "seconds": float(result.seconds).hex(),
        "flops": result.flops,
    }
    return fields, trace


@pytest.mark.parametrize("burst", [False, True], ids=["clean", "burst"])
@pytest.mark.parametrize("name", RELATED_WORK)
def test_scheme_bit_identical_under_the_oracle(name, burst):
    oracle = _run(name, NaiveKernels(), burst)
    library = _run(name, VectorizedKernels(), burst)
    assert oracle == library
    fields, _ = library
    assert fields["detections"][0] is burst
