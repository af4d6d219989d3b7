"""Planned execution over the kernel suite's degenerate-input corpus.

Every case of ``tests/kernels/corpus.py`` (empty blocks, zero-row and
zero-column matrices, a single row, ragged and rectangular shapes,
float32 storage, subnormal values, order-sensitive sums) runs through
three plans — serial with one shard, ``threads`` with two and with
three — on CSR and on BSR storage.  The contract:

* a CSR plan's value bits equal ``CsrMatrix.matvec``;
* a CSR plan's first check flags exactly the blocks
  ``BlockAbftDetector.detect(b, A b)`` flags;
* a ``threads`` plan returns the serial plan of the same format field
  for field: value bits, detections, corrections, rounds, ``exhausted``
  and the detected and corrected block tuples;
* a serial CSR plan built on the naive oracle (:mod:`tests.kernels.naive`)
  returns ``CsrMatrix.matvec``'s value bits and the vectorized plan's
  detections, corrected blocks, rounds and ``exhausted``.

The results are compared with references, not with expected verdicts:
``subnormal-values`` is a known false alarm (the thresholds underflow
to 0.0 while the syndromes stay subnormal), and these tests pin only
that every plan reports it the same way.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.kernels import VectorizedKernels
from repro.perf import ProtectedPlan
from tests.kernels.corpus import corpus, corpus_ids
from tests.kernels.naive import NaiveKernels, kernels_installed

CASES = corpus()

#: ``(backend, shard count)`` of the plans under test; the first is the
#: serial reference.
PLANS = (("serial", 1), ("threads", 2), ("threads", 3))

FORMATS = ("csr", "bsr")


@pytest.fixture(autouse=True)
def _vectorized_kernels():
    """The fused shard path reduces t2 in the vectorized kernels' order;
    the serial reference must too, so a session run under the naive
    oracle (whose per-block sums round differently) pins them here."""
    with kernels_installed(VectorizedKernels()):
        yield


def _multiply(case, backend, n_shards, sparse_format):
    """One clean multiply on a fresh plan: ``(operator, operand, result)``."""
    _, matrix, block_size = case
    operator = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=block_size))
    plan = ProtectedPlan(
        operator, n_shards=n_shards, parallel=backend, sparse_format=sparse_format
    )
    assert plan.sparse_format == sparse_format
    assert plan.backend_name == backend
    dtype = operator.detector.matrix.data.dtype
    b = np.random.default_rng(11).standard_normal(matrix.n_cols).astype(dtype)
    return operator, b, plan.multiply(b)


def _fields(result):
    return {
        "value": (result.value.dtype.str, result.value.tobytes()),
        "detections": result.detections,
        "corrections": result.corrections,
        "rounds": result.rounds,
        "exhausted": result.exhausted,
        "detected_blocks": result.detected_blocks,
        "corrected_blocks": result.corrected_blocks,
    }


@pytest.mark.parametrize("backend, n_shards", PLANS, ids=[f"{b}-{n}" for b, n in PLANS])
@pytest.mark.parametrize("case", CASES, ids=corpus_ids())
def test_csr_plan_matches_matvec_and_detector(case, backend, n_shards):
    operator, b, result = _multiply(case, backend, n_shards, "csr")
    detector = operator.detector
    expected = detector.matrix.matvec(b)
    assert result.value.dtype == expected.dtype
    assert result.value.tobytes() == expected.tobytes()
    flagged = detector.detect(b, expected).flagged
    assert result.detected_blocks[0] == tuple(int(block) for block in flagged)


@pytest.mark.parametrize("n_shards", (2, 3))
@pytest.mark.parametrize("sparse_format", FORMATS)
@pytest.mark.parametrize("case", CASES, ids=corpus_ids())
def test_threads_plan_equals_the_serial_plan(case, sparse_format, n_shards):
    _, _, serial = _multiply(case, "serial", 1, sparse_format)
    reference = _fields(serial)
    _, _, threaded = _multiply(case, "threads", n_shards, sparse_format)
    assert _fields(threaded) == reference


@pytest.mark.parametrize("case", CASES, ids=corpus_ids())
def test_serial_plan_under_the_oracle(case):
    _, _, vectorized = _multiply(case, "serial", 1, "csr")
    with kernels_installed(NaiveKernels()):
        operator, b, result = _multiply(case, "serial", 1, "csr")
    assert operator.detector.kernels.name == "naive"
    expected = operator.detector.matrix.matvec(b)
    assert result.value.dtype == expected.dtype
    assert result.value.tobytes() == expected.tobytes()
    oracle, reference = _fields(result), _fields(vectorized)
    for key in ("detections", "corrected_blocks", "rounds", "exhausted"):
        assert oracle[key] == reference[key], key
