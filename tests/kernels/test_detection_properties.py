"""Property-based detection-invariant tests, run under every kernel set.

Two invariants, for the library's ``vectorized`` set, the ``naive``
oracle (:mod:`tests.kernels.naive`) and the block-sharded ``parallel``
leg (:mod:`tests.kernels.sharded`):

* clean runs never flag — on an error-free SpMV no block's syndrome
  exceeds the sparse per-block bound (zero false positives);
* flagged blocks == injected blocks — corrupting arbitrary result
  elements by well over the per-block threshold flags exactly the blocks
  containing them, no more and no fewer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AbftConfig, BlockAbftDetector
from repro.kernels import VectorizedKernels
from repro.sparse import random_spd
from tests.kernels.naive import NaiveKernels, kernels_installed
from tests.kernels.sharded import ShardedKernels

SETS = {impl.name: impl for impl in (NaiveKernels(), ShardedKernels(), VectorizedKernels())}
KERNELS = tuple(sorted(SETS))


@st.composite
def detection_cases(draw):
    n = draw(st.integers(8, 100))
    nnz = draw(st.integers(n, 5 * n))
    seed = draw(st.integers(0, 2**16))
    block_size = draw(st.sampled_from([1, 2, 4, 8, 16, 32]))
    scale = 10.0 ** draw(st.integers(-3, 3))
    n_errors = draw(st.integers(1, 4))
    return n, nnz, seed, block_size, scale, n_errors


def _setup(kernel, n, nnz, seed, block_size, scale):
    matrix = random_spd(n, nnz, seed=seed)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n) * scale
    with kernels_installed(SETS[kernel]):
        detector = BlockAbftDetector(matrix, AbftConfig(block_size=block_size))
    return matrix, b, detector, rng


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(detection_cases())
def test_clean_runs_never_flag(kernel, case):
    n, nnz, seed, block_size, scale, _ = case
    matrix, b, detector, _ = _setup(kernel, n, nnz, seed, block_size, scale)
    report = detector.detect(b, matrix.matvec(b))
    assert report.clean
    assert report.flagged.size == 0


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=40, deadline=None)
@given(detection_cases())
def test_flagged_blocks_equal_injected_blocks(kernel, case):
    n, nnz, seed, block_size, scale, n_errors = case
    matrix, b, detector, rng = _setup(kernel, n, nnz, seed, block_size, scale)
    r = matrix.matvec(b)
    beta = detector.operand_norm(b)
    thresholds = detector.bound.thresholds(beta)

    injected = set()
    target_blocks = rng.choice(
        detector.n_blocks, size=min(n_errors, detector.n_blocks), replace=False
    )
    for block in target_blocks:
        start, stop = detector.partition.bounds(int(block))
        row = int(rng.integers(start, stop))
        # Far above both the block's detection threshold and the value's
        # own magnitude, with a random sign — unambiguously detectable.
        delta = 1e3 * thresholds[block] + 1e-3 * (1.0 + abs(r[row]))
        r[row] += delta if rng.random() < 0.5 else -delta
        injected.add(int(block))

    report = detector.detect(b, r)
    assert set(report.flagged.tolist()) == injected
