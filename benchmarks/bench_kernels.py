"""Measured-time microbenchmarks of the library's real kernels.

Unlike the figure benches (which report *modeled* device time), these time
the actual NumPy implementations with pytest-benchmark: the SpMV, the
block correction kernel, checksum construction, the full detection pass,
the dense check, and one PCG iteration's worth of work.  They guard against
performance regressions in the substrate itself.
"""

import numpy as np
import pytest

from repro.baselines import DenseChecksum
from repro.core import BlockAbftDetector, BlockPartition, ChecksumMatrix, FaultTolerantSpMV
from repro.kernels import VectorizedKernels
from repro.solvers import JacobiPreconditioner, pcg
from repro.sparse import suite_matrix


@pytest.fixture(scope="module")
def matrix():
    return suite_matrix("bcsstk13")


@pytest.fixture(scope="module")
def operand(matrix):
    return np.random.default_rng(0).standard_normal(matrix.n_cols)


def test_kernel_spmv(benchmark, matrix, operand):
    result = benchmark(matrix.matvec, operand)
    assert result.shape == (matrix.n_rows,)


def test_kernel_partial_spmv(benchmark, matrix, operand):
    # Rows 512-544 are block 16 at block size 32: the correction kernel
    # recomputes them into a result vector in place.
    partition = BlockPartition(matrix.n_rows, 32)
    r = np.zeros(matrix.n_rows)
    rows, _ = benchmark(
        VectorizedKernels().correct_blocks, matrix, partition, operand, r, np.array([16])
    )
    assert rows == 32
    np.testing.assert_array_equal(r[512:544], matrix.matvec(operand)[512:544])


def test_kernel_checksum_build(benchmark, matrix):
    checksum = benchmark(ChecksumMatrix.build, matrix, 32)
    assert checksum.n_blocks == -(-matrix.n_rows // 32)


def test_kernel_block_detection(benchmark, matrix, operand):
    detector = BlockAbftDetector(matrix)
    r = matrix.matvec(operand)
    report = benchmark(detector.detect, operand, r)
    assert report.clean


def test_kernel_dense_check(benchmark, matrix, operand):
    checker = DenseChecksum(matrix)
    r = matrix.matvec(operand)
    report = benchmark(checker.check, operand, r)
    assert not report.detected


def test_kernel_protected_multiply(benchmark, matrix, operand):
    ft = FaultTolerantSpMV(matrix, block_size=32)
    result = benchmark(ft.multiply, operand)
    assert result.clean


def test_kernel_spmm(benchmark, matrix):
    block = np.random.default_rng(2).standard_normal((matrix.n_cols, 8))
    result = benchmark(matrix.matmat, block)
    assert result.shape == (matrix.n_rows, 8)


def test_kernel_rcm_reordering(benchmark, matrix):
    from repro.sparse import reverse_cuthill_mckee

    perm = benchmark(reverse_cuthill_mckee, matrix)
    assert perm.shape == (matrix.n_rows,)


def test_kernel_pcg_solve(benchmark, matrix):
    rng = np.random.default_rng(1)
    b = matrix.matvec(rng.standard_normal(matrix.n_rows))
    preconditioner = JacobiPreconditioner(matrix)
    result = benchmark.pedantic(
        lambda: pcg(matrix, b, preconditioner), rounds=3, iterations=1
    )
    assert result.converged
