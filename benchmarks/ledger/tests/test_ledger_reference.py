"""The frozen baselines agree with the library they stand in for."""

import numpy as np
import pytest

from repro.solvers.ft_pcg import run_pcg
from repro.sparse.csr import CsrMatrix
from repro.sparse.suite import SUITE_SPECS

from benchmarks.ledger import inputs
from benchmarks.ledger.reference import (
    PlainSpmv,
    jacobi_inverse,
    plain_pcg,
    reference_product,
    violations,
)
from benchmarks.ledger.workloads import PCG_MATRICES, Pcg


@pytest.mark.parametrize("name", [spec.name for spec in SUITE_SPECS])
def test_plain_spmv_is_bit_identical_to_matvec(name):
    matrix = inputs.suite_matrix(name)
    b = np.random.default_rng(7).standard_normal(matrix.n_cols)
    plain = PlainSpmv(matrix.indptr, matrix.indices, matrix.data)
    assert np.array_equal(plain(b), matrix.matvec(b))


def test_plain_spmv_handles_empty_rows_and_float32():
    dense = np.array(
        [[0, 0, 0], [1.5, 0, 2.0], [0, 0, 0], [0, -3.0, 0.25]], dtype=np.float32
    )
    rows, cols = np.nonzero(dense)
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(dense, axis=1))])
    matrix = CsrMatrix(dense.shape, indptr, cols, dense[rows, cols])
    b = np.array([1.0, 2.0, -1.0], dtype=np.float32)
    got = PlainSpmv(matrix.indptr, matrix.indices, matrix.data)(b)
    assert got.dtype == np.float32
    assert np.array_equal(got, matrix.matvec(b))


@pytest.mark.parametrize("index", range(len(PCG_MATRICES)))
def test_plain_pcg_iterations_match_unprotected_run_pcg(index):
    workload = Pcg(seed=0)
    matrix, b = workload.matrices[index], workload.rhs[index]
    seed = workload.seed(index, 0)
    reference = run_pcg(matrix, b, scheme="unprotected", error_rate=0.0, seed=seed)
    plain = PlainSpmv(matrix.indptr, matrix.indices, matrix.data)
    inverse = jacobi_inverse(matrix.indptr, matrix.indices, matrix.data)
    options = workload.options
    x, iterations, correct = plain_pcg(
        plain, inverse, b, seed, options.tol, options.max_iteration_factor * matrix.n_rows
    )
    assert iterations == reference.iterations
    assert correct == reference.correct
    assert np.array_equal(x, reference.x)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reference_accepts_rounding_and_flags_a_visible_error(dtype):
    matrix = inputs.suite_matrix("nos3").astype(dtype)
    b = np.random.default_rng(3).standard_normal(matrix.n_cols).astype(dtype)
    ref, tolerance = reference_product(matrix.indptr, matrix.indices, matrix.data, b)
    r = matrix.matvec(b)
    assert violations(r, ref, tolerance) == 0
    r[17] += 1e-3 * np.abs(r).max()
    r[40] = np.nan
    assert violations(r, ref, tolerance) == 2
