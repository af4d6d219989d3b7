"""Unit tests for the preconditioners."""

import numpy as np
import pytest

from repro.errors import SingularMatrixError
from repro.solvers import IdentityPreconditioner, JacobiPreconditioner
from repro.sparse import CooMatrix, banded_spd


@pytest.fixture
def matrix():
    return banded_spd(40, 3, 0.8, seed=61)


def test_identity_is_a_copy(matrix):
    prec = IdentityPreconditioner(matrix)
    r = np.arange(40.0)
    z = prec.apply(r)
    np.testing.assert_array_equal(z, r)
    z[0] = 99.0
    assert r[0] == 0.0
    assert prec.apply_cost.work == 0.0


def test_jacobi_divides_by_diagonal(matrix):
    prec = JacobiPreconditioner(matrix)
    r = np.ones(40)
    np.testing.assert_allclose(prec.apply(r), 1.0 / matrix.diagonal())


def test_jacobi_rejects_zero_diagonal():
    a = CooMatrix.from_entries((2, 2), [(0, 1, 1.0), (1, 0, 1.0)]).to_csr()
    with pytest.raises(SingularMatrixError):
        JacobiPreconditioner(a)


def test_apply_costs_positive(matrix):
    assert JacobiPreconditioner(matrix).apply_cost.work > 0
