"""Unit tests for the plain PCG solver."""

import numpy as np
import pytest

from repro.errors import ShapeMismatchError
from repro.solvers import JacobiPreconditioner, pcg
from repro.sparse import CooMatrix, poisson2d, random_spd


@pytest.fixture
def system():
    a = poisson2d(12)  # 144x144, well understood spectrum
    rng = np.random.default_rng(51)
    x_true = rng.standard_normal(a.n_rows)
    return a, x_true, a.matvec(x_true)


def test_converges_to_true_solution(system):
    a, x_true, b = system
    result = pcg(a, b, tol=1e-10)
    assert result.converged
    np.testing.assert_allclose(result.x, x_true, rtol=1e-6)


def test_residual_history_is_recorded(system):
    a, _, b = system
    result = pcg(a, b)
    assert len(result.residual_history) == result.iterations
    assert result.residual_history[-1] < 1e-6


def test_jacobi_preconditioner_reduces_iterations():
    # A badly scaled SPD matrix: diagonal scaling helps a lot.
    rng = np.random.default_rng(52)
    scale = 10.0 ** rng.uniform(-3, 3, size=200)
    base = random_spd(200, 2000, seed=52)
    scaled_dense = scale[:, None] * base.to_dense() * scale[None, :]
    a = CooMatrix.from_dense(scaled_dense).to_csr()
    b = a.matvec(np.ones(200))
    plain = pcg(a, b, max_iterations=2000, tol=1e-8)
    jacobi = pcg(a, b, JacobiPreconditioner(a), max_iterations=2000, tol=1e-8)
    assert jacobi.converged
    assert jacobi.iterations < plain.iterations


def test_zero_rhs_returns_zero(system):
    a, _, _ = system
    result = pcg(a, np.zeros(a.n_rows))
    assert result.converged
    assert result.iterations == 0
    np.testing.assert_array_equal(result.x, np.zeros(a.n_rows))


def test_initial_guess_speeds_up_exact_start(system):
    a, x_true, b = system
    result = pcg(a, b, x0=x_true)
    assert result.converged
    assert result.iterations == 0


def test_iteration_cap_respected(system):
    a, _, b = system
    result = pcg(a, b, max_iterations=2, tol=1e-14)
    assert not result.converged
    assert result.iterations == 2


def test_callback_invoked_each_iteration(system):
    a, _, b = system
    seen = []
    pcg(a, b, callback=lambda k, x, res: seen.append((k, res)))
    assert [k for k, _ in seen] == list(range(1, len(seen) + 1))
    assert seen[-1][1] < 1e-6


def test_shape_validation(system):
    a, _, b = system
    with pytest.raises(ShapeMismatchError):
        pcg(a, b[:-1])
    with pytest.raises(ShapeMismatchError):
        pcg(a, b, x0=np.zeros(3))
    rect = CooMatrix.from_entries((2, 3), [(0, 0, 1.0)]).to_csr()
    with pytest.raises(ShapeMismatchError):
        pcg(rect, np.zeros(2))


def test_default_cap_is_ten_n(system):
    a, _, b = system
    # Solve an inconsistent tolerance so the cap binds.
    result = pcg(a, b, tol=1e-300)
    assert result.iterations <= 10 * a.n_rows
