"""Unit tests for protected power iteration and PageRank."""

import numpy as np
import pytest

from repro.apps import build_link_matrix, pagerank, power_iteration
from repro.errors import ConfigurationError, ShapeMismatchError
from repro.faults import ErrorProcess, FaultInjector
from repro.sparse import CooMatrix, banded_spd, random_spd


@pytest.fixture(scope="module")
def spd():
    return random_spd(150, 1500, seed=151)


def test_power_iteration_finds_dominant_eigenpair(spd):
    result = power_iteration(spd, tol=1e-12, protected=False)
    assert result.converged
    dense = spd.to_dense()
    eigvals = np.linalg.eigvalsh(dense)
    assert result.eigenvalue == pytest.approx(eigvals[-1], rel=1e-6)
    # Rayleigh residual: ||A v - lambda v|| small.
    residual = np.linalg.norm(dense @ result.vector - result.eigenvalue * result.vector)
    assert residual < 1e-6 * abs(result.eigenvalue)


def test_protected_and_plain_agree_fault_free(spd):
    plain = power_iteration(spd, protected=False, seed=1)
    protected = power_iteration(spd, protected=True, seed=1)
    np.testing.assert_allclose(protected.vector, plain.vector, rtol=1e-9)
    assert protected.detections == 0
    assert protected.seconds > plain.seconds  # protection costs something


def test_protected_power_iteration_rides_through_errors(spd):
    injector = FaultInjector.seeded(2)
    process = ErrorProcess(2e-6, injector.rng)

    def tamper(stage, data, work):
        for _ in range(process.events_in(work)):
            if data.size:
                injector.corrupt_random_element(data, target=stage)

    reference = power_iteration(spd, protected=False, seed=3)
    protected = power_iteration(spd, protected=True, seed=3, tamper=tamper)
    assert protected.converged
    np.testing.assert_allclose(
        np.abs(protected.vector), np.abs(reference.vector), rtol=1e-5, atol=1e-8
    )


def test_power_iteration_validation(spd):
    rect = CooMatrix.from_entries((2, 3), [(0, 0, 1.0)]).to_csr()
    with pytest.raises(ShapeMismatchError):
        power_iteration(rect)
    with pytest.raises(ConfigurationError):
        power_iteration(spd, tol=0.0)
    with pytest.raises(ConfigurationError):
        power_iteration(spd, max_iterations=0)


def test_build_link_matrix_column_stochastic():
    edges = np.array([[0, 1], [0, 2], [1, 2], [2, 0]])
    link = build_link_matrix(edges, 3)
    sums = link.to_dense().sum(axis=0)
    np.testing.assert_allclose(sums, [1.0, 1.0, 1.0])


def test_build_link_matrix_dangling_page():
    edges = np.array([[0, 1]])  # page 1 has no outgoing links
    link = build_link_matrix(edges, 2)
    assert link.to_dense()[:, 1].sum() == 0.0


def test_build_link_matrix_validation():
    with pytest.raises(ShapeMismatchError):
        build_link_matrix(np.array([1, 2, 3]), 4)
    with pytest.raises(ConfigurationError):
        build_link_matrix(np.array([[0, 9]]), 3)


def test_pagerank_on_known_graph():
    # A 3-cycle with an extra edge into page 0: page 0 ranks highest.
    edges = np.array([[0, 1], [1, 2], [2, 0], [1, 0]])
    link = build_link_matrix(edges, 3)
    ranks, diag = pagerank(link, protected=False)
    assert diag.converged
    assert ranks.sum() == pytest.approx(1.0)
    assert np.argmax(ranks) == 0


def test_pagerank_protected_matches_plain():
    rng = np.random.default_rng(4)
    edges = rng.integers(0, 100, size=(600, 2))
    link = build_link_matrix(edges, 100)
    plain, _ = pagerank(link, protected=False)
    protected, diag = pagerank(link, protected=True)
    np.testing.assert_allclose(protected, plain, rtol=1e-9)
    assert diag.detections == 0


def test_pagerank_validation():
    link = build_link_matrix(np.array([[0, 1]]), 2)
    with pytest.raises(ConfigurationError):
        pagerank(link, damping=1.0)
    rect = CooMatrix.from_entries((2, 3), [(0, 0, 1.0)]).to_csr()
    with pytest.raises(ShapeMismatchError):
        pagerank(rect)


def test_power_iteration_on_banded(spd):
    a = banded_spd(80, 3, 0.9, seed=5)
    result = power_iteration(a, protected=True, tol=1e-11)
    assert result.converged
    assert result.eigenvalue > 0


def poison_every_result(stage, data, work):
    if stage == "result":
        data[0] = np.nan


def test_power_iteration_budget_respected(spd):
    result = power_iteration(spd, tol=1e-300, max_iterations=7, protected=False)
    assert not result.converged
    assert result.iterations == 7


def test_unprotected_power_iteration_poisoned_by_nan(spd):
    """A NaN in the product ends an unprotected run at its first step."""
    result = power_iteration(spd, protected=False, tamper=poison_every_result)
    assert not result.converged
    assert result.iterations == 1


def test_protected_power_iteration_repairs_every_nan(spd):
    reference = power_iteration(spd, protected=True, seed=1)
    result = power_iteration(spd, protected=True, seed=1, tamper=poison_every_result)
    assert result.converged
    assert result.detections == result.iterations == reference.iterations
    np.testing.assert_array_equal(result.vector, reference.vector)
    assert result.seconds > reference.seconds


def test_pagerank_protected_rides_through_errors():
    rng = np.random.default_rng(6)
    link = build_link_matrix(rng.integers(0, 300, size=(2400, 2)), 300)
    injector = FaultInjector.seeded(6)
    process = ErrorProcess(2e-5, injector.rng)

    def tamper(stage, data, work):
        for _ in range(process.events_in(work)):
            if data.size:
                injector.corrupt_random_element(data, target=stage)

    plain, _ = pagerank(link, protected=False)
    protected, diag = pagerank(link, protected=True, tamper=tamper)
    assert diag.converged
    assert injector.log and diag.detections > 0
    np.testing.assert_allclose(protected, plain, rtol=1e-8, atol=1e-12)


def test_unprotected_pagerank_poisoned_by_nan():
    link = build_link_matrix(np.array([[0, 1], [1, 2], [2, 0], [1, 0]]), 3)
    ranks, diag = pagerank(link, protected=False, tamper=poison_every_result)
    assert not diag.converged
    assert diag.iterations == 1
    # The poisoned step is discarded: the ranks stay the uniform start.
    np.testing.assert_array_equal(ranks, np.full(3, 1.0 / 3.0))
