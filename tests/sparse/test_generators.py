"""Unit tests for the synthetic matrix generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sparse import (
    arrowhead_spd,
    banded_spd,
    block_stencil_spd,
    poisson2d,
    poisson3d,
    random_spd,
)


def _assert_spd_like(csr):
    """Check symmetry and strict diagonal dominance with positive diagonal."""
    assert csr.is_symmetric()
    dense = csr.to_dense()
    diag = np.diag(dense)
    off_row_sums = np.abs(dense).sum(axis=1) - np.abs(diag)
    assert (diag > 0).all()
    assert (diag >= off_row_sums).all()


def test_poisson2d_structure():
    a = poisson2d(3)
    assert a.shape == (9, 9)
    dense = a.to_dense()
    assert dense[0, 0] == 4.0
    assert dense[0, 1] == -1.0
    assert dense[0, 3] == -1.0
    assert dense[0, 2] == 0.0  # no wraparound across grid rows
    _assert_spd_like(a)


def test_poisson2d_rectangular_grid():
    a = poisson2d(4, 2)
    assert a.shape == (8, 8)
    _assert_spd_like(a)


def test_poisson2d_eigenvalues_positive():
    a = poisson2d(4)
    eigvals = np.linalg.eigvalsh(a.to_dense())
    assert eigvals.min() > 0


def test_poisson2d_single_cell():
    a = poisson2d(1)
    np.testing.assert_array_equal(a.to_dense(), [[4.0]])


def test_poisson2d_rejects_nonpositive_dims():
    with pytest.raises(ConfigurationError):
        poisson2d(0)
    with pytest.raises(ConfigurationError):
        poisson2d(3, -1)


def test_poisson3d_structure():
    a = poisson3d(2)
    assert a.shape == (8, 8)
    dense = a.to_dense()
    assert dense[0, 0] == 6.0
    # Node 0 neighbours in a 2x2x2 grid: +x (1), +y (2), +z (4).
    assert dense[0, 1] == -1.0
    assert dense[0, 2] == -1.0
    assert dense[0, 4] == -1.0
    _assert_spd_like(a)


def test_poisson3d_rejects_bad_dims():
    with pytest.raises(ConfigurationError):
        poisson3d(2, 0, 2)


def test_banded_spd_respects_bandwidth():
    a = banded_spd(50, half_bandwidth=3, in_band_density=1.0, seed=1)
    rows = a.entry_rows()
    assert np.abs(rows - a.indices).max() <= 3
    _assert_spd_like(a)


def test_banded_spd_density_zero_gives_diagonal():
    a = banded_spd(10, half_bandwidth=4, in_band_density=0.0, seed=2)
    assert a.nnz == 10
    assert (a.diagonal() > 0).all()


def test_banded_spd_deterministic_for_seed():
    a = banded_spd(30, 5, 0.5, seed=7)
    b = banded_spd(30, 5, 0.5, seed=7)
    assert a == b


def test_banded_spd_validation():
    with pytest.raises(ConfigurationError):
        banded_spd(0, 1)
    with pytest.raises(ConfigurationError):
        banded_spd(5, 5)
    with pytest.raises(ConfigurationError):
        banded_spd(5, 2, in_band_density=1.5)


def test_random_spd_hits_nnz_target_approximately():
    target = 5000
    a = random_spd(500, target, seed=3)
    assert a.shape == (500, 500)
    assert abs(a.nnz - target) / target < 0.25
    _assert_spd_like(a)


def test_random_spd_more_local_means_narrower_band():
    tight = random_spd(400, 4000, locality=0.01, seed=4)
    loose = random_spd(400, 4000, locality=0.2, seed=4)
    tight_spread = np.abs(tight.entry_rows() - tight.indices).mean()
    loose_spread = np.abs(loose.entry_rows() - loose.indices).mean()
    assert tight_spread < loose_spread


def test_random_spd_deterministic_for_seed():
    assert random_spd(100, 600, seed=5) == random_spd(100, 600, seed=5)


def test_random_spd_minimal_target_is_diagonal_dominated():
    a = random_spd(20, 20, seed=6)
    assert a.nnz >= 20
    _assert_spd_like(a)


def test_random_spd_validation():
    with pytest.raises(ConfigurationError):
        random_spd(0, 10)
    with pytest.raises(ConfigurationError):
        random_spd(10, 5)
    with pytest.raises(ConfigurationError):
        random_spd(10, 20, locality=0.0)


def test_arrowhead_structure():
    a = arrowhead_spd(6, seed=1)
    dense = a.to_dense()
    assert (dense[0, 1:] != 0).all()
    assert (dense[1:, 0] != 0).all()
    interior = dense[1:, 1:]
    assert np.count_nonzero(interior - np.diag(np.diag(interior))) == 0
    _assert_spd_like(a)


def test_arrowhead_rejects_tiny():
    with pytest.raises(ConfigurationError):
        arrowhead_spd(1)


def test_poisson3d_rejects_an_empty_grid():
    with pytest.raises(ConfigurationError, match="grid dimension must be positive"):
        poisson3d(0)


@pytest.mark.parametrize(
    "n_cells, block_edge, message",
    [(0, 4, "n_cells must be positive"), (4, 0, "block_edge must be positive")],
    ids=["n_cells", "block_edge"],
)
def test_block_stencil_rejects_empty_dimensions(n_cells, block_edge, message):
    with pytest.raises(ConfigurationError, match=message):
        block_stencil_spd(n_cells, block_edge)
