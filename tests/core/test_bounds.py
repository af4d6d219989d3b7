"""Unit tests for the rounding-error bounds (paper Section III-C)."""

import numpy as np
import pytest

from repro.core import (
    MACHINE_EPSILON,
    AbftConfig,
    ChecksumMatrix,
    DenseAnalyticalBound,
    NormBound,
    SparseBlockBound,
    make_bound,
)
from repro.errors import ConfigurationError
from repro.sparse import banded_spd, random_spd


@pytest.fixture
def checksum():
    return ChecksumMatrix.build(banded_spd(100, 4, 0.8, seed=3), block_size=8)


def test_machine_epsilon_is_double_precision():
    assert MACHINE_EPSILON == 2.0**-53


def test_sparse_bound_formula(checksum):
    """Check block 0 against the paper's formula computed by hand."""
    bound = SparseBlockBound.from_checksum(checksum)
    n_k = checksum.nonempty_columns[0]
    b_s = checksum.partition.length(0)
    expected = (
        (n_k + 2 * b_s - 2) * checksum.row_norm_sums[0]
        + n_k * checksum.checksum_norms[0]
    ) * MACHINE_EPSILON
    assert bound.constants[0] == pytest.approx(expected)


def test_sparse_bound_scales_linearly_with_beta(checksum):
    bound = SparseBlockBound.from_checksum(checksum)
    np.testing.assert_allclose(bound.thresholds(4.0), 2.0 * bound.thresholds(2.0))


def test_sparse_bound_subset_selection(checksum):
    bound = SparseBlockBound.from_checksum(checksum)
    full = bound.thresholds(1.0)
    subset = bound.thresholds(1.0, blocks=np.array([5, 1]))
    np.testing.assert_array_equal(subset, full[[5, 1]])


def test_sparse_bound_tighter_than_dense(checksum):
    """n_k < n makes every per-block bound below the whole-matrix bound."""
    sparse = SparseBlockBound.from_checksum(checksum)
    dense = DenseAnalyticalBound.from_checksum(checksum)
    assert (sparse.thresholds(1.0) < dense.thresholds(1.0)).all()


def test_bounds_admit_actual_rounding_error():
    """On an error-free SpMV the syndrome must stay below the sparse bound."""
    rng = np.random.default_rng(7)
    a = random_spd(500, 5000, seed=7)
    cs = ChecksumMatrix.build(a, block_size=32)
    bound = SparseBlockBound.from_checksum(cs)
    for trial in range(20):
        b = rng.standard_normal(500) * 10.0 ** rng.integers(-3, 4)
        r = a.matvec(b)
        syndrome = np.abs(cs.operand_checksums(b) - cs.result_checksums(r))
        tau = bound.thresholds(float(np.linalg.norm(b)))
        assert (syndrome < tau).all(), f"false positive in trial {trial}"


def test_sparse_bound_catches_visible_error():
    a = random_spd(500, 5000, seed=8)
    cs = ChecksumMatrix.build(a, block_size=32)
    bound = SparseBlockBound.from_checksum(cs)
    b = np.ones(500)
    r = a.matvec(b)
    r[100] += 1e-6 * abs(r[100]) + 1e-9
    syndrome = np.abs(cs.operand_checksums(b) - cs.result_checksums(r))
    tau = bound.thresholds(float(np.linalg.norm(b)))
    flagged = np.nonzero(syndrome > tau)[0]
    np.testing.assert_array_equal(flagged, [100 // 32])


def test_norm_bound_is_beta(checksum):
    bound = NormBound(n_blocks=checksum.n_blocks)
    np.testing.assert_array_equal(
        bound.thresholds(3.5), np.full(checksum.n_blocks, 3.5)
    )


def test_norm_bound_much_looser_than_sparse(checksum):
    """The ||b||_2 bound dwarfs the analytical one on well-scaled data."""
    sparse = SparseBlockBound.from_checksum(checksum)
    norm = NormBound(n_blocks=checksum.n_blocks)
    beta = 10.0
    assert (norm.thresholds(beta) > 1e6 * sparse.thresholds(beta)).all()


def test_bound_scale_multiplies(checksum):
    base = SparseBlockBound.from_checksum(checksum)
    scaled = SparseBlockBound.from_checksum(checksum, scale=2.0)
    np.testing.assert_allclose(scaled.thresholds(1.0), 2.0 * base.thresholds(1.0))


def test_make_bound_dispatch(checksum):
    assert isinstance(make_bound("sparse", checksum), SparseBlockBound)
    assert isinstance(make_bound("dense", checksum), DenseAnalyticalBound)
    assert isinstance(make_bound("norm", checksum), NormBound)
    with pytest.raises(ConfigurationError):
        make_bound("bogus", checksum)


def test_invalid_scales_rejected(checksum):
    with pytest.raises(ConfigurationError):
        SparseBlockBound.from_checksum(checksum, scale=0.0)
    with pytest.raises(ConfigurationError):
        DenseAnalyticalBound.from_checksum(checksum, scale=-1.0)
    with pytest.raises(ConfigurationError):
        NormBound(n_blocks=3, scale=0.0)


def test_abft_config_validation():
    with pytest.raises(ConfigurationError):
        AbftConfig(block_size=0)
    with pytest.raises(ConfigurationError):
        AbftConfig(bound="nope")
    with pytest.raises(ConfigurationError):
        AbftConfig(weights="nope")
    with pytest.raises(ConfigurationError):
        AbftConfig(bound_scale=0.0)
    with pytest.raises(ConfigurationError):
        AbftConfig(max_correction_rounds=0)


@pytest.mark.parametrize("epsilon", [0.0, -MACHINE_EPSILON], ids=["zero", "negative"])
@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_analytical_bounds_reject_a_non_positive_epsilon(checksum, kind, epsilon):
    with pytest.raises(ConfigurationError, match="bound epsilon must be positive"):
        make_bound(kind, checksum, epsilon=epsilon)
