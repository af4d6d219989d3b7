"""Unit tests for algebraic (recomputation-free) single-error correction."""

import numpy as np
import pytest

from repro.core.algebraic import DualChecksumSpMV
from repro.errors import ConfigurationError
from repro.sparse import random_spd


@pytest.fixture(scope="module")
def matrix():
    return random_spd(256, 2500, seed=91)


@pytest.fixture()
def b():
    return np.random.default_rng(91).standard_normal(256)


def one_shot(stage_name, mutate):
    state = {"done": False}

    def hook(stage, data, work):
        if stage == stage_name and not state["done"]:
            mutate(data)
            state["done"] = True

    return hook


def test_clean_multiply(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)
    result = scheme.multiply(b)
    assert result.clean
    assert result.algebraic_repairs == ()
    assert result.recomputed_blocks == ()
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


def test_single_error_repaired_without_recomputation(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)
    result = scheme.multiply(
        b, tamper=one_shot("result", lambda d: d.__setitem__(70, d[70] + 2.5))
    )
    assert result.detected == (2,)
    assert result.recomputed_blocks == ()  # no recomputation at all
    assert len(result.algebraic_repairs) == 1
    row, correction = result.algebraic_repairs[0]
    assert row == 70
    assert correction == pytest.approx(-2.5, rel=1e-9)
    np.testing.assert_allclose(result.value, matrix.matvec(b), rtol=1e-12)


def test_repaired_value_is_near_exact(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)
    reference = matrix.matvec(b)
    result = scheme.multiply(
        b, tamper=one_shot("result", lambda d: d.__setitem__(10, d[10] * 1.01))
    )
    # Algebraic repair reconstructs from checksums: exact up to rounding.
    assert abs(result.value[10] - reference[10]) <= 1e-10 * max(1.0, abs(reference[10]))


def test_two_errors_in_one_block_fall_back_to_recomputation(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)

    def mutate(d):
        d[64] += 1.0
        d[70] += 2.0

    result = scheme.multiply(b, tamper=one_shot("result", mutate))
    assert 2 in result.recomputed_blocks
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


def test_nan_error_falls_back_to_recomputation(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)
    result = scheme.multiply(
        b, tamper=one_shot("result", lambda d: d.__setitem__(5, np.nan))
    )
    assert result.recomputed_blocks == (0,)
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


def test_errors_in_distinct_blocks_all_repaired(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=32)

    def mutate(d):
        d[1] += 3.0
        d[100] -= 4.0
        d[200] += 5.0

    result = scheme.multiply(b, tamper=one_shot("result", mutate))
    assert len(result.algebraic_repairs) == 3
    assert result.recomputed_blocks == ()
    np.testing.assert_allclose(result.value, matrix.matvec(b), rtol=1e-12)


def test_repair_cheaper_than_recompute_for_dense_blocks():
    """The extension's selling point: repair touches one row, not b_s rows.

    The gap only shows where a block's recompute work exceeds the kernel
    latency floor, i.e. for dense blocks — hence the fat matrix here.
    """
    from repro.core import FaultTolerantSpMV

    dense = random_spd(2048, 2_400_000, locality=0.5, seed=92)
    rhs = np.random.default_rng(92).standard_normal(2048)
    hook = lambda: one_shot("result", lambda d: d.__setitem__(70, d[70] + 2.5))  # noqa: E731
    algebraic = DualChecksumSpMV(dense, block_size=32).multiply(rhs, tamper=hook())
    recompute = FaultTolerantSpMV(dense, block_size=32).multiply(rhs, tamper=hook())
    # Same detection cost family; the correction phase differs.  The
    # algebraic scheme pays doubled checksum work up front, so compare the
    # *correction* deltas via a clean run of each.
    algebraic_clean = DualChecksumSpMV(dense, block_size=32).multiply(rhs)
    recompute_clean = FaultTolerantSpMV(dense, block_size=32).multiply(rhs)
    algebraic_delta = algebraic.seconds - algebraic_clean.seconds
    recompute_delta = recompute.seconds - recompute_clean.seconds
    assert len(algebraic.algebraic_repairs) == 1
    assert algebraic_delta < recompute_delta


def test_block_size_one(matrix, b):
    scheme = DualChecksumSpMV(matrix, block_size=1)
    result = scheme.multiply(
        b, tamper=one_shot("result", lambda d: d.__setitem__(9, d[9] + 1.0))
    )
    assert (9, pytest.approx(-1.0)) == result.algebraic_repairs[0]
    np.testing.assert_allclose(result.value, matrix.matvec(b), rtol=1e-12)


def test_float32_bound_uses_the_storage_epsilon():
    # A float64 roundoff bound on float32 data flags every block of a
    # clean multiply; the float32 unit roundoff must hold them all clean.
    matrix32 = random_spd(400, 4000, seed=1).astype(np.float32)
    b32 = np.random.default_rng(1).standard_normal(400).astype(np.float32)
    scheme = DualChecksumSpMV(matrix32, block_size=32)
    assert scheme.multiply(b32).clean
    result = scheme.multiply(
        b32, tamper=one_shot("result", lambda d: d.__setitem__(70, d[70] + 2.5))
    )
    assert result.detected == (2,)
    assert not result.exhausted
    np.testing.assert_array_equal(result.value, matrix32.matvec(b32))


def test_validation():
    m = random_spd(16, 40, seed=1)
    with pytest.raises(ConfigurationError):
        DualChecksumSpMV(m, block_size=0)
    with pytest.raises(ConfigurationError):
        DualChecksumSpMV(m, max_rounds=0)


def test_persistent_corruption_exhausts(matrix, b):
    def hook(stage, data, work):
        if stage in ("result", "corrected"):
            data[0] = np.inf

    scheme = DualChecksumSpMV(matrix, block_size=32, max_rounds=2)
    result = scheme.multiply(b, tamper=hook)
    assert result.exhausted
