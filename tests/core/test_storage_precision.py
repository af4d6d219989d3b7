"""The bound's unit roundoff follows the matrix's storage dtype.

float64 and float32 are the two storage dtypes; checksums accumulate in
float64 for both.  Nothing else selects a precision: ``REPRO_DTYPE`` is
not read, and ``AbftConfig.dtype`` is validated but has no effect.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, BlockAbftDetector, FaultTolerantSpMV, unit_roundoff
from repro.core.calibration import EmpiricalBound
from repro.errors import ConfigurationError
from repro.schemes import make_scheme
from repro.sparse import random_spd
from repro.sparse.csr import SUPPORTED_STORAGE_DTYPES

EXPECTED_UNIT_ROUNDOFF = {"float64": 2.0**-53, "float32": 2.0**-24}

STORAGE = [dtype.name for dtype in SUPPORTED_STORAGE_DTYPES]


def to_bfloat16_grid(values):
    """float32 values truncated to bfloat16's 8-bit significand."""
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    return (bits & np.uint32(0xFFFF0000)).view(np.float32)


def one_shot(row, magnitude):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            data[row] += data.dtype.type(magnitude)
            state["armed"] = False

    return hook


def test_storage_dtypes_are_exactly_float64_and_float32():
    assert sorted(STORAGE) == sorted(EXPECTED_UNIT_ROUNDOFF)


@pytest.mark.parametrize("dtype", STORAGE)
def test_unit_roundoff_of_each_storage_dtype(dtype):
    assert unit_roundoff(dtype) == EXPECTED_UNIT_ROUNDOFF[dtype]
    assert unit_roundoff(np.dtype(dtype)) == EXPECTED_UNIT_ROUNDOFF[dtype]


@pytest.mark.parametrize("dtype", STORAGE)
def test_detector_epsilon_is_the_storage_unit_roundoff(dtype):
    matrix = random_spd(32, 200, seed=3, dtype=dtype)
    detector = BlockAbftDetector(matrix, AbftConfig(block_size=8))
    assert detector.epsilon == EXPECTED_UNIT_ROUNDOFF[dtype]


@pytest.mark.parametrize("dtype", STORAGE)
def test_empirical_floor_uses_the_storage_unit_roundoff(dtype):
    """An all-zero matrix never shows a syndrome, so with safety 1 each
    constant is the floor alone: the unit roundoff times max(0, 1)."""
    base = random_spd(32, 200, seed=3, dtype=dtype)
    matrix = base.with_data(np.zeros_like(base.data))
    bound = EmpiricalBound.calibrate(matrix, block_size=8, samples=3, safety=1.0)
    np.testing.assert_array_equal(bound.constants, EXPECTED_UNIT_ROUNDOFF[dtype])


@pytest.mark.parametrize("kind", ["sparse", "dense"])
def test_float32_bound_constants_are_2_29_times_the_float64_widening(kind):
    """The same values stored in float32 get the same checksum and norms
    (accumulated in float64) and a unit roundoff 2^29 times larger."""
    narrow = random_spd(96, 900, seed=12, dtype=np.float32)
    wide = narrow.astype(np.float64)
    config = AbftConfig(block_size=16, bound=kind)
    bound32 = BlockAbftDetector(narrow, config).bound
    bound64 = BlockAbftDetector(wide, config).bound
    np.testing.assert_array_equal(
        bound32.beta_coefficients(), bound64.beta_coefficients() * 2.0**29
    )


@pytest.mark.parametrize("value", ["float32", "bfloat16", "no-such-policy"])
def test_repro_dtype_changes_nothing(value, monkeypatch):
    """No variable selects a precision: the epsilons, thresholds and
    result bits of both storage dtypes are those of an unset variable."""
    b = np.random.default_rng(2).standard_normal(48)

    def run():
        outcomes = []
        for dtype in STORAGE:
            matrix = random_spd(48, 400, seed=5, dtype=dtype)
            operand = b.astype(dtype)
            op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=8))
            result = op.multiply(operand, tamper=one_shot(13, 1e4))
            outcomes.append((
                op.detector.epsilon,
                op.detector.bound.thresholds(op.detector.operand_norm(operand)).tobytes(),
                result.value.tobytes(),
                result.detected_blocks,
            ))
        return outcomes

    monkeypatch.delenv("REPRO_DTYPE", raising=False)
    unset = run()
    monkeypatch.setenv("REPRO_DTYPE", value)
    assert run() == unset


@pytest.mark.parametrize("scheme", ["abft", "vabft"])
def test_bfloat16_grid_values_get_the_float32_bound(scheme, monkeypatch):
    """float32 storage whose values lie on the bfloat16 grid is float32
    data: a result error of 1e-2 * max|r| is flagged and repaired bit for
    bit, with or without ``REPRO_DTYPE=bfloat16`` in the environment."""
    monkeypatch.setenv("REPRO_DTYPE", "bfloat16")
    base = random_spd(512, 5_000, seed=3, dtype=np.float32)
    matrix = base.with_data(to_bfloat16_grid(base.data))
    b = to_bfloat16_grid(np.random.default_rng(8).standard_normal(512))
    op = make_scheme(scheme, matrix, config=AbftConfig(block_size=32))
    assert op.detector.epsilon == 2.0**-24
    clean = op.multiply(b)
    assert clean.clean
    row = 200
    hit = op.multiply(b, tamper=one_shot(row, 1e-2 * float(np.abs(clean.value).max())))
    assert hit.detected_blocks[0] == (row // 32,)
    assert not hit.exhausted
    np.testing.assert_array_equal(hit.value, clean.value)


@pytest.mark.parametrize("value", [None, "float64", "float32"])
def test_abft_config_dtype_accepts_the_storage_names_and_is_inert(value):
    config = AbftConfig(block_size=8, dtype=value)
    assert config.dtype == value
    detector = BlockAbftDetector(random_spd(32, 200, seed=3), config)
    assert detector.epsilon == 2.0**-53


@pytest.mark.parametrize("value", ["bfloat16", "f32", "FLOAT32", ["float32"]], ids=repr)
def test_abft_config_dtype_rejects_anything_else(value):
    with pytest.raises(ConfigurationError, match=r"AbftConfig\.dtype must be None"):
        AbftConfig(dtype=value)


@pytest.mark.parametrize("scheme", ["abft", "vabft"])
@pytest.mark.parametrize("dtype", STORAGE)
def test_dtype_policy_names_the_storage_dtype(scheme, dtype):
    matrix = random_spd(32, 200, seed=3, dtype=dtype)
    op = make_scheme(scheme, matrix, config=AbftConfig(block_size=8))
    assert op.dtype_policy.name == str(matrix.dtype) == dtype


# ----------------------------------------------------------------------
# End to end on float32 storage
# ----------------------------------------------------------------------
def test_float32_protected_spmv_detects_and_corrects():
    matrix = random_spd(48, 400, seed=5, dtype=np.float32)
    spmv = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=8))
    b = np.random.default_rng(6).standard_normal(48).astype(np.float32)
    clean = spmv.multiply(b)
    assert clean.value.dtype == np.float32
    assert not any(clean.detections)

    hit = spmv.multiply(b, tamper=one_shot(5, 1e4))
    assert any(hit.detections)
    np.testing.assert_array_equal(hit.value, clean.value)


def test_float32_pipeline_keeps_each_matrix_epsilon():
    """A float32 and a float64 operator side by side: each keeps its own
    unit roundoff, and the float32 one detects in float32."""
    f32 = random_spd(48, 400, seed=5, dtype=np.float32)
    f64 = random_spd(48, 400, seed=5)
    spmv32 = FaultTolerantSpMV(f32, config=AbftConfig(block_size=8))
    spmv64 = FaultTolerantSpMV(f64, config=AbftConfig(block_size=8))
    assert spmv32.detector.epsilon == 2.0**-24
    assert spmv64.detector.epsilon == 2.0**-53
    b = np.random.default_rng(2).standard_normal(48).astype(np.float32)
    result = spmv32.multiply(b, tamper=one_shot(13, 1e4))
    assert any(result.detections)
    assert result.value.dtype == np.float32


def test_float32_operand_beyond_float32_norm_still_flags_a_result_error():
    """beta is accumulated in float64.  Computed in float32 it overflowed
    to inf for this operand (|A b| stays well inside float32's range), every
    threshold became inf, and the 1e30 result error was reported clean."""
    matrix = random_spd(400, 4000, seed=3, dtype=np.float32)
    op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=32))
    b = (np.random.default_rng(3).standard_normal(400) * 3e19).astype(np.float32)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(b))
    assert np.isfinite(op.detector.operand_norm(b))

    clean = op.multiply(b)
    assert clean.detections == (False,)
    assert np.isfinite(clean.value).all()

    hit = op.multiply(b, tamper=one_shot(7, 1e30))
    assert hit.detected_blocks[0] == (0,)
    assert hit.corrected_blocks == (0,)
    assert not hit.exhausted
    np.testing.assert_array_equal(hit.value, clean.value)
