"""Dtype-policy layer: resolution chain, epsilon model, recorded coercions."""

import numpy as np
import pytest

from repro.core import AbftConfig, BlockAbftDetector, FaultTolerantSpMV
from repro.core.dtypes import (
    BFLOAT16_POLICY,
    DTYPE_ENV_VAR,
    EPS_BFLOAT16,
    EPS_FLOAT32,
    EPS_FLOAT64,
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    DtypePolicy,
    available_dtypes,
    canonical_dtype_name,
    coerce_array,
    resolve_dtype_name,
    resolve_dtype_policy,
)
from repro.errors import ConfigurationError
from repro.obs import InMemoryExporter, Telemetry
from repro.sparse import random_spd


# ----------------------------------------------------------------------
# Names and aliases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("f64", "float64"),
        ("double", "float64"),
        ("FP64", "float64"),
        ("single", "float32"),
        (" f32 ", "float32"),
        ("bf16", "bfloat16"),
        ("float64", "float64"),
    ],
)
def test_aliases_resolve(alias, canonical):
    assert canonical_dtype_name(alias) == canonical


def test_unknown_name_raises():
    with pytest.raises(ConfigurationError, match="unknown dtype policy"):
        canonical_dtype_name("float8")


def test_builtins_are_registered():
    assert set(available_dtypes()) >= {"float64", "float32", "bfloat16"}


def test_non_float_dtype_rejected():
    with pytest.raises(ConfigurationError, match="float dtype"):
        DtypePolicy(name="ints", working="int64", accumulation="float64")


# ----------------------------------------------------------------------
# Resolution chain: explicit > env > configured > default
# ----------------------------------------------------------------------
def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(DTYPE_ENV_VAR, raising=False)
    assert resolve_dtype_name() == "float64"
    assert resolve_dtype_name(configured="float32") == "float32"
    monkeypatch.setenv(DTYPE_ENV_VAR, "bfloat16")
    assert resolve_dtype_name(configured="float32") == "bfloat16"
    assert resolve_dtype_name(configured="float32", explicit="f32") == "float32"


def test_resolve_policy_passes_instances_through():
    assert resolve_dtype_policy(explicit=FLOAT32_POLICY) is FLOAT32_POLICY


def test_config_dtype_validates():
    assert AbftConfig(dtype="f32").dtype == "f32"
    with pytest.raises(ConfigurationError):
        AbftConfig(dtype="float128ish")


# ----------------------------------------------------------------------
# Epsilon model keys on storage dtype
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "policy, storage, expected",
    [
        (FLOAT64_POLICY, np.float64, EPS_FLOAT64),
        (FLOAT64_POLICY, np.float32, EPS_FLOAT32),
        (FLOAT32_POLICY, np.float64, EPS_FLOAT64),
        (FLOAT32_POLICY, np.float32, EPS_FLOAT32),
        (BFLOAT16_POLICY, np.float64, EPS_FLOAT64),
        (BFLOAT16_POLICY, np.float32, EPS_BFLOAT16),
    ],
)
def test_epsilon_for_storage(policy, storage, expected):
    assert policy.epsilon_for(storage) == expected


def test_env_override_cannot_loosen_float64_matrix_bound(monkeypatch):
    """The tier-1 safety property: REPRO_DTYPE=float32 leaves a float64
    matrix's detector epsilon at 2^-53."""
    matrix = random_spd(32, 200, seed=3)
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    detector = BlockAbftDetector(matrix, AbftConfig(block_size=8))
    assert detector.dtype_policy.name == "float32"
    assert detector.epsilon == EPS_FLOAT64


def test_float32_matrix_gets_float32_epsilon():
    matrix = random_spd(32, 200, seed=3, dtype=np.float32)
    detector = BlockAbftDetector(matrix, AbftConfig(block_size=8))
    assert detector.epsilon == EPS_FLOAT32


# ----------------------------------------------------------------------
# bfloat16 quantization
# ----------------------------------------------------------------------
def test_bfloat16_quantize_drops_low_mantissa_bits():
    values = np.array([1.0, 1.0 + 2.0**-9, -3.14159, 1e30], dtype=np.float32)
    rounded = BFLOAT16_POLICY.quantize(values)
    assert rounded.dtype == np.float32
    bits = rounded.view(np.uint32)
    assert np.all(bits & np.uint32(0xFFFF) == 0)
    # round-to-nearest: 1 + 2^-9 is closer to 1 + 2^-8 than to 1.0? No —
    # exactly halfway between 1.0 and 1 + 2^-8; ties-to-even keeps 1.0.
    assert rounded[0] == np.float32(1.0)


def test_bfloat16_quantize_is_idempotent():
    rng = np.random.default_rng(11)
    values = rng.standard_normal(256).astype(np.float32)
    once = BFLOAT16_POLICY.quantize(values)
    np.testing.assert_array_equal(once, BFLOAT16_POLICY.quantize(once))


def test_native_policies_quantize_is_identity():
    values = np.array([1.0 + 2.0**-20], dtype=np.float32)
    np.testing.assert_array_equal(FLOAT32_POLICY.quantize(values), values)


# ----------------------------------------------------------------------
# Recorded coercions
# ----------------------------------------------------------------------
def test_coerce_array_is_zero_copy_on_matching_dtype():
    values = np.ones(4, dtype=np.float32)
    out = coerce_array(values, np.float32, site="test")
    assert out is values


def test_coerce_array_records_conversion():
    telemetry = Telemetry(exporter=InMemoryExporter())
    out = coerce_array(
        np.ones(4, dtype=np.float32),
        np.float64,
        site="test.site",
        telemetry=telemetry,
        reason="unit test",
    )
    assert out.dtype == np.float64
    events = [
        e
        for e in telemetry.events()
        if e["type"] == "counter" and e["name"] == "dtype.coerced"
    ]
    assert len(events) == 1
    attrs = events[0]["attrs"]
    assert attrs["site"] == "test.site"
    assert attrs["from_dtype"] == "float32"
    assert attrs["to_dtype"] == "float64"
    assert attrs["reason"] == "unit test"


def test_coerce_array_silent_without_telemetry():
    out = coerce_array([1, 2, 3], np.float64, site="test")
    assert out.dtype == np.float64


# ----------------------------------------------------------------------
# End-to-end: float32 protected SpMV
# ----------------------------------------------------------------------
def test_float32_protected_spmv_detects_and_corrects():
    matrix = random_spd(48, 400, seed=5, dtype=np.float32)
    spmv = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=8))
    b = np.random.default_rng(6).standard_normal(48).astype(np.float32)
    clean = spmv.multiply(b)
    assert clean.value.dtype == np.float32
    assert not any(clean.detections)

    state = {"armed": True}

    def burst(stage, data, work):
        if stage == "result" and state["armed"]:
            data[5] += np.float32(1e4)
            state["armed"] = False

    hit = spmv.multiply(b, tamper=burst)
    assert any(hit.detections)
    np.testing.assert_array_equal(hit.value, clean.value)


def test_float32_operand_beyond_float32_norm_still_flags_a_result_error():
    """beta is accumulated in float64.  Computed in float32 it overflowed
    to inf for this operand (|A b| stays well inside float32's range), every
    threshold became inf, and the 1e30 result error was reported clean."""
    matrix = random_spd(400, 4000, seed=3, dtype=np.float32)
    op = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=32, dtype="float32"))
    b = (np.random.default_rng(3).standard_normal(400) * 3e19).astype(np.float32)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(b))
    assert np.isfinite(op.detector.operand_norm(b))

    clean = op.multiply(b)
    assert clean.detections == (False,)
    assert np.isfinite(clean.value).all()

    def corrupt(stage, data, work):
        if stage == "result":
            data[7] += np.float32(1e30)

    hit = op.multiply(b, tamper=corrupt)
    assert hit.detected_blocks[0] == (0,)
    assert hit.corrected_blocks == (0,)
    assert not hit.exhausted
    np.testing.assert_array_equal(hit.value, clean.value)
