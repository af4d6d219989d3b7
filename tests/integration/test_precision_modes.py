"""End-to-end precision modes: REPRO_DTYPE / REPRO_SCHEME environment legs.

Mirrors the CI ``precision-matrix`` job at unit scale: the whole
protected pipeline (scheme registry -> detector -> correction, planned
and unplanned) under the float32 dtype policy and under the ``vabft``
scheme selected via ``REPRO_SCHEME``.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.core.dtypes import DTYPE_ENV_VAR, EPS_FLOAT32, EPS_FLOAT64
from repro.schemes import SCHEME_ENV_VAR, resolve_scheme
from repro.sparse import random_spd


def one_shot_burst(index=13, magnitude=1e4):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            data[index] += magnitude
            state["armed"] = False

    return hook


def test_repro_scheme_env_selects_vabft(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, "vabft")
    matrix = random_spd(48, 400, seed=5)
    scheme = resolve_scheme(matrix, config=AbftConfig(block_size=8))
    assert scheme.name == "vabft"
    b = np.random.default_rng(1).standard_normal(48)
    result = scheme.multiply(b, tamper=one_shot_burst())
    assert any(result.detections)
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


def test_float32_policy_pipeline_under_env(monkeypatch):
    """REPRO_DTYPE=float32 switches the policy, and a float32 matrix gets
    the float32 epsilon, while a float64 matrix keeps 2^-53."""
    monkeypatch.setenv(DTYPE_ENV_VAR, "float32")
    f32 = random_spd(48, 400, seed=5, dtype=np.float32)
    f64 = random_spd(48, 400, seed=5)
    spmv32 = FaultTolerantSpMV(f32, config=AbftConfig(block_size=8))
    spmv64 = FaultTolerantSpMV(f64, config=AbftConfig(block_size=8))
    assert spmv32.dtype_policy.name == "float32"
    assert spmv32.detector.epsilon == EPS_FLOAT32
    assert spmv64.detector.epsilon == EPS_FLOAT64
    b = np.random.default_rng(2).standard_normal(48).astype(np.float32)
    result = spmv32.multiply(b, tamper=one_shot_burst())
    assert any(result.detections)
    assert result.value.dtype == np.float32


@pytest.mark.parametrize("scheme_name", ["abft", "vabft"])
def test_planned_float32_matches_unplanned(scheme_name, monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, scheme_name)
    matrix = random_spd(64, 520, seed=9, dtype=np.float32)
    b = np.random.default_rng(3).standard_normal(64).astype(np.float32)
    config = AbftConfig(block_size=16)
    direct = resolve_scheme(matrix, config=config)
    planned_host = resolve_scheme(matrix, config=config)
    expected = direct.multiply(b.copy())
    # Bit-identity with the unplanned multiply is the CSR contract; pin
    # the format against a REPRO_FORMAT override.
    plan = planned_host.planned(n_shards=2, sparse_format="csr")
    got = plan.multiply(b.copy())
    np.testing.assert_array_equal(got.value, expected.value)
    assert got.value.dtype == np.float32


def test_bfloat16_policy_quantizes_and_detects(monkeypatch):
    """The bfloat16 emulation: quantized float32 storage, 2^-8 epsilon,
    and detection still exact on a visible burst."""
    monkeypatch.setenv(DTYPE_ENV_VAR, "bfloat16")
    from repro.core.dtypes import BFLOAT16_POLICY, EPS_BFLOAT16

    base = random_spd(48, 400, seed=7, dtype=np.float32)
    matrix = base.with_data(BFLOAT16_POLICY.quantize(base.data))
    spmv = FaultTolerantSpMV(matrix, config=AbftConfig(block_size=8))
    assert spmv.detector.epsilon == EPS_BFLOAT16
    b = BFLOAT16_POLICY.quantize(
        np.random.default_rng(8).standard_normal(48).astype(np.float32)
    )
    clean = spmv.multiply(b)
    assert not any(clean.detections)
    hit = spmv.multiply(b, tamper=one_shot_burst())
    assert any(hit.detections)
    np.testing.assert_array_equal(hit.value, clean.value)
