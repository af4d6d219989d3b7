"""Unit tests for the end-to-end fault-tolerant SpMV driver."""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV, plain_spmv
from repro.errors import ConfigurationError
from repro.machine import ExecutionMeter
from repro.schemes.vabft import VarianceAdaptiveSpMV
from repro.sparse import random_spd


@pytest.fixture
def ft():
    return FaultTolerantSpMV(random_spd(256, 2500, seed=21), block_size=32)


@pytest.fixture
def b():
    return np.random.default_rng(21).standard_normal(256)


def one_shot(stage_name, mutate):
    """Tamper hook firing once on the first occurrence of a stage."""
    state = {"done": False}

    def hook(stage, data, work):
        if stage == stage_name and not state["done"]:
            mutate(data)
            state["done"] = True

    return hook


def test_clean_multiply_matches_plain(ft, b):
    result = ft.multiply(b)
    assert result.clean
    assert result.rounds == 0
    assert not result.exhausted
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_single_result_error_corrected_exactly(ft, b):
    result = ft.multiply(b, tamper=one_shot("result", lambda d: d.__setitem__(40, d[40] + 3.0)))
    assert result.detected[0] == (1,)
    assert result.corrected_blocks == (1,)
    assert result.rounds == 1
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_multi_block_errors_corrected(ft, b):
    def mutate(d):
        d[0] += 1.0
        d[100] -= 2.0
        d[255] *= 1.5

    result = ft.multiply(b, tamper=one_shot("result", mutate))
    assert result.detected[0] == (0, 3, 7)
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_nan_result_corrected(ft, b):
    result = ft.multiply(b, tamper=one_shot("result", lambda d: d.__setitem__(7, np.nan)))
    assert result.corrected_blocks == (0,)
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_corrupted_correction_caught_by_reverification(ft, b):
    """First correction is corrupted; round 2 repairs it."""
    state = {"result_done": False, "corrected_done": False}

    def hook(stage, data, work):
        if stage == "result" and not state["result_done"]:
            data[40] += 5.0
            state["result_done"] = True
        elif stage == "corrected" and not state["corrected_done"]:
            data[0] += 9.0
            state["corrected_done"] = True

    result = ft.multiply(b, tamper=hook)
    assert result.rounds == 2
    assert not result.exhausted
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_corrupted_t1_resolved_by_refresh(ft, b):
    """A corrupted operand checksum triggers a spurious correction; the t1
    refresh in round 2 stops the loop with the correct value."""
    result = ft.multiply(b, tamper=one_shot("t1", lambda d: d.__setitem__(3, d[3] + 1.0)))
    assert not result.exhausted
    assert 3 in result.corrected_blocks
    np.testing.assert_array_equal(result.value, ft.matrix.matvec(b))


def test_persistent_tamper_exhausts_round_budget(ft, b):
    """An adversarial hook corrupting every correction forces give-up."""

    def hook(stage, data, work):
        if stage in ("result", "corrected"):
            data[0] = np.inf

    config = AbftConfig(block_size=32, max_correction_rounds=3)
    ft_small = FaultTolerantSpMV(ft.matrix, config=config)
    result = ft_small.multiply(b, tamper=hook)
    assert result.exhausted
    assert result.rounds == 3


def test_corrupted_beta_can_mask_errors(ft, b):
    """NaN beta makes thresholds NaN; comparisons are then false, so a real
    error slips through — documents the modeled detection vulnerability."""

    def hook(stage, data, work):
        if stage == "beta":
            data[0] = np.nan
        elif stage == "result":
            data[40] += 3.0

    result = ft.multiply(b, tamper=hook)
    assert result.detected[0] == ()
    assert result.value[40] != ft.matrix.matvec(b)[40]


def test_meter_charged_more_when_correcting(ft, b):
    clean = ft.multiply(b)
    faulty = ft.multiply(b, tamper=one_shot("result", lambda d: d.__setitem__(0, np.inf)))
    assert faulty.seconds > clean.seconds
    assert faulty.flops > clean.flops


def test_overhead_positive_but_bounded(ft, b):
    meter = ExecutionMeter()
    plain_spmv(ft.matrix, b, meter=meter)
    protected = ft.multiply(b)
    overhead = protected.seconds / meter.seconds - 1.0
    assert 0.0 < overhead < 3.0


def test_external_meter_accumulates(ft, b):
    meter = ExecutionMeter()
    r1 = ft.multiply(b, meter=meter)
    r2 = ft.multiply(b, meter=meter)
    assert meter.seconds == pytest.approx(r1.seconds + r2.seconds)


def test_conflicting_block_size_rejected(ft):
    with pytest.raises(ConfigurationError):
        FaultTolerantSpMV(ft.matrix, block_size=16, config=AbftConfig(block_size=32))


def test_default_config_used_when_unspecified(ft):
    assert FaultTolerantSpMV(ft.matrix).config.block_size == 32


@pytest.mark.parametrize("cls", [FaultTolerantSpMV, VarianceAdaptiveSpMV])
def test_zero_block_size_rejected(ft, cls):
    # 0 is a block size, not "unspecified": it must not fall back to 32.
    with pytest.raises(ConfigurationError, match="block_size must be >= 1"):
        cls(ft.matrix, block_size=0)


def test_setup_cost_exposed(ft):
    assert ft.setup_cost.work == pytest.approx(3.0 * ft.matrix.nnz)


def test_plain_multiply_tamper_hook(ft, b):
    result = ft.plain_multiply(b, tamper=one_shot("result", lambda d: d.__setitem__(0, 99.0)))
    assert result[0] == 99.0  # unprotected: the corruption persists
