"""Behaviour every built-in scheme shares, whatever its detection method.

The golden snapshots pin one clean and one finite-burst multiply per
scheme; these tests pin the rest of the driver contract of
:class:`repro.schemes.ProtectionScheme`: thresholds that follow the
operand's scale, non-finite results that never pass as clean, operand
validation, a bounded correction loop, cost charged to the caller's
meter, and the documented tamper stages.
"""

import numpy as np
import pytest

from repro.core.config import AbftConfig
from repro.errors import ShapeMismatchError
from repro.machine import ExecutionMeter, Machine
from repro.schemes import BUILTIN_SCHEMES, make_scheme
from repro.sparse import random_spd

N, BLOCK_SIZE = 256, 32

#: Detection-only schemes: a detection comes back ``exhausted`` and the
#: caller recovers by other means (a checkpointed solver rolls back).
DETECT_ONLY = ("checkpoint", "dense_check")

#: Schemes that vote over replicated multiplies: a fault that strikes
#: every replica alike leaves them in agreement, so it passes unseen.
REPLICATED = ("redundancy", "tmr")

#: Schemes that encode ``A`` into a block checksum matrix ``C`` at build.
ENCODED = ("abft", "vabft")

#: Stage names the tamper hook may see (``repro.schemes.base``).
STAGES = {"result", "t1", "beta", "t2", "corrected"}


@pytest.fixture(scope="module")
def matrix():
    return random_spd(N, 2600, seed=121)


@pytest.fixture()
def b():
    return np.random.default_rng(121).standard_normal(N)


def build(name, matrix, **config):
    return make_scheme(
        name,
        matrix,
        config=AbftConfig(block_size=BLOCK_SIZE, **config),
        machine=Machine(),
    )


def one_shot(mutate):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            mutate(data)
            state["armed"] = False

    return hook


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_no_false_positives_across_operand_scales(matrix, b, name):
    scheme = build(name, matrix)
    for scale in (1e-150, 1e-6, 1e6, 1e150):
        operand = b * scale
        result = scheme.multiply(operand)
        assert result.clean, f"false alarm at operand scale {scale:g}"
        assert result.rounds == 0
        np.testing.assert_array_equal(result.value, matrix.matvec(operand))


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_nan_in_result_never_passes_as_clean(matrix, b, name):
    result = build(name, matrix).multiply(
        b, tamper=one_shot(lambda d: d.__setitem__(70, np.nan))
    )
    assert not result.clean
    assert result.exhausted == (name in DETECT_ONLY)
    if not result.exhausted:
        np.testing.assert_array_equal(result.value, matrix.matvec(b))


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_wrong_operand_shape_rejected(matrix, name):
    scheme = build(name, matrix)
    with pytest.raises(ShapeMismatchError):
        scheme.multiply(np.ones(N - 1))
    with pytest.raises(ShapeMismatchError):
        scheme.multiply(np.ones((N, 2)))


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_persistent_fault_stays_within_round_budget(matrix, b, name):
    def hook(stage, data, work):
        if stage in ("result", "corrected") and data.size:
            data[0] = np.inf

    result = build(name, matrix, max_correction_rounds=2).multiply(b, tamper=hook)
    assert result.rounds <= 2
    assert result.clean == (name in REPLICATED)


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_cost_lands_on_the_callers_meter(matrix, b, name):
    scheme = build(name, matrix)
    meter = ExecutionMeter(machine=Machine())
    first = scheme.multiply(b, meter=meter)
    assert meter.snapshot() == (first.seconds, first.flops)
    second = scheme.multiply(b, meter=meter)
    # Same operand, same cost and bits: a multiply carries no state that
    # changes its price or its value.
    assert (second.seconds, second.flops) == (first.seconds, first.flops)
    np.testing.assert_array_equal(second.value, first.value)
    assert meter.snapshot() == pytest.approx((2 * first.seconds, 2 * first.flops))


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_protected_storage_never_changes_under_its_checksum(matrix, b, name):
    """t1 = t2 certifies a product only while ``A`` is what ``C`` encoded
    at build (Section III): no multiply, correction round or plan may
    write ``A``'s arrays, nor the checksum matrix's."""
    scheme = build(name, matrix)
    stored = {"A": scheme.matrix}
    if name in ENCODED:
        stored["C"] = scheme.detector.checksum.matrix
    built = {
        (label, field): getattr(csr, field).tobytes()
        for label, csr in stored.items()
        for field in ("data", "indices", "indptr")
    }

    def burst(row):
        return one_shot(lambda d: d.__setitem__(row, d[row] + 1e4))

    for _ in range(2):
        scheme.multiply(b)
    for row in (3, 70, 200):
        scheme.multiply(b, tamper=burst(row))
    if name in ENCODED:
        plan = scheme.planned(sparse_format="bsr")
        assert plan.format_choice.format == "bsr"
        plan.multiply(b)
        assert not plan.multiply(b, tamper=burst(70)).clean
    for (label, field), before in built.items():
        assert getattr(stored[label], field).tobytes() == before, f"{label}.{field}"


@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_tamper_sees_only_documented_stages(matrix, b, name):
    seen = []
    burst = one_shot(lambda d: d.__setitem__(70, d[70] + 1e4))

    def hook(stage, data, work):
        seen.append(stage)
        burst(stage, data, work)

    operand = b.copy()
    result = build(name, matrix).multiply(operand, tamper=hook)
    assert seen[0] == "result"
    assert set(seen) <= STAGES
    assert not result.clean
    # The hook corrupts the scheme's buffers, never the caller's operand.
    np.testing.assert_array_equal(operand, b)
    assert not np.shares_memory(result.value, operand)
