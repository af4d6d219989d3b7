"""Unit tests for detection (with localization) and partial correction."""

import numpy as np
import pytest

from repro.core import (
    AbftConfig,
    BlockAbftDetector,
    correct_blocks,
)
from repro.errors import ShapeMismatchError
from repro.sparse import random_spd


@pytest.fixture
def setup():
    a = random_spd(300, 3000, seed=11)
    detector = BlockAbftDetector(a, AbftConfig(block_size=32))
    rng = np.random.default_rng(11)
    b = rng.standard_normal(300)
    return a, detector, b


def test_clean_multiply_detects_nothing(setup):
    a, detector, b = setup
    report = detector.detect(b, a.matvec(b))
    assert report.clean
    assert report.flagged.size == 0


def test_single_error_localized_to_its_block(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[130] *= 1.001
    report = detector.detect(b, r)
    np.testing.assert_array_equal(report.flagged, [130 // 32])


def test_multiple_errors_flag_multiple_blocks(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[3] += 1.0
    r[299] -= 2.0
    report = detector.detect(b, r)
    np.testing.assert_array_equal(report.flagged, [0, 299 // 32])


def test_two_errors_in_same_block_flag_once(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[64] += 1.0
    r[65] += 1.0
    report = detector.detect(b, r)
    np.testing.assert_array_equal(report.flagged, [2])


def test_cancelling_errors_in_one_block_are_missed(setup):
    """Exactly offsetting corruptions inside one block defeat the checksum —
    the known ABFT aliasing limitation; documents expected behaviour."""
    a, detector, b = setup
    r = a.matvec(b)
    r[64] += 1.0
    r[65] -= 1.0
    report = detector.detect(b, r)
    assert report.clean


def test_nonfinite_result_flags(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[10] = np.inf
    report = detector.detect(b, r)
    assert 0 in report.flagged
    r[10] = np.nan
    report = detector.detect(b, r)
    assert 0 in report.flagged


def test_detect_rejects_wrong_result_shape(setup):
    _, detector, b = setup
    with pytest.raises(ShapeMismatchError):
        detector.result_checksums(np.ones(5))


def test_compare_subset(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[130] += 5.0
    t1 = detector.operand_checksums(b)
    blocks = np.array([2, 4, 6])
    t2 = detector.checksum.result_checksums_for_blocks(r, blocks)
    report = detector.compare(t1[blocks], t2, detector.operand_norm(b), blocks=blocks)
    np.testing.assert_array_equal(report.flagged, [4])


def test_detection_graph_structure(setup):
    _, detector, _ = setup
    graph = detector.detection_graph()
    assert set(t.name for t in graph.tasks()) == {"spmv", "t1", "beta", "check"}
    assert graph["check"].deps == ("spmv", "t1", "beta")
    no_spmv = detector.detection_graph(include_spmv=False)
    assert "spmv" not in no_spmv


def test_detection_graph_t1_cheaper_than_spmv(setup):
    graph = setup[1].detection_graph()
    assert graph["t1"].work < graph["spmv"].work


def test_correct_blocks_restores_exact_result(setup):
    a, detector, b = setup
    r = a.matvec(b)
    reference = r.copy()
    r[130] += 7.0
    r[131] = np.nan
    flagged = detector.detect(b, r).flagged
    outcome = correct_blocks(a, detector.partition, b, r, flagged)
    np.testing.assert_array_equal(r, reference)
    assert outcome.rows_recomputed == 32
    assert outcome.nnz_recomputed == int(a.indptr[160] - a.indptr[128])


def test_correct_blocks_touches_only_flagged_rows(setup):
    a, detector, b = setup
    r = a.matvec(b)
    r[0] += 1.0  # corrupt block 0 but "forget" to flag it
    correct_blocks(a, detector.partition, b, r, np.array([5]))
    assert r[0] != a.matvec(b)[0]  # untouched: correction is truly partial


def test_correct_blocks_tamper_hook_sees_segments(setup):
    a, detector, b = setup
    r = a.matvec(b)
    calls = []

    def tamper(stage, data, work):
        calls.append((stage, data.shape, work))

    correct_blocks(a, detector.partition, b, r, np.array([0, 9]), tamper=tamper)
    assert [c[0] for c in calls] == ["corrected", "corrected"]
    assert calls[0][1] == (32,)
    assert calls[1][1] == (300 - 9 * 32,)


def test_correction_outcome_cost(setup):
    a, detector, b = setup
    r = a.matvec(b)
    outcome = correct_blocks(a, detector.partition, b, r, np.array([1]))
    assert outcome.cost.work == pytest.approx(2.0 * outcome.nnz_recomputed)


def _bits(value):
    return np.float64(value).view(np.uint64)


def _norm_operands():
    rng = np.random.default_rng(12)
    base = rng.standard_normal(300)
    tiny = np.finfo(np.float64).smallest_subnormal
    yield "random", base
    yield "strided-view", rng.standard_normal(600)[::2]
    yield "reversed-view", base[::-1]
    yield "subnormals", np.arange(1, 301) * tiny
    yield "mixed-subnormals", np.concatenate([base[:150], np.arange(150) * tiny])
    yield "overflowing", np.full(300, 1e200)
    yield "plus-inf", np.concatenate([base[:10], [np.inf], base[11:]])
    yield "minus-inf", np.concatenate([base[:10], [-np.inf], base[11:]])
    yield "nan", np.concatenate([base[:10], [np.nan], base[11:]])
    yield "inf-and-nan", np.array([np.inf, np.nan, -np.inf, 1.0])
    yield "negative-zeros", np.full(5, -0.0)
    yield "empty", np.empty(0)


@pytest.mark.parametrize(
    "operand", [value for _, value in _norm_operands()],
    ids=[name for name, _ in _norm_operands()],
)
def test_operand_norm_is_linalg_norm_bit_for_bit(setup, operand):
    _, detector, _ = setup
    with np.errstate(over="ignore", invalid="ignore"):
        expected = float(np.linalg.norm(operand))
    assert _bits(detector.operand_norm(operand)) == _bits(expected)


def test_operand_norm_widens_float32_operands(setup):
    """beta accumulates in float64: a float32 operand whose norm exceeds
    float32's range still gets the finite float64 norm."""
    _, detector, _ = setup
    operand = np.full(300, 3e19, dtype=np.float32)
    with np.errstate(over="ignore"):
        assert np.isinf(np.linalg.norm(operand))
    expected = float(np.linalg.norm(operand.astype(np.float64)))
    assert _bits(detector.operand_norm(operand)) == _bits(expected)
