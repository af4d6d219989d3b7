"""Unified result-type invariants shared by every scheme."""

import dataclasses

import numpy as np
import pytest

from repro.schemes import ProtectedSpmvResult


def _result(**overrides):
    fields = dict(
        value=np.zeros(4),
        detections=(False,),
        corrections=(),
        rounds=0,
        seconds=0.0,
        flops=0.0,
        exhausted=False,
    )
    fields.update(overrides)
    return ProtectedSpmvResult(**fields)


def test_clean_reflects_first_check():
    assert _result(detections=(False,)).clean
    assert not _result(detections=(True,)).clean
    assert not _result(detections=(True, False), rounds=1).clean


def test_clean_on_empty_detections_regression():
    # An empty detections tuple once raised IndexError; the unified type
    # must treat "never checked" as clean.
    assert _result(detections=()).clean is True


def test_detected_aliases_detected_blocks():
    result = _result(
        detections=(True, False),
        corrections=((0, 16),),
        rounds=1,
        detected_blocks=((0,), ()),
        corrected_blocks=(0,),
    )
    assert result.detected == ((0,), ())
    assert result.corrected_blocks == (0,)


def test_result_is_frozen():
    result = _result()
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.rounds = 3
