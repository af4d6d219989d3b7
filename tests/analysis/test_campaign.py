"""Unit tests for injection campaigns."""

import pytest

from repro.analysis import run_correction_campaign, run_coverage_campaign
from repro.errors import ConfigurationError
from repro.sparse import random_spd


@pytest.fixture(scope="module")
def matrix():
    return random_spd(400, 4000, seed=81)


def test_coverage_block_detector_dominates_dense(matrix):
    block = run_coverage_campaign(matrix, "abft", trials=120, sigma=1e-12, seed=1)
    dense = run_coverage_campaign(matrix, "dense_check", trials=120, sigma=1e-12, seed=1)
    assert block.f1 > dense.f1  # the Figure 7 relationship
    assert block.f1 > 0.7
    assert dense.f1 < 0.6


def test_coverage_improves_with_sigma(matrix):
    """Bigger minimal significance -> easier errors -> higher F1 (Figure 7)."""
    f1s = [
        run_coverage_campaign(matrix, "abft", trials=120, sigma=sigma, seed=2).f1
        for sigma in (1e-12, 1e-8)
    ]
    assert f1s[1] >= f1s[0]


def test_coverage_counts_are_consistent(matrix):
    result = run_coverage_campaign(matrix, "abft", trials=100, sigma=1e-10, seed=3)
    counts = result.counts
    # Every trial contributes exactly one injected-error verdict.
    assert counts.true_positives + counts.false_negatives == 100
    # Clean evaluations: one per trial.
    assert counts.true_negatives <= 100


def test_coverage_deterministic(matrix):
    a = run_coverage_campaign(matrix, "abft", trials=60, sigma=1e-10, seed=4)
    b = run_coverage_campaign(matrix, "abft", trials=60, sigma=1e-10, seed=4)
    assert a.counts == b.counts


def test_coverage_validation(matrix):
    with pytest.raises(ConfigurationError):
        run_coverage_campaign(matrix, "abft", trials=0)
    with pytest.raises(ConfigurationError):
        run_coverage_campaign(matrix, "bogus", trials=10)


def test_correction_campaign_ordering(matrix):
    ours = run_correction_campaign(matrix, "abft", trials=10, seed=5)
    partial = run_correction_campaign(matrix, "bisection", trials=10, seed=5)
    complete = run_correction_campaign(matrix, "complete", trials=10, seed=5)
    assert ours.overhead < partial.overhead
    assert ours.overhead < complete.overhead
    assert ours.overhead > 0


def test_correction_campaign_validation(matrix):
    with pytest.raises(ConfigurationError):
        run_correction_campaign(matrix, "abft", trials=0)
    with pytest.raises(ConfigurationError):
        run_correction_campaign(matrix, "bogus", trials=5)


def test_correction_campaign_deterministic(matrix):
    a = run_correction_campaign(matrix, "abft", trials=5, seed=6)
    b = run_correction_campaign(matrix, "abft", trials=5, seed=6)
    assert a.mean_protected_seconds == b.mean_protected_seconds
