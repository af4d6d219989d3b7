"""Unit tests for the extension PCG scheme (hybrid)."""

import numpy as np
import pytest

from repro.solvers import SCHEMES, FtPcgOptions, run_pcg
from repro.sparse import random_spd


@pytest.fixture(scope="module")
def system():
    a = random_spd(300, 3600, seed=141)
    x_true = np.random.default_rng(141).standard_normal(300)
    return a, a.matvec(x_true)


def test_extension_schemes_registered():
    assert "dual" not in SCHEMES
    assert "hybrid" in SCHEMES


@pytest.mark.parametrize("scheme", ["hybrid"])
def test_fault_free_runs_converge(system, scheme):
    a, b = system
    result = run_pcg(a, b, scheme=scheme, error_rate=0.0, seed=1)
    assert result.correct
    assert result.injections == 0
    assert result.rollbacks == 0


@pytest.mark.parametrize("scheme", ["hybrid"])
def test_extension_schemes_survive_moderate_rates(system, scheme):
    a, b = system
    correct = sum(
        run_pcg(a, b, scheme=scheme, error_rate=1e-6, seed=s).correct
        for s in range(6)
    )
    assert correct >= 5


def test_hybrid_saves_checkpoints(system):
    a, b = system
    result = run_pcg(a, b, scheme="hybrid", error_rate=0.0, seed=2)
    assert result.checkpoint_saves >= 1  # at least the initial snapshot


def test_hybrid_rolls_back_only_on_uncorrectable(system):
    """At moderate rates every error is corrected in place: zero rollbacks
    while detections accumulate — unlike the checkpoint baseline."""
    a, b = system
    hybrid_detections = hybrid_rollbacks = checkpoint_rollbacks = 0
    for seed in range(6):
        hybrid = run_pcg(a, b, scheme="hybrid", error_rate=2e-5, seed=seed)
        checkpoint = run_pcg(a, b, scheme="checkpoint", error_rate=2e-5, seed=seed)
        hybrid_detections += hybrid.detections
        hybrid_rollbacks += hybrid.rollbacks
        checkpoint_rollbacks += checkpoint.rollbacks
    assert hybrid_detections > 0
    assert hybrid_rollbacks == 0
    assert checkpoint_rollbacks >= 1


def test_hybrid_rolls_back_under_extreme_rates(system):
    """Push hard enough and some multiplies become uncorrectable; the
    hybrid then uses its rollback safety net instead of failing."""
    a, b = system
    options = FtPcgOptions(max_correction_rounds=1, max_iteration_factor=2)
    rolled = 0
    for seed in range(8):
        result = run_pcg(
            a, b, scheme="hybrid", error_rate=2e-4, seed=seed, options=options
        )
        rolled += result.rollbacks
    assert rolled >= 1


def test_deterministic_extension_runs(system):
    a, b = system
    first = run_pcg(a, b, scheme="hybrid", error_rate=1e-5, seed=5)
    second = run_pcg(a, b, scheme="hybrid", error_rate=1e-5, seed=5)
    assert first.seconds == second.seconds
    np.testing.assert_array_equal(first.x, second.x)
