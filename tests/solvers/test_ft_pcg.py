"""Unit tests for the fault-tolerant PCG drivers (the case-study engine)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.solvers import FtPcgOptions, JacobiPreconditioner, run_pcg
from repro.sparse import FORMAT_ENV_VAR, random_spd


@pytest.fixture(scope="module")
def system():
    a = random_spd(300, 3600, seed=71)
    x_true = np.random.default_rng(71).standard_normal(300)
    return a, a.matvec(x_true)


ALL_SCHEMES = ("unprotected", "abft", "bisection", "checkpoint")


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_fault_free_runs_converge_correctly(system, scheme):
    a, b = system
    result = run_pcg(a, b, scheme=scheme, error_rate=0.0, seed=1)
    assert result.converged and result.correct
    assert result.injections == 0
    assert result.residual_norm < 1e-5


def test_unknown_scheme_rejected(system):
    a, b = system
    with pytest.raises(ConfigurationError):
        run_pcg(a, b, scheme="bogus")


def test_options_validation():
    with pytest.raises(ConfigurationError):
        FtPcgOptions(tol=0.0)
    with pytest.raises(ConfigurationError):
        FtPcgOptions(max_iteration_factor=0)
    with pytest.raises(ConfigurationError):
        FtPcgOptions(checkpoint_interval=0)


def test_protected_schemes_cost_more_than_unprotected(system):
    a, b = system
    base = run_pcg(a, b, scheme="unprotected", seed=2).seconds
    for scheme in ("abft", "bisection", "checkpoint"):
        assert run_pcg(a, b, scheme=scheme, seed=2).seconds > base


def test_low_rate_overhead_ordering_matches_figure8(system):
    """Ours < partial < checkpoint on fault-free runtime (Figure 8 left)."""
    a, b = system
    ours = run_pcg(a, b, scheme="abft", seed=3).seconds
    partial = run_pcg(a, b, scheme="bisection", seed=3).seconds
    checkpoint = run_pcg(a, b, scheme="checkpoint", seed=3).seconds
    assert ours < partial
    assert ours < checkpoint


def test_ours_survives_moderate_error_rate(system):
    a, b = system
    correct = 0
    for seed in range(8):
        result = run_pcg(a, b, scheme="abft", error_rate=3e-7, seed=seed)
        correct += result.correct
        if result.injections:
            assert result.detections >= 0
    assert correct >= 7  # the proposed scheme rides through these rates


def test_unprotected_fails_more_often_than_ours(system):
    a, b = system
    seeds = range(10)
    rate = 1e-6
    ours = sum(run_pcg(a, b, "abft", rate, s).correct for s in seeds)
    bare = sum(run_pcg(a, b, "unprotected", rate, s).correct for s in seeds)
    assert ours >= bare
    assert ours >= 8


def test_checkpoint_scheme_saves_and_rolls_back(system):
    a, b = system
    # High enough rate that detection fires at least once across seeds.
    rolled = saved = 0
    for seed in range(6):
        result = run_pcg(a, b, scheme="checkpoint", error_rate=3e-6, seed=seed)
        rolled += result.rollbacks
        saved += result.checkpoint_saves
    assert saved >= 6  # at least the initial snapshot each run
    assert rolled >= 1


def test_iteration_cap_counts_executed_iterations(system):
    a, b = system
    options = FtPcgOptions(max_iteration_factor=1)
    result = run_pcg(a, b, scheme="abft", error_rate=0.0, seed=4, options=options)
    assert result.iterations <= a.n_rows


def test_deterministic_for_seed(system):
    a, b = system
    r1 = run_pcg(a, b, scheme="abft", error_rate=1e-6, seed=9)
    r2 = run_pcg(a, b, scheme="abft", error_rate=1e-6, seed=9)
    assert r1.iterations == r2.iterations
    assert r1.seconds == r2.seconds
    assert r1.injections == r2.injections
    np.testing.assert_array_equal(r1.x, r2.x)


def test_detection_counts_tracked(system):
    a, b = system
    result = run_pcg(a, b, scheme="abft", error_rate=1e-5, seed=10)
    assert result.injections > 0
    assert result.detections > 0
    assert result.corrections == result.detections


def test_every_solve_preconditions_with_jacobi(system, monkeypatch):
    """run_pcg builds JacobiPreconditioner itself: one application after
    the first residual and one per iteration that does not converge."""
    a, b = system
    applied = []
    original = JacobiPreconditioner.apply

    def counted(self, r):
        applied.append(r.shape)
        return original(self, r)

    monkeypatch.setattr(JacobiPreconditioner, "apply", counted)
    result = run_pcg(a, b, scheme="abft", seed=11)
    assert result.converged
    assert applied == [(a.n_rows,)] * result.iterations
    assert "preconditioner" not in {field.name for field in fields(FtPcgOptions)}


#: ``(scheme, error rate, seed, seconds, flops)`` of one small solve per
#: solver case, recorded as hex floats: scheduling the per-iteration task
#: graphs once per solve must charge bit-identical simulated cost.  The
#: hybrid and checkpoint solves each roll back once.
RECORDED_COSTS = (
    ("abft", 3e-5, 3, "0x1.58969a0ad8a10p-10", "0x1.3aa4000000000p+16"),
    ("hybrid", 1e-4, 1, "0x1.05f28848387dep-9", "0x1.edc9000000000p+16"),
    ("checkpoint", 3e-5, 1, "0x1.85be1a8262457p-9", "0x1.f210000000000p+16"),
    ("unprotected", 1e-5, 3, "0x1.e5c0b9991361fp-11", "0x1.e892000000000p+15"),
)


@pytest.mark.parametrize("scheme, rate, seed, seconds, flops", RECORDED_COSTS)
def test_simulated_cost_matches_recorded_bits(
    monkeypatch, scheme, rate, seed, seconds, flops
):
    # REPRO_FORMAT beats a configured format; a non-CSR plan re-associates
    # the SpMV, which moves which injections get detected.
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    a = random_spd(120, 1000, seed=71)
    b = a.matvec(np.random.default_rng(71).standard_normal(120))
    options = FtPcgOptions(max_correction_rounds=2)
    result = run_pcg(a, b, scheme=scheme, error_rate=rate, seed=seed, options=options)
    assert result.injections > 0
    assert result.seconds == float.fromhex(seconds)
    assert result.flops == float.fromhex(flops)
