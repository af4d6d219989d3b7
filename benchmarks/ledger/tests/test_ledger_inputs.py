"""Inputs are deterministic per seed, and matrices do not depend on it."""

import numpy as np

from repro.sparse.generators import random_spd

from benchmarks.ledger import inputs
from benchmarks.ledger.workloads import Faults, Pcg


def _same_plans(a, b):
    return all(
        np.array_equal(getattr(x, field), getattr(y, field))
        for x, y in zip(a.plans, b.plans)
        for field in ("row", "magnitude_u", "stage", "block_u", "position", "width")
    )


def test_same_seed_gives_identical_operands_and_fault_plans():
    first, second = Faults(seed=5), Faults(seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(first.operands, second.operands))
    assert _same_plans(first, second)
    pcg_a, pcg_b = Pcg(seed=5), Pcg(seed=5)
    assert all(np.array_equal(x, y) for x, y in zip(pcg_a.rhs, pcg_b.rhs))
    assert all(np.array_equal(x, y) for x, y in zip(pcg_a.seeds, pcg_b.seeds))


def test_other_seed_changes_operands_not_matrices():
    first, other = Faults(seed=5), Faults(seed=6)
    assert not any(np.array_equal(x, y) for x, y in zip(first.operands, other.operands))
    assert not _same_plans(first, other)
    assert all(x == y for x, y in zip(first.matrices, other.matrices))


def test_cached_matrix_round_trips_and_builds_once(tmp_path):
    calls = []

    def build():
        calls.append(1)
        return random_spd(200, 1200, seed=1)

    made = inputs.cached_matrix("random_spd", (200, 1200), build, tmp_path)
    loaded = inputs.cached_matrix("random_spd", (200, 1200), build, tmp_path)
    assert len(calls) == 1
    assert loaded == made
    assert loaded.dtype == made.dtype
    assert [p.suffix for p in tmp_path.iterdir()] == [".npz"]
