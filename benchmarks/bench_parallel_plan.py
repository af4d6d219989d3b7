"""Planned protected SpMV on the serial and threads backends.

The steady-state scenario: one matrix, many clean protected multiplies
(the ft_pcg inner loop).  Contenders:

* ``planned-1``    — ``operator.planned()`` with one shard: zero
  steady-state allocations;
* ``threads-4``    — ``ProtectedPlan(n_shards=4, parallel="threads")``:
  the planned fused path over 4 nnz-balanced shards on the ``threads``
  backend (GIL-bound: NumPy releases it only inside individual kernel
  calls).

No speedup floor is asserted: the threads backend is measured, not
promised (``docs/performance.md`` has the interleaved backend table).
Both contenders must return the raw matvec's bits.

Results go to ``results/bench_parallel_plan.txt`` and machine-readable
``results/BENCH_parallel_plan.json`` (timings + env metadata including
``cpu_count``).  ``REPRO_BENCH_SMOKE=1`` shrinks the problem to a
CI-smoke size.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_env, write_json, write_result
from repro.core import AbftConfig, FaultTolerantSpMV
from repro.machine import ExecutionMeter
from repro.perf import ProtectedPlan
from repro.sparse import random_spd

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_ROWS = 5_000 if SMOKE else 100_000
NNZ = 60_000 if SMOKE else 1_200_000
BLOCK_SIZE = 64
N_WORKERS = 4
MULTIPLIES = 5 if SMOKE else 20
REPEATS = 3


@pytest.fixture(scope="module")
def matrix():
    return random_spd(N_ROWS, NNZ, seed=42)


@pytest.fixture(scope="module")
def operand(matrix):
    return np.random.default_rng(43).standard_normal(matrix.n_cols)


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _loop(multiply, operator, b):
    meter = ExecutionMeter(machine=operator.machine)

    def run():
        for _ in range(MULTIPLIES):
            multiply(b, meter=meter)

    return run


def test_planned_and_parallel_speedups(matrix, operand, benchmark):
    config = AbftConfig(block_size=BLOCK_SIZE, kernel="vectorized")
    planned_op = FaultTolerantSpMV(matrix, config=config)
    plan_1 = planned_op.planned(n_shards=1)

    threads_op = FaultTolerantSpMV(matrix, config=config)
    plan_threads = ProtectedPlan(threads_op, n_shards=N_WORKERS, parallel="threads")
    assert plan_threads.spmv.n_shards == N_WORKERS

    variants = {
        "planned-1": (planned_op, plan_1.multiply),
        f"threads-{N_WORKERS}": (threads_op, plan_threads.multiply),
    }

    # Every variant is bit-identical to the raw matvec on clean data.
    reference = matrix.matvec(operand)
    for label, (_, multiply) in variants.items():
        value = multiply(operand).value
        np.testing.assert_array_equal(value, reference, err_msg=label)

    timings = {
        label: _best_of(_loop(multiply, operator, operand))
        for label, (operator, multiply) in variants.items()
    }
    speedups = {
        "threads_vs_planned": timings["planned-1"]
        / timings[f"threads-{N_WORKERS}"],
    }
    cpu_count = os.cpu_count() or 1

    lines = [
        "Planned / sharded protected SpMV "
        f"(random SPD, n={N_ROWS}, nnz={NNZ}, block size {BLOCK_SIZE}, "
        f"{MULTIPLIES} multiplies per run, cpu_count={cpu_count})",
        "",
        f"{'variant':<12} {'loop [ms]':>12} {'per call [ms]':>14}",
    ]
    for label, seconds in timings.items():
        lines.append(
            f"{label:<12} {1e3 * seconds:>12.3f} "
            f"{1e3 * seconds / MULTIPLIES:>14.3f}"
        )
    lines += [
        "",
        f"threads-{N_WORKERS} vs planned-1: "
        f"{speedups['threads_vs_planned']:.2f}x",
    ]
    write_result("bench_parallel_plan", "\n".join(lines))
    write_json(
        "parallel_plan",
        {
            "benchmark": "parallel_plan",
            "config": {
                "n_rows": N_ROWS,
                "nnz": NNZ,
                "block_size": BLOCK_SIZE,
                "n_workers": N_WORKERS,
                "multiplies_per_run": MULTIPLIES,
                "repeats": REPEATS,
                "smoke": SMOKE,
            },
            "timings_ms": {k: 1e3 * v for k, v in timings.items()},
            "speedups": speedups,
            "floors": {},
            "asserted": {},
            "skip_reasons": {},
            "env": bench_env(),
        },
    )

    benchmark.pedantic(
        lambda: plan_1.multiply(operand), rounds=3, iterations=1
    )
