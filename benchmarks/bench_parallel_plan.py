"""Planned protected SpMV across the backend registry.

The steady-state scenario: one matrix, many clean protected multiplies
(the ft_pcg inner loop).  Contenders:

* ``planned-1``    — ``operator.planned()`` with one shard: zero
  steady-state allocations;
* ``threads-4``    — ``ProtectedPlan(n_shards=4, parallel="threads")``:
  the planned fused path over 4 nnz-balanced shards on the ``threads``
  backend (GIL-bound: NumPy releases it only inside individual kernel
  calls);
* ``processes-W``  — the shared-memory multicore backend for W in
  ``WORKER_COUNTS`` (1, 2, 4, 8): W shards served by W persistent
  workers mapping one SharedMemory arena.

Acceptance floor (checked where the hardware can express it, and
*failed* — not warned — when it can and the floor is unmet): with >= 4
usable cores ``processes-4`` must reach 1.5x over the planned
single-thread loop.

When the floor cannot be asserted (smoke run, too few cores) the JSON
records a machine-readable reason under ``skip_reasons`` so CI can
distinguish "passed" from "could not be measured here".

Results go to ``results/bench_parallel_plan.txt`` and machine-readable
``results/BENCH_parallel_plan.json`` (timings + ``worker_scaling`` +
env metadata including ``cpu_count``).  ``REPRO_BENCH_SMOKE=1`` shrinks
the problem to a CI-smoke size where only correctness, not the speedup
floor, is asserted.
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
WORKER_COUNTS = (1, 2, 4, 8)
MULTIPLIES = 5 if SMOKE else 20
REPEATS = 3
MIN_PARALLEL_SPEEDUP = 1.5  # processes-4 over planned-1, needs >= 4 cores


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

    process_ops = {
        w: FaultTolerantSpMV(matrix, config=config) for w in WORKER_COUNTS
    }
    process_plans = {
        w: ProtectedPlan(
            process_ops[w],
            n_shards=w,
            parallel="processes",
            backend_options={"serial_cutoff": 0},
        )
        for w in WORKER_COUNTS
    }

    try:
        variants = {
            "planned-1": (planned_op, plan_1.multiply),
            f"threads-{N_WORKERS}": (threads_op, plan_threads.multiply),
        }
        for w in WORKER_COUNTS:
            variants[f"processes-{w}"] = (process_ops[w], process_plans[w].multiply)

        # Every variant is bit-identical to the raw matvec on clean data.
        reference = matrix.matvec(operand)
        for label, (_, multiply) in variants.items():
            value = multiply(operand).value
            np.testing.assert_array_equal(value, reference, err_msg=label)

        timings = {
            label: _best_of(_loop(multiply, operator, operand))
            for label, (operator, multiply) in variants.items()
        }
    finally:
        for plan in process_plans.values():
            plan.close()

    speedups = {
        "threads_vs_planned": timings["planned-1"]
        / timings[f"threads-{N_WORKERS}"],
        "processes_vs_planned": timings["planned-1"]
        / timings[f"processes-{N_WORKERS}"],
    }
    worker_scaling = {
        str(w): {
            "loop_ms": 1e3 * timings[f"processes-{w}"],
            "speedup_vs_planned": timings["planned-1"] / timings[f"processes-{w}"],
        }
        for w in WORKER_COUNTS
    }
    cpu_count = os.cpu_count() or 1
    enough_cores = cpu_count >= N_WORKERS

    # Machine-readable reasons for every floor NOT asserted on this run.
    skip_reasons = {}
    if SMOKE:
        skip_reasons["processes_vs_planned"] = "smoke=1 (problem below full scale)"
    elif not enough_cores:
        skip_reasons["processes_vs_planned"] = f"cpu_count={cpu_count} < {N_WORKERS}"

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
        f"processes-{N_WORKERS} vs planned-1: "
        f"{speedups['processes_vs_planned']:.2f}x"
        + (
            ""
            if "processes_vs_planned" not in skip_reasons
            else f"  [not asserted: {skip_reasons['processes_vs_planned']}]"
        ),
        "worker scaling (processes): "
        + ", ".join(
            f"{w}w={worker_scaling[str(w)]['speedup_vs_planned']:.2f}x"
            for w in WORKER_COUNTS
        ),
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
                "worker_counts": list(WORKER_COUNTS),
                "multiplies_per_run": MULTIPLIES,
                "repeats": REPEATS,
                "smoke": SMOKE,
            },
            "timings_ms": {k: 1e3 * v for k, v in timings.items()},
            "speedups": speedups,
            "worker_scaling": worker_scaling,
            "floors": {"processes_vs_planned": MIN_PARALLEL_SPEEDUP},
            "asserted": {"processes_vs_planned": enough_cores and not SMOKE},
            "skip_reasons": skip_reasons,
            "env": bench_env(),
        },
    )

    # Smoke runs only prove the harness executes end to end; the floor
    # is a claim about steady-state sizes on real hardware.  Where the
    # hardware CAN express it, missing it is a hard failure.
    if "processes_vs_planned" not in skip_reasons:
        assert speedups["processes_vs_planned"] >= MIN_PARALLEL_SPEEDUP, (
            f"processes-{N_WORKERS} missed the {MIN_PARALLEL_SPEEDUP}x floor "
            f"over planned-1 on a {cpu_count}-core runner: "
            f"{speedups['processes_vs_planned']:.2f}x"
        )

    benchmark.pedantic(
        lambda: plan_1.multiply(operand), rounds=3, iterations=1
    )
