"""Telemetry overhead benchmark: off ~free, streaming jsonl bounded.

Times a protected SpMV on a 10k-row random SPD matrix in four telemetry
configurations — ``off`` (the default), ``memory``, ``jsonl`` (synchronous
batched appends) and ``ring`` (jsonl behind the ring buffer's background
writer thread) — against a hand-inlined uninstrumented multiply: the
clean-path stages ``FaultTolerantSpMV.multiply`` runs on its one-shard
serial CSR plan, in that plan's buffers, with every telemetry touchpoint
removed.

Writes the human table to ``results/bench_obs_overhead.txt`` and the
machine-readable record to ``results/BENCH_obs_overhead.json`` on the
common schema: ``timings_ms``, ``speedups`` (baseline time over each
configuration's, so higher is better), ``floors`` (the acceptance bounds
as minimum speedups), ``asserted``, ``skip_reasons`` and ``env``.
``REPRO_BENCH_SMOKE=1`` shrinks the workload for CI and skips the
timing-sensitive acceptance asserts.

Acceptance: ``off`` within 3% of the uninstrumented baseline; ``ring``
(jsonl streaming through the ring) within 2.0x.
"""

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import bench_env, write_json, write_result
from repro.core import FaultTolerantSpMV
from repro.core.protected import block_result
from repro.obs import (
    InMemoryExporter,
    JsonlExporter,
    RingBufferExporter,
    Telemetry,
)
from repro.perf import FusedShardBuffers
from repro.sparse import random_spd

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

N_ROWS = 2_000 if SMOKE else 10_000
NNZ = 24_000 if SMOKE else 120_000
BLOCK_SIZE = 32
REPEATS = 5 if SMOKE else 30
CONFIGS = ("off", "memory", "jsonl", "ring")

#: Acceptance bounds: disabled telemetry within 3% of the uninstrumented
#: baseline; jsonl streamed through the ring within 2.0x.
MAX_OFF_OVERHEAD = 1.03
MAX_RING_OVERHEAD = 2.0
#: The bounds as floors on ``baseline time / configuration time``.
FLOORS = {
    "off_vs_baseline": 1.0 / MAX_OFF_OVERHEAD,
    "ring_vs_baseline": 1.0 / MAX_RING_OVERHEAD,
}


@pytest.fixture(scope="module")
def matrix():
    return random_spd(N_ROWS, NNZ, seed=17)


@pytest.fixture(scope="module")
def operand(matrix):
    return np.random.default_rng(18).standard_normal(matrix.n_cols)


def _best_of_interleaved(runners, repeats=REPEATS):
    """Best-of timings with the configurations interleaved round-robin.

    Sequential per-config loops fold clock-frequency drift into whichever
    config happens to run during the slow phase; interleaving gives every
    config a sample in every phase, so best-of compares like with like.
    """
    best = {name: float("inf") for name in runners}
    for _ in range(repeats):
        for name, fn in runners.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def _baseline(operator):
    """A zero-telemetry clean multiply over one-shard plan buffers.

    Precomputes what ``FaultTolerantSpMV.multiply``'s plan precomputes —
    the buffers, the bound's beta coefficients, the detection graph's
    simulated cost — and returns the per-call stages of its clean path:
    SpMV and operand checksum into the buffers, operand norm, result
    checksums, thresholds and buffered comparison under one errstate,
    the flag count, and the result ``op.multiply`` hands back (a copy of
    the value, with the pre-simulated cost: a call without a meter
    charges none).  No spans, no guards, no wrapped kernels.
    """
    detector = operator.detector
    machine = operator.machine
    fused = FusedShardBuffers(
        detector.matrix,
        detector.checksum.matrix,
        detector.partition,
        detector.checksum.weights,
        np.array([0, detector.n_blocks], dtype=np.int64),
    )
    coefficients = detector.bound.beta_coefficients()
    graph = detector.detection_graph()
    seconds, flops = machine.makespan(graph), graph.total_work()

    def multiply(b):
        with np.errstate(invalid="ignore", over="ignore"):
            r = fused.spmv.execute(b)
            fused.checksum_spmv.execute(b)
            beta = detector.operand_norm(b)
            detector.checksum.result_checksums(
                r, out=fused.t2, workspace=fused.t2_workspace
            )
            np.multiply(coefficients, beta, out=fused.thresholds)
            fused.compare_range(0, detector.n_blocks)
        assert not np.count_nonzero(fused.exceeded)
        return block_result(
            detector.partition, r.copy(), ((),), (), 0, seconds, flops, False
        )

    return multiply


def test_telemetry_overhead_bounds(matrix, operand, tmp_path):
    telemetries = {
        "off": None,
        "memory": Telemetry(exporter=InMemoryExporter()),
        "jsonl": Telemetry(exporter=JsonlExporter(tmp_path / "events.jsonl")),
        "ring": Telemetry(
            exporter=RingBufferExporter(
                sink=JsonlExporter(tmp_path / "ring-events.jsonl")
            )
        ),
    }
    operators = {
        name: FaultTolerantSpMV(matrix, block_size=BLOCK_SIZE, telemetry=tel)
        for name, tel in telemetries.items()
    }
    assert not operators["off"].telemetry.enabled

    baseline = _baseline(operators["off"])
    got, expected = baseline(operand), operators["off"].multiply(operand)
    np.testing.assert_array_equal(got.value, expected.value)
    assert (got.detected, got.seconds, got.flops) == (
        expected.detected, expected.seconds, expected.flops
    )
    runners = {"baseline": lambda: baseline(operand)}
    for name in CONFIGS:
        runners[name] = lambda op=operators[name]: op.multiply(operand)
    for fn in runners.values():
        fn()  # warm every path before any timing
    operators["memory"].telemetry.exporter.clear()
    timings = _best_of_interleaved(runners)
    operators["memory"].telemetry.exporter.clear()  # don't hold the buffer

    multipliers = {name: timings[name] / timings["baseline"] for name in CONFIGS}
    speedups = {
        f"{name}_vs_baseline": timings["baseline"] / timings[name] for name in CONFIGS
    }
    asserted = {floor: not SMOKE for floor in FLOORS}
    skip_reasons = (
        {floor: "smoke=1 (problem below full scale)" for floor in FLOORS}
        if SMOKE
        else {}
    )
    for tel in telemetries.values():
        if tel is not None:
            tel.close()

    lines = [
        "Telemetry overhead: protected SpMV "
        f"(random SPD, n={N_ROWS}, nnz={NNZ}, block size {BLOCK_SIZE}, "
        f"best of {REPEATS})",
        "",
        f"{'configuration':<14} {'multiply [ms]':>14} {'vs baseline':>12}",
        f"{'baseline':<14} {1e3 * timings['baseline']:>14.3f} {'1.00x':>12}",
    ]
    for name in CONFIGS:
        lines.append(
            f"{name:<14} {1e3 * timings[name]:>14.3f} "
            f"{multipliers[name]:>11.2f}x"
        )
    lines += [
        "",
        "baseline = hand-inlined uninstrumented clean-path multiply",
        "  (one-shard serial CSR plan buffers, value copy included);",
        "ring = JsonlExporter behind RingBufferExporter's writer thread;",
        f"acceptance: off <= {MAX_OFF_OVERHEAD:.2f}x, "
        f"ring <= {MAX_RING_OVERHEAD:.2f}x.",
    ]
    write_result("bench_obs_overhead", "\n".join(lines))
    write_json(
        "obs_overhead",
        {
            "benchmark": "obs_overhead",
            "config": {
                "n_rows": N_ROWS,
                "nnz": NNZ,
                "block_size": BLOCK_SIZE,
                "repeats": REPEATS,
                "smoke": SMOKE,
            },
            "timings_ms": {
                name: 1e3 * value for name, value in timings.items()
            },
            "speedups": speedups,
            "floors": FLOORS,
            "asserted": asserted,
            "skip_reasons": skip_reasons,
            "env": bench_env(),
        },
    )

    if SMOKE:
        return  # smoke workloads are too small for stable multipliers
    assert speedups["off_vs_baseline"] >= FLOORS["off_vs_baseline"], (
        f"disabled telemetry costs {multipliers['off']:.3f}x the "
        f"uninstrumented baseline (bound {MAX_OFF_OVERHEAD}x)"
    )
    assert speedups["ring_vs_baseline"] >= FLOORS["ring_vs_baseline"], (
        f"streamed jsonl telemetry costs {multipliers['ring']:.3f}x the "
        f"uninstrumented baseline (bound {MAX_RING_OVERHEAD}x)"
    )
