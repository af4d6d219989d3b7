"""One measured run of one workload.

Untraced: time repeated setups of every matrix (``setup_s``), measure what
the built operators hold (``mem_mb``, tracemalloc, untimed), then run
rounds until ``seconds`` have passed.  Each round takes every matrix once
and times the frozen baseline and the protected op back to back, swapping
their order between matrices and rounds.  Every protected result is
checked, outside the timed region.

Traced: setup runs once per matrix with the tracer installed; rounds then
alternate traced and untraced, so the tracing overhead is measured in the
same run and the per-layer metrics come from the traced rounds.
"""

from __future__ import annotations

import gc
import statistics
import sys
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

from benchmarks.ledger.metrics import END_TO_END, PER_LAYER
from benchmarks.ledger.spans import Tracer, identity_residuals, span_metrics

#: Least setups timed per matrix for ``setup_s``, and least seconds they span.
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
#: Rounds on each side of an op whose baselines form its denominator.
BASELINE_WINDOW = 2


@dataclass
class Op:
    matrix: int
    phase: str  # "warmup", "untraced" or "traced"
    ns: int = 0
    baseline_ns: int = 0
    error: bool = False
    failed: bool = False
    wrong: bool = False
    simulated: float = float("nan")


@dataclass
class Run:
    """Outcome of one run: metrics plus the op accounting behind them."""

    workload: str
    metrics: Dict[str, float]
    ops: List[Op]
    rounds: int
    loop_seconds: float
    matrices: List[Dict[str, object]]
    #: Recorded, not declared: absolute time moves with the host's load
    #: far more than any allowed bound (README.md, "Run-to-run spread").
    op_ms_p50: float = 0.0
    tracer: Optional[Tracer] = None
    identity_broken: int = 0
    counts: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self.counts = {
            "attempted": len(self.ops),
            "failed": sum(op.failed for op in self.ops),
            "wrong": sum(op.wrong for op in self.ops),
            "errors": sum(op.error for op in self.ops),
        }

    @property
    def correct(self) -> bool:
        """No result was silently wrong, nothing raised, phases added up."""
        return not (self.counts["wrong"] or self.counts["errors"] or self.identity_broken)

    def result_line(self) -> Dict[str, object]:
        declared = PER_LAYER if self.tracer is not None else END_TO_END
        return {
            "correct": self.correct,
            "attempted": self.counts["attempted"],
            "failed": self.counts["failed"],
            "metrics": {
                m.name: {"value": self.metrics[m.name], "unit": m.unit} for m in declared
            },
        }


def time_setup(workload, repeats: int, min_seconds: float) -> float:
    """Sum over matrices of the median of their timed setups.

    Setups run in rounds, every matrix once per round, until at least
    ``repeats`` rounds and ``min_seconds`` have passed.  Spreading the
    samples over seconds keeps one slow moment of a shared host from
    setting the median of a workload whose whole setup takes 0.1 s.
    """
    times: List[List[float]] = [[] for _ in range(workload.size)]
    start = perf_counter()
    while len(times[0]) < repeats or perf_counter() - start < min_seconds:
        for i in range(workload.size):
            workload.targets[i] = None
            began = perf_counter()
            workload.targets[i] = workload.build(i)
            times[i].append(perf_counter() - began)
    return sum(statistics.median(samples) for samples in times)


def held_megabytes(workload) -> float:
    """Bytes a fresh setup of every matrix still holds, in MB (untimed)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = [workload.build(i) for i in range(workload.size)]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del built
    return held / 1e6


def _timed_baseline(workload, i: int, k: int) -> int:
    start = perf_counter_ns()
    workload.baseline(i, k)
    return perf_counter_ns() - start


def _play(workload, op: Op, k: int, baseline_first: bool, tracer: Optional[Tracer]):
    """Baseline and protected op back to back, then the check (untimed)."""
    i = op.matrix
    if baseline_first:
        op.baseline_ns = _timed_baseline(workload, i, k)
    result = None
    start = perf_counter_ns()
    try:
        result, excluded = workload.protected(i, k, tracer)
        op.ns = perf_counter_ns() - start - excluded
    except Exception:  # a failed op is counted and reported, never fatal
        op.error = op.failed = True
        traceback.print_exc(file=sys.stderr)
    if not baseline_first:
        op.baseline_ns = _timed_baseline(workload, i, k)
    if result is not None:
        outcome = workload.check(i, k, result)
        op.failed, op.wrong = outcome.failed, outcome.wrong
    return result


def measure(
    workload, seconds: float, tracer: Optional[Tracer] = None
) -> Tuple[List[Op], int, float]:
    """A checked warm-up round, then rounds until ``seconds`` elapse.

    Returns the ops, the number of timed rounds and the loop's wall time.
    """
    ops: List[Op] = []
    counts = [0] * workload.size

    def play_round(index: int, phase: str) -> None:
        traced = phase == "traced"
        with tracer.installed() if traced else nullcontext():
            for i in range(workload.size):
                op = Op(matrix=i, phase=phase)
                if traced:
                    tracer.op = len(ops)
                result = _play(
                    workload, op, counts[i], (index // 2 + i) % 2 == 0,
                    tracer if traced else None,
                )
                if traced:
                    tracer.op = -1
                elif tracer is not None and result is not None and not op.failed:
                    op.simulated = workload.simulated_overhead(i, result)
                counts[i] += 1
                ops.append(op)

    play_round(-1, "warmup")
    gc.collect()
    minimum = 1 if tracer is None else 2
    rounds = 0
    start = perf_counter()
    while rounds < minimum or perf_counter() - start < seconds:
        traced = tracer is not None and rounds % 2 == 0
        play_round(rounds, "traced" if traced else "untraced")
        rounds += 1
    return ops, rounds, perf_counter() - start


def local_baselines(ops: List[Op], n_matrices: int) -> List[float]:
    """Per op: median baseline time of the same matrix over the
    ``2 * BASELINE_WINDOW + 1`` nearest rounds.

    A shared host's speed changes in phases of seconds that slow the
    baseline and the protected op alike; a window of neighbouring rounds
    cancels them, where a run-wide median would not.
    """
    local = [0.0] * len(ops)
    for i in range(n_matrices):
        positions = [j for j, op in enumerate(ops) if op.matrix == i]
        times = [ops[j].baseline_ns for j in positions]
        for n, j in enumerate(positions):
            window = times[max(0, n - BASELINE_WINDOW): n + BASELINE_WINDOW + 1]
            local[j] = statistics.median(window)
    return local


def matrix_median(pairs: List[Tuple[Op, float]], n_matrices: int) -> float:
    """Median over matrices of each matrix's median value.

    Ops come in equal shares per matrix.  With few matrices whose values
    differ, a median over all ops falls in the gap between two matrices
    and reads the extreme ops of both; a median of medians does not.
    """
    per_matrix = [[value for op, value in pairs if op.matrix == i] for i in range(n_matrices)]
    return float(statistics.median(statistics.median(v) for v in per_matrix if v))


def overheads(ops: List[Op], n_matrices: int) -> Dict[str, float]:
    """Protected op time ÷ local baseline: per-matrix median and p95."""
    base = local_baselines(ops, n_matrices)
    rated = [(op, op.ns / b) for op, b in zip(ops, base) if not op.failed]
    return {
        "overhead_p50": matrix_median(rated, n_matrices),
        "overhead_p95": float(np.percentile([ratio for _, ratio in rated], 95)),
    }


def op_ms(ops: List[Op], n_matrices: int) -> float:
    """Median wall time of one protected op (median of per-matrix medians)."""
    return matrix_median([(op, op.ns / 1e6) for op in ops if not op.failed], n_matrices)


def run(
    workload,
    seconds: float,
    trace: bool,
    repeats: int = SETUP_REPEATS,
    setup_seconds: float = SETUP_SECONDS,
) -> Run:
    """Set up, measure and compute the run's declared metrics."""
    n = workload.size
    if not trace:
        setup_s = time_setup(workload, repeats, setup_seconds)
        mem_mb = held_megabytes(workload)
        ops, rounds, loop_seconds = measure(workload, seconds)
        timed = [op for op in ops if op.phase == "untraced"]
        metrics = overheads(timed, n)
        metrics.update(setup_s=setup_s, mem_mb=mem_mb)
        return Run(
            workload.name, metrics, ops, rounds, loop_seconds,
            [workload.resolved(i) for i in range(n)], op_ms_p50=op_ms(timed, n),
        )

    tracer = Tracer()
    with tracer.installed():
        for i in range(n):
            workload.targets[i] = workload.build(i)
    ops, rounds, loop_seconds = measure(workload, seconds, tracer)
    untraced = [op for op in ops if op.phase == "untraced"]
    traced = [op for op in ops if op.phase == "traced"]
    resolved = [workload.resolved(i) for i in range(n)]

    metrics = span_metrics(tracer)
    metrics["core.checksum_nnz_ratio"] = statistics.median(
        r["checksum_nnz_ratio"] for r in resolved
    )
    metrics["formats.bsr_share"] = sum(r["format"] == "bsr" for r in resolved) / len(resolved)
    simulated = matrix_median([(op, op.simulated) for op in untraced if not op.failed], n)
    metrics["machine.model_ratio"] = simulated / overheads(untraced, n)["overhead_p50"]
    untraced_ms = op_ms(untraced, n)
    metrics["trace.overhead"] = op_ms(traced, n) / untraced_ms
    broken = sum(1 for residual in identity_residuals(tracer.spans) if residual != 0)
    return Run(
        workload.name, metrics, ops, rounds, loop_seconds, resolved,
        op_ms_p50=untraced_ms, tracer=tracer, identity_broken=broken,
    )
