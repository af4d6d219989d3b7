"""Bisection localization + partial recomputation (Sloan et al. [30]).

After the dense check fires, the matrix is repeatedly halved and each half
is checked until the error is delimited — the paper adopts this baseline
with an *early stop at 40 % of the complete localization traversal*, after
which the remaining range is recomputed.

Every probe is a dense inner product ``c_node · b`` (the node checksums are
precomputed at setup) followed by a host-side comparison, i.e. one blocking
scalar round trip per probe; the right-hand sibling's syndrome is derived
from the parent's by subtraction, so each split costs one probe.  This is
exactly the "expensive error localization" the proposed scheme eliminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.dense_check import DenseChecksum
from repro.baselines.scheme import BaselineContext
from repro.core.corrector import TamperHook
from repro.errors import ConfigurationError
from repro.machine import (
    ExecutionMeter,
    Machine,
    TaskGraph,
    dense_check_cost,
    partial_spmv_cost,
    probe_cost,
)
from repro.schemes.result import ProtectedSpmvResult
from repro.sparse.csr import CsrMatrix

#: The early-stop fraction used throughout the paper's evaluation.
DEFAULT_EARLY_STOP = 0.4


def _column_sums(matrix: CsrMatrix, start: int, stop: int) -> np.ndarray:
    """Dense column sums of the row range ``[start, stop)``."""
    lo, hi = matrix.indptr[start], matrix.indptr[stop]
    return np.bincount(
        matrix.indices[lo:hi], weights=matrix.data[lo:hi], minlength=matrix.n_cols
    )


@dataclass(frozen=True)
class LocalizationOutcome:
    """Result of one bisection traversal."""

    ranges: Tuple[Tuple[int, int], ...]
    probes: int


class BisectionLocalizer:
    """Precomputed checksum tree + the bisection traversal itself."""

    def __init__(
        self,
        matrix: CsrMatrix,
        early_stop_fraction: float = DEFAULT_EARLY_STOP,
    ) -> None:
        if not 0.0 < early_stop_fraction <= 1.0:
            raise ConfigurationError(
                f"early_stop_fraction must be in (0, 1], got {early_stop_fraction}"
            )
        self.matrix = matrix
        m = max(1, matrix.n_rows)
        #: Depth of a complete traversal (localizing to single rows).
        self.full_depth = max(1, int(math.ceil(math.log2(m))))
        #: Levels actually descended (the 40 % early stop).
        self.stop_depth = max(1, int(math.ceil(early_stop_fraction * self.full_depth)))
        self.early_stop_fraction = early_stop_fraction
        #: Left-child checksum vectors, keyed by the child's row range.
        self._left_checksums: Dict[Tuple[int, int], np.ndarray] = {}
        self._precompute(0, matrix.n_rows, self.stop_depth)

    def _precompute(self, start: int, stop: int, levels: int) -> None:
        if levels == 0 or stop - start <= 1:
            return
        mid = (start + stop) // 2
        self._left_checksums[(start, mid)] = _column_sums(self.matrix, start, mid)
        self._precompute(start, mid, levels - 1)
        self._precompute(mid, stop, levels - 1)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def localize(
        self,
        b: np.ndarray,
        r: np.ndarray,
        root_syndrome: float,
        tau: float,
        tamper: Optional[TamperHook] = None,
    ) -> LocalizationOutcome:
        """Delimit error locations by descending ``stop_depth`` levels.

        Args:
            b: operand vector.
            r: (corrupted) result vector.
            root_syndrome: the dense check's ``c b - w^T r``.
            tau: the norm bound used for every probe comparison.
            tamper: fault hook for the probe arithmetic.

        Returns:
            The flagged row ranges (to be recomputed) and the probe count.
        """
        frontier: List[Tuple[int, int, float]] = [
            (0, self.matrix.n_rows, root_syndrome)
        ]
        probes = 0
        for _ in range(self.stop_depth):
            next_frontier: List[Tuple[int, int, float]] = []
            for start, stop, syndrome in frontier:
                if stop - start <= 1:
                    next_frontier.append((start, stop, syndrome))
                    continue
                mid = (start + stop) // 2
                probes += 1
                box = np.array([float(np.dot(self._left_checksums[(start, mid)], b))])
                if tamper is not None:
                    tamper("t1", box, 2.0 * self.matrix.n_cols)
                with np.errstate(invalid="ignore", over="ignore"):
                    left_result = float(np.sum(r[start:mid]))
                box2 = np.array([left_result])
                if tamper is not None:
                    tamper("t2", box2, float(mid - start))
                with np.errstate(invalid="ignore", over="ignore"):
                    left_syndrome = float(box[0]) - float(box2[0])
                    right_syndrome = syndrome - left_syndrome
                left_flag = abs(left_syndrome) > tau or not math.isfinite(left_syndrome)
                right_flag = abs(right_syndrome) > tau or not math.isfinite(
                    right_syndrome
                )
                if left_flag:
                    next_frontier.append((start, mid, left_syndrome))
                if right_flag:
                    next_frontier.append((mid, stop, right_syndrome))
                if not left_flag and not right_flag:
                    # Neither half shows the error (cancellation or a fault
                    # in the probes themselves): keep the parent range.
                    next_frontier.append((start, stop, syndrome))
            frontier = next_frontier
        ranges = tuple((start, stop) for start, stop, _ in frontier)
        return LocalizationOutcome(ranges=ranges, probes=probes)

    def localization_graph(self, probes: int) -> TaskGraph:
        """Cost of a traversal: host-serialized (but pipelined) probes."""
        graph = TaskGraph()
        previous: List[str] = []
        for index in range(probes):
            cost = probe_cost(self.matrix.n_cols)
            name = f"probe{index}"
            graph.add(name, cost.work, cost.span, deps=previous)
            previous = [name]
        return graph


class PartialRecomputationSpMV(BaselineContext):
    """Dense check + bisection localization + range recomputation ([30])."""

    name = "bisection"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        max_rounds: int = 8,
        early_stop_fraction: float = DEFAULT_EARLY_STOP,
        bound_scale: float = 1.0,
        telemetry: object = None,
    ) -> None:
        super().__init__(matrix, machine=machine, telemetry=telemetry)
        self.max_rounds = max_rounds
        self.checker = DenseChecksum(matrix, bound_scale=bound_scale)
        self.localizer = BisectionLocalizer(matrix, early_stop_fraction)

    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> ProtectedSpmvResult:
        """One protected multiply (same driver contract as the core scheme)."""
        matrix = self.matrix
        meter = self._meter(meter)
        start_seconds, start_flops = meter.snapshot()
        max_row = int(matrix.row_lengths().max(initial=1))

        with self.telemetry.span(
            self._span_name, rows=matrix.n_rows, nnz=matrix.nnz
        ):
            meter.run_graph(self.checker.detection_graph())
            r = matrix.matvec(b)
            if tamper is not None:
                tamper("result", r, 2.0 * matrix.nnz)
            report = self.checker.check(b, r, tamper)
            self._record_check(report.detected)

            detections = [report.detected]
            corrections: list[tuple[int, int]] = []
            rounds = 0
            exhausted = False
            while report.detected:
                if rounds >= self.max_rounds:
                    exhausted = True
                    break
                rounds += 1
                self._record_correction()

                # Localization phase (the step the proposed scheme avoids).
                outcome = self.localizer.localize(
                    b, r, report.syndrome, report.threshold, tamper
                )
                meter.run_graph(self.localizer.localization_graph(outcome.probes))

                # Partial recomputation of each delimited range, through the
                # injected kernel set (bit-identical across kernels).
                graph = TaskGraph()
                for index, (start, stop) in enumerate(outcome.ranges):
                    nnz = self._recompute_rows(b, r, start, stop, tamper)
                    corrections.append((start, stop))
                    cost = partial_spmv_cost(nnz, max_row)
                    graph.add(f"recompute{index}", cost.work, cost.span)
                if len(graph):
                    meter.run_graph(graph)

                # Full dense re-check (c b and tau are reusable; w^T r is not).
                meter.run_kernel(dense_check_cost(matrix.n_rows))
                box = np.array([self.checker.result_checksum(r)])
                if tamper is not None:
                    tamper("t2", box, 2.0 * matrix.n_rows)
                report = self.checker.evaluate(
                    report.operand_checksum, float(box[0]), report.threshold
                )
                detections.append(report.detected)
                self._record_check(report.detected)

        seconds, flops = meter.snapshot()
        return ProtectedSpmvResult(
            value=r,
            detections=tuple(detections),
            corrections=tuple(corrections),
            rounds=rounds,
            seconds=seconds - start_seconds,
            flops=flops - start_flops,
            exhausted=exhausted,
        )

    def detection_graph(self) -> TaskGraph:
        """Task graph of one multiply's detection phase."""
        return self.checker.detection_graph()
