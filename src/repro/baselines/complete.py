"""Complete-recomputation baseline (Shantharam et al. [31]).

Detection is the dense check; on error the *entire* SpMV is recomputed and
re-checked.  Correction cost therefore equals a full multiply plus another
dense check per round — the upper baseline of the paper's Figure 6.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.dense_check import DenseChecksum
from repro.baselines.scheme import BaselineContext
from repro.core.corrector import TamperHook
from repro.machine import ExecutionMeter, Machine, TaskGraph
from repro.schemes.result import ProtectedSpmvResult
from repro.sparse.csr import CsrMatrix


class CompleteRecomputationSpMV(BaselineContext):
    """Dense check + full recomputation on error."""

    name = "complete"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        max_rounds: int = 8,
        bound_scale: float = 1.0,
        telemetry: object = None,
    ) -> None:
        super().__init__(matrix, machine=machine, telemetry=telemetry)
        self.max_rounds = max_rounds
        self.checker = DenseChecksum(matrix, bound_scale=bound_scale)

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
                # Full recomputation plus a complete re-check, routed through
                # the injected kernel set (bit-identical across kernels).
                meter.run_graph(self.checker.detection_graph())
                self._recompute_rows(b, r, 0, matrix.n_rows, tamper)
                corrections.append((0, matrix.n_rows))
                report = self.checker.check(b, r, tamper)
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
