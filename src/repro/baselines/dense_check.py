"""The related-work *dense check* for SpMV ([30], [31]; paper Section II).

One dense weight vector ``w`` (all ones) encodes the whole matrix into a
dense column-checksum vector ``c = w^T A``; per multiply, the invariant
``w^T r ≈ c b`` is evaluated as two scalar inner products compared on the
host against the norm bound ``tau = ||b||_2`` of [30].  The check says *an*
error happened somewhere — it carries no location, which is why baselines
built on it must either recompute everything or run a localization phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.baselines.scheme import BaselineContext
from repro.core.corrector import TamperHook
from repro.machine import (
    ExecutionMeter,
    Machine,
    TaskGraph,
    blocking_norm_cost,
    dense_check_cost,
    dot_cost,
    spmv_cost,
)
from repro.schemes.result import ProtectedSpmvResult
from repro.sparse.csr import CsrMatrix


@dataclass(frozen=True)
class DenseCheckReport:
    """Outcome of one dense-check evaluation."""

    detected: bool
    operand_checksum: float
    result_checksum: float
    threshold: float

    @property
    def syndrome(self) -> float:
        return self.operand_checksum - self.result_checksum


class DenseChecksum:
    """Per-matrix state of the dense check (the vector ``c = w^T A``)."""

    def __init__(self, matrix: CsrMatrix, bound_scale: float = 1.0) -> None:
        self.matrix = matrix
        self.bound_scale = bound_scale
        self.weights = np.ones(matrix.n_rows, dtype=np.float64)
        #: Dense column checksums; every column participates.
        self.checksum_vector = matrix.rmatvec(self.weights)

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def operand_checksum(self, b: np.ndarray) -> float:
        """``c b`` — one dense inner product."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.dot(self.checksum_vector, b))

    def result_checksum(self, r: np.ndarray) -> float:
        """``w^T r`` — with all-ones weights, the sum of the result."""
        with np.errstate(invalid="ignore", over="ignore"):
            return float(np.dot(self.weights, r))

    def threshold(self, b: np.ndarray) -> float:
        """The norm bound ``tau = ||b||_2`` of [30]."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.bound_scale * float(np.linalg.norm(b))

    def evaluate(
        self, t1: float, t2: float, tau: float
    ) -> DenseCheckReport:
        """Host-side comparison; non-finite checksums always detect."""
        difference = t1 - t2
        detected = bool(abs(difference) > tau) or not np.isfinite(difference)
        return DenseCheckReport(
            detected=detected,
            operand_checksum=t1,
            result_checksum=t2,
            threshold=tau,
        )

    def check(
        self,
        b: np.ndarray,
        r: np.ndarray,
        tamper: Optional[TamperHook] = None,
    ) -> DenseCheckReport:
        """Full dense check with tamper hooks on every scalar it produces."""
        box = np.array([self.operand_checksum(b)])
        if tamper is not None:
            tamper("t1", box, 2.0 * self.matrix.n_cols)
        t1 = float(box[0])
        box = np.array([self.result_checksum(r)])
        if tamper is not None:
            tamper("t2", box, 2.0 * self.matrix.n_rows)
        t2 = float(box[0])
        box = np.array([self.threshold(b)])
        if tamper is not None:
            tamper("beta", box, 2.0 * self.matrix.n_cols)
        return self.evaluate(t1, t2, float(box[0]))

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def detection_graph(self, include_spmv: bool = True) -> TaskGraph:
        """Task graph of one dense-checked SpMV.

        ``c b`` overlaps the SpMV (the paper grants the baseline this
        courtesy, Section V-A) and so does the norm reduction; but both the
        norm and the result checksum are *blocking* scalar round trips —
        host-side comparison serializes them after the SpMV.
        """
        matrix = self.matrix
        graph = TaskGraph()
        step1 = []
        if include_spmv:
            cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))
            graph.add("spmv", cost.work, cost.span)
            step1.append("spmv")
        cost = dot_cost(matrix.n_cols)
        graph.add("cb", cost.work, cost.span)
        step1.append("cb")
        cost = blocking_norm_cost(matrix.n_cols)
        graph.add("beta", cost.work, cost.span)
        step1.append("beta")
        cost = dense_check_cost(matrix.n_rows)
        graph.add("wr", cost.work, cost.span, deps=step1)
        return graph


class DenseCheckSpMV(BaselineContext):
    """Detection-only dense-checked SpMV ([30]).

    The dense check carries no location information and this scheme has no
    recovery phase: a detection leaves the result uncorrected and the
    ``exhausted`` flag set, signalling the caller (e.g. a checkpointed
    solver) to recover by other means.
    """

    name = "dense_check"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        bound_scale: float = 1.0,
        telemetry: object = None,
    ) -> None:
        super().__init__(matrix, machine=machine, telemetry=telemetry)
        self.checker = DenseChecksum(matrix, bound_scale=bound_scale)

    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> ProtectedSpmvResult:
        """One checked multiply; detections are terminal (no correction)."""
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

        seconds, flops = meter.snapshot()
        return ProtectedSpmvResult(
            value=r,
            detections=(report.detected,),
            corrections=(),
            rounds=0,
            seconds=seconds - start_seconds,
            flops=flops - start_flops,
            exhausted=report.detected,
        )

    def verdict(self, b: np.ndarray, r: np.ndarray) -> Tuple[Tuple[int, int], ...]:
        """Row ranges the check implicates — all rows or none (no location)."""
        report = self.checker.check(b, r)
        if report.detected:
            return ((0, self.matrix.n_rows),)
        return ()

    def detection_graph(self) -> TaskGraph:
        """Task graph of one multiply's detection phase."""
        return self.checker.detection_graph()
