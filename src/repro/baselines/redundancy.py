"""Redundant-execution baselines: DWC and TMR (paper Section II).

The paper's related work opens with modular redundancy: "redundant
execution techniques such as triple modular redundancy (TMR) are applied
to provide fault tolerance for highly critical applications.  However,
duplication or even triplication of procedures induce high costs".  These
two schemes make that cost concrete on the same driver contract as the
ABFT schemes:

* **DWC** (duplication with comparison): run the SpMV twice, compare
  elementwise; a mismatch detects (and localizes) errors, corrected by a
  third tie-breaking execution per disagreeing element range.
* **TMR** (triple modular redundancy): run three times, take the
  elementwise majority; silent unless two copies disagree everywhere.

Both assume errors strike the two/three executions independently — the
transient-fault assumption the paper shares.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.scheme import BaselineContext
from repro.core.corrector import TamperHook
from repro.machine import ExecutionMeter, Machine, TaskGraph, pointwise_cost, spmv_cost
from repro.schemes.result import ProtectedSpmvResult
from repro.sparse.csr import CsrMatrix


def _contiguous_ranges(indices: np.ndarray) -> list[tuple[int, int]]:
    """Collapse sorted indices into maximal contiguous [start, stop) ranges."""
    if indices.size == 0:
        return []
    breaks = np.nonzero(np.diff(indices) > 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    stops = np.concatenate([breaks, [indices.size - 1]])
    return [(int(indices[a]), int(indices[b]) + 1) for a, b in zip(starts, stops)]


class DwcSpMV(BaselineContext):
    """Duplication with comparison.

    Two executions on separate streams; elementwise disagreement both
    detects and localizes.  Disagreeing elements are settled by a third
    partial execution (two-out-of-three per element).
    """

    name = "redundancy"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        max_rounds: int = 8,
        telemetry: object = None,
    ) -> None:
        super().__init__(matrix, machine=machine, telemetry=telemetry)
        self.max_rounds = max_rounds

    def _duplicate_graph(self) -> TaskGraph:
        matrix = self.matrix
        cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))
        graph = TaskGraph()
        graph.add("spmv-a", cost.work, cost.span)
        graph.add("spmv-b", cost.work, cost.span)
        compare = pointwise_cost(matrix.n_rows)
        graph.add("compare", compare.work, compare.span + 3.0, deps=["spmv-a", "spmv-b"])
        return graph

    def detection_graph(self) -> TaskGraph:
        """Task graph of one multiply's detection phase (the duplicate run)."""
        return self._duplicate_graph()

    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> ProtectedSpmvResult:
        """One protected multiply (tamper contract as the other schemes:
        each redundant execution's output passes through the hook)."""
        matrix = self.matrix
        meter = self._meter(meter)
        start_seconds, start_flops = meter.snapshot()
        work = 2.0 * matrix.nnz

        with self.telemetry.span(
            self._span_name, rows=matrix.n_rows, nnz=matrix.nnz
        ):
            meter.run_graph(self._duplicate_graph())
            first = matrix.matvec(b)
            if tamper is not None:
                tamper("result", first, work)
            second = matrix.matvec(b)
            if tamper is not None:
                tamper("result", second, work)

            with np.errstate(invalid="ignore"):
                disagree = ~(first == second)  # NaN != NaN -> flagged, as desired
            detections = [bool(disagree.any())]
            self._record_check(detections[0])
            corrections: list[tuple[int, int]] = []
            rounds = 0
            exhausted = False
            value = first
            while disagree.any():
                if rounds >= self.max_rounds:
                    exhausted = True
                    break
                rounds += 1
                self._record_correction()
                ranges = _contiguous_ranges(np.nonzero(disagree)[0])
                graph = TaskGraph()
                for index, (start, stop) in enumerate(ranges):
                    # Tie-breaking third execution of the disagreeing range,
                    # through the injected kernel set.
                    rows = np.arange(start, stop, dtype=np.int64)
                    third, nnz = self.kernels.row_checksums(matrix, rows, b)
                    cost = spmv_cost(
                        int(nnz), int(matrix.row_lengths().max(initial=1))
                    )
                    graph.add(f"tiebreak{index}", cost.work, cost.span)
                    if tamper is not None:
                        tamper("corrected", third, 2.0 * nnz)
                    # Majority vote per element among (first, second, third).
                    local = slice(start, stop)
                    agree_first = first[local] == third
                    agree_second = second[local] == third
                    settled = np.where(
                        agree_first | agree_second, third, first[local]
                    )
                    value[local] = settled
                    corrections.append((start, stop))
                meter.run_graph(graph)
                # Re-compare only where we intervened: accept majority outcomes.
                with np.errstate(invalid="ignore"):
                    still = np.zeros_like(disagree)
                    for start, stop in ranges:
                        seg = slice(start, stop)
                        still[seg] = ~np.isfinite(value[seg])
                disagree = still
                detections.append(bool(disagree.any()))
                self._record_check(detections[-1])

        seconds, flops = meter.snapshot()
        return ProtectedSpmvResult(
            value=value,
            detections=tuple(detections),
            corrections=tuple(corrections),
            rounds=rounds,
            seconds=seconds - start_seconds,
            flops=flops - start_flops,
            exhausted=exhausted,
        )


class TmrSpMV(BaselineContext):
    """Triple modular redundancy: three executions, elementwise majority."""

    name = "tmr"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        telemetry: object = None,
    ) -> None:
        super().__init__(matrix, machine=machine, telemetry=telemetry)

    def _triplicate_graph(self) -> TaskGraph:
        matrix = self.matrix
        cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))
        graph = TaskGraph()
        for stream in ("a", "b", "c"):
            graph.add(f"spmv-{stream}", cost.work, cost.span)
        vote = pointwise_cost(matrix.n_rows)
        graph.add(
            "vote", 2.0 * vote.work, vote.span + 3.0,
            deps=["spmv-a", "spmv-b", "spmv-c"],
        )
        return graph

    def detection_graph(self) -> TaskGraph:
        """Task graph of one multiply's detection phase (the voted run)."""
        return self._triplicate_graph()

    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> ProtectedSpmvResult:
        """One voted multiply; a detection is any element without unanimity."""
        matrix = self.matrix
        meter = self._meter(meter)
        start_seconds, start_flops = meter.snapshot()
        work = 2.0 * matrix.nnz

        with self.telemetry.span(
            self._span_name, rows=matrix.n_rows, nnz=matrix.nnz
        ):
            meter.run_graph(self._triplicate_graph())
            copies = []
            for _ in range(3):
                copy = matrix.matvec(b)
                if tamper is not None:
                    tamper("result", copy, work)
                copies.append(copy)
            a, second, c = copies
            with np.errstate(invalid="ignore"):
                value = np.where(a == second, a, np.where(a == c, a, second))
                unanimous = (a == second) & (second == c)
            detected = bool((~unanimous).any())
            self._record_check(detected)
            if detected:
                self._record_correction()

        seconds, flops = meter.snapshot()
        return ProtectedSpmvResult(
            value=value,
            detections=(detected,),
            corrections=tuple(
                (int(i), int(i) + 1) for i in np.nonzero(~unanimous)[0][:64]
            ),
            rounds=1 if detected else 0,
            seconds=seconds - start_seconds,
            flops=flops - start_flops,
            exhausted=False,
        )
