"""Block-ABFT error detection with implicit localization (Section III-B).

The detector evaluates the per-block checksum invariant
``w_k^T (A_k b) ≈ (w_k^T A_k) b`` and returns the set of blocks whose
syndrome exceeds the rounding-error bound.  Because a flagged block *is*
the error location, no separate localization phase exists — the property
the paper's runtime advantage rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import repro.kernels
from repro.core.blocking import BlockPartition
from repro.core.bounds import Bound, make_bound, unit_roundoff
from repro.core.checksum import ChecksumMatrix
from repro.core.config import AbftConfig
from repro.errors import ShapeMismatchError
from repro.kernels.base import ACCUMULATION_DTYPE
from repro.obs import Telemetry, resolve_telemetry
from repro.machine import (
    KernelCost,
    TaskGraph,
    blocked_checksum_cost,
    checksum_matvec_cost,
    norm_cost,
    spmv_cost,
)
from repro.sparse.csr import CsrMatrix


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one invariant evaluation.

    Attributes:
        flagged: indices of blocks whose syndrome exceeds the bound —
            both the error indication and the error location.
        syndrome: per-block ``t1_k - t2_k`` (for the blocks checked).
        thresholds: per-block bounds the syndromes were compared against.
        blocks: the block indices checked (all blocks on a full detect).
        beta: the operand norm used by the bound.
    """

    flagged: np.ndarray
    syndrome: np.ndarray
    thresholds: np.ndarray
    blocks: np.ndarray
    beta: float

    @property
    def clean(self) -> bool:
        """True when no block was flagged."""
        return self.flagged.size == 0


#: A clean block whose ``|syndrome| / threshold`` margin reaches this
#: fraction is a near miss: it counts toward
#: ``abft.false_positive_candidates``.
NEAR_MISS_FRACTION = 0.9

#: Callback type of the detector's report hook: receives every
#: evaluation's :class:`DetectionReport` plus the per-position exceeded
#: mask (aligned with ``report.blocks``).  Adaptive-threshold schemes
#: use it to learn the clean-syndrome distribution online.
ReportHook = Callable[[DetectionReport, np.ndarray], None]


class BlockAbftDetector:
    """Detector bound to one input matrix (the reusable, per-matrix part).

    Building the detector performs the one-time preprocessing of Figures
    2-3 (checksum matrix ``C`` plus bound constants); its cost is recorded
    in :attr:`setup_cost` and is *not* charged to individual multiplies,
    matching the paper's treatment of setup as amortized preprocessing.
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        config: AbftConfig | None = None,
        bound_override: Bound | None = None,
        telemetry: object = None,
        report_hook: Optional[ReportHook] = None,
    ) -> None:
        """Args:
            matrix: the input matrix to protect.
            config: scheme parameters.
            bound_override: any object exposing ``thresholds(beta, blocks)``
                (e.g. :class:`repro.core.calibration.EmpiricalBound`);
                replaces the config-selected analytical bound.
            telemetry: :mod:`repro.obs` selection — a
                :class:`~repro.obs.Telemetry` instance or exporter name;
                None resolves ``config.telemetry`` (``REPRO_OBS`` env
                override applies to names).
            report_hook: called with every evaluation's
                :class:`DetectionReport` and exceeded mask; the feedback
                channel of adaptive-threshold schemes (``vabft``).
        """
        self.matrix = matrix
        self.config = config or AbftConfig()
        self.telemetry: Telemetry = resolve_telemetry(
            telemetry if telemetry is not None else self.config.telemetry
        )
        self.report_hook = report_hook
        #: The analytical bound's ``eps_M``: the storage dtype's unit roundoff.
        self.epsilon = unit_roundoff(matrix.dtype)
        self.kernels = self.telemetry.wrap_kernels(repro.kernels.KERNELS)
        self.checksum = ChecksumMatrix.build(
            matrix,
            self.config.block_size,
            self.config.weights,
            kernels=self.kernels,
            telemetry=self.telemetry,
        )
        if self.telemetry.enabled:
            self.telemetry.gauge("abft.n_blocks", self.checksum.n_blocks)
        self.bound: Bound
        if bound_override is not None:
            self.bound = bound_override
        else:
            self.bound = make_bound(
                self.config.bound,
                self.checksum,
                self.config.bound_scale,
                epsilon=self.epsilon,
            )

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def partition(self) -> BlockPartition:
        return self.checksum.partition

    @property
    def n_blocks(self) -> int:
        return self.checksum.n_blocks

    @property
    def setup_cost(self) -> KernelCost:
        return self.checksum.setup_cost

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def operand_checksums(self, b: np.ndarray) -> np.ndarray:
        """t1 = C b."""
        return self.checksum.operand_checksums(b)

    def result_checksums(self, r: np.ndarray) -> np.ndarray:
        """t2 over all blocks."""
        if r.shape != (self.matrix.n_rows,):
            raise ShapeMismatchError(
                f"result has shape {r.shape}, expected ({self.matrix.n_rows},)"
            )
        return self.checksum.result_checksums(r)

    @np.errstate(over="ignore", invalid="ignore")
    def operand_norm(self, b: np.ndarray) -> float:
        """beta = ||b||_2, accumulated in :data:`ACCUMULATION_DTYPE`.

        A float64 operand gets exactly the arithmetic of
        ``np.linalg.norm`` on a vector, ``sqrt(x . x)`` over
        ``x = b.ravel(order="K")``, without its dispatch.  A narrower
        operand is widened first, so a float32 operand whose norm exceeds
        float32's range still gets a finite beta.  Overflow on corrupted
        operands propagates as inf.
        """
        x = np.asarray(b).ravel(order="K")
        if x.dtype != ACCUMULATION_DTYPE:
            x = x.astype(ACCUMULATION_DTYPE)
        return math.sqrt(x.dot(x))

    def compare(
        self,
        t1: np.ndarray,
        t2: np.ndarray,
        beta: float,
        blocks: np.ndarray | None = None,
    ) -> DetectionReport:
        """Evaluate the invariant for the given checksums.

        Args:
            t1: operand checksums for the checked blocks.
            t2: result checksums for the checked blocks.
            beta: operand norm.
            blocks: block indices being checked; defaults to all blocks.

        A non-finite syndrome always flags (an inf/NaN in the result makes
        the invariant trivially violated); a non-finite *threshold* (e.g. a
        corrupted beta) behaves exactly like the comparison hardware would —
        comparisons against NaN are false, so errors can slip through, which
        is part of the modeled vulnerability of detection operations.
        """
        if blocks is None:
            blocks = np.arange(self.n_blocks, dtype=np.int64)
        else:
            blocks = np.asarray(blocks, dtype=np.int64)
        with np.errstate(invalid="ignore", over="ignore"):
            thresholds = self.bound.thresholds(beta, blocks)
        syndrome, exceeded = self.kernels.compare_syndromes(t1, t2, thresholds)
        report = DetectionReport(
            flagged=blocks[exceeded],
            syndrome=syndrome,
            thresholds=thresholds,
            blocks=blocks,
            beta=beta,
        )
        if self.watched:
            self._record_report(report, exceeded)
        return report

    @property
    def watched(self) -> bool:
        """Whether telemetry or the report hook observes invariant
        evaluations."""
        return self.telemetry.enabled or self.report_hook is not None

    def record(self, report: DetectionReport, exceeded: np.ndarray) -> None:
        """Record a report built outside :meth:`compare` (planned paths).

        :class:`repro.perf.ProtectedPlan` evaluates the invariant in its
        own preallocated buffers and hands the outcome here so telemetry
        and the report hook observe exactly what :meth:`compare` would have
        emitted.  No-op unless :attr:`watched`.
        """
        if self.watched:
            self._record_report(report, exceeded)

    def _record_report(self, report: DetectionReport, exceeded: np.ndarray) -> None:
        """Report hook and telemetry of one invariant evaluation.

        The report hook (when set) sees every evaluation first.  Telemetry
        gets the per-block ``abft.syndrome_margin`` histogram (margin =
        ``|syndrome| / threshold``), the check/detection counters, and
        ``abft.false_positive_candidates``: the clean blocks whose margin
        reaches :data:`NEAR_MISS_FRACTION`.
        """
        observer = self.report_hook
        if observer is not None:
            observer(report, exceeded)
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            margins = np.abs(report.syndrome) / report.thresholds
        telemetry.count("abft.checks", blocks=int(report.blocks.size))
        if report.flagged.size:
            telemetry.count("abft.detections")
            telemetry.count("abft.blocks_flagged", float(report.flagged.size))
        telemetry.observe_many("abft.syndrome_margin", margins)
        with np.errstate(invalid="ignore"):
            near = ~exceeded & np.isfinite(margins) & (margins >= NEAR_MISS_FRACTION)
        if near.any():
            telemetry.count(
                "abft.false_positive_candidates", float(np.count_nonzero(near))
            )

    def detect(self, b: np.ndarray, r: np.ndarray) -> DetectionReport:
        """Full detection pass: checksums, norm, syndrome, comparison."""
        t1 = self.operand_checksums(b)
        t2 = self.result_checksums(r)
        return self.compare(t1, t2, self.operand_norm(b))

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def detection_graph(self, include_spmv: bool = True) -> TaskGraph:
        """Task graph of one protected SpMV (the paper's Figure 1).

        The first parallel region runs the SpMV, the operand checksum
        ``t1 = C b`` and the operand norm ``beta`` on concurrent streams
        (``beta`` depends only on ``b``, so it joins the first region even
        though the figure draws it in the second row).  Everything after —
        result checksums, syndrome, per-block bound, comparison, flag copy
        — fuses into one on-device kernel; no blocking scalar round trip
        is required, which is the scheme's latency advantage over the
        dense check.
        """
        matrix = self.matrix
        checksum = self.checksum.matrix
        graph = TaskGraph()
        max_row = int(matrix.row_lengths().max(initial=1))
        max_c_row = int(checksum.row_lengths().max(initial=1))
        step1 = []
        if include_spmv:
            cost = spmv_cost(matrix.nnz, max_row)
            graph.add("spmv", cost.work, cost.span)
            step1.append("spmv")
        cost = checksum_matvec_cost(checksum.nnz, max_c_row)
        graph.add("t1", cost.work, cost.span)
        step1.append("t1")
        cost = norm_cost(matrix.n_cols)
        graph.add("beta", cost.work, cost.span)
        step1.append("beta")
        cost = blocked_checksum_cost(
            matrix.n_rows, self.config.block_size, self.n_blocks
        )
        graph.add("check", cost.work, cost.span, deps=step1)
        return graph
