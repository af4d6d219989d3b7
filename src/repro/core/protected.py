"""The fault-tolerant SpMV operator (the paper's Figure 1, end to end).

:class:`FaultTolerantSpMV` binds the detector to one input matrix and
executes protected multiplies: the SpMV and the operand checksum run as
parallel streams, detection follows, and any flagged block is corrected
by partial recomputation and re-verified.  Every protected multiply runs
through a :class:`repro.perf.ProtectedPlan`: :meth:`FaultTolerantSpMV.multiply`
through a one-shard serial CSR plan built on the first call,
:meth:`FaultTolerantSpMV.planned` through the plan of the resolved
backend and format.  Numerics run eagerly (NumPy); simulated cost is
charged to an :class:`repro.machine.ExecutionMeter`; fault campaigns
corrupt intermediate data through a *tamper hook* invoked after every
numeric stage.

Beyond the paper's description, the correction rounds handle two
realities of injections into the detection path itself:

* corrections are re-verified (a corrupted correction is caught in the
  next round), and
* a block that stays flagged after its first recomputation gets its
  operand checksum ``t1_k`` refreshed — otherwise a corrupted ``t1`` would
  trigger corrections forever.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.perf.plan import ProtectedPlan

from repro.core.blocking import BlockPartition
from repro.core.config import AbftConfig
from repro.core.corrector import TamperHook, correct_blocks
from repro.core.detector import BlockAbftDetector
from repro.errors import ConfigurationError
from repro.machine import (
    ExecutionMeter,
    KernelCost,
    Machine,
    TaskGraph,
    blocked_checksum_cost,
    log2ceil,
    spmv_cost,
)
from repro.obs import DEFAULT_FRACTION_BUCKETS, Telemetry
from repro.schemes.result import ProtectedSpmvResult
from repro.sparse.csr import CsrMatrix


def plain_spmv(
    matrix: CsrMatrix,
    b: np.ndarray,
    meter: Optional[ExecutionMeter] = None,
    tamper: Optional[TamperHook] = None,
) -> np.ndarray:
    """Unprotected SpMV: the baseline all overheads are measured against."""
    meter = meter if meter is not None else ExecutionMeter()
    graph = TaskGraph()
    cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))
    graph.add("spmv", cost.work, cost.span)
    meter.run_graph(graph)
    r = matrix.matvec(b)
    if tamper is not None:
        tamper("result", r, cost.work)
    return r


def block_result(
    partition: BlockPartition,
    value: np.ndarray,
    detected: Tuple[Tuple[int, ...], ...],
    corrected_blocks: Tuple[int, ...],
    rounds: int,
    seconds: float,
    flops: float,
    exhausted: bool,
) -> ProtectedSpmvResult:
    """Build the unified result from block-granular detection state.

    ``detected`` is the per-check tuple of flagged block indices; check
    ``i`` (for ``i < rounds``) fed correction round ``i + 1``, so the
    row-range ``corrections`` are exactly the bounds of those blocks, in
    recomputation order.
    """
    return ProtectedSpmvResult(
        value=value,
        detections=tuple(map(bool, detected)),
        corrections=tuple(
            partition.bounds(int(block))
            for index in range(rounds)
            for block in detected[index]
        )
        if rounds
        else (),
        rounds=rounds,
        seconds=seconds,
        flops=flops,
        exhausted=exhausted,
        detected_blocks=detected,
        corrected_blocks=corrected_blocks,
    )


class FaultTolerantSpMV:
    """Reusable protected-SpMV operator for one input matrix.

    Args:
        matrix: the sparse input matrix ``A``.
        block_size: shorthand for ``AbftConfig(block_size=...)``.
        config: full configuration; mutually exclusive with ``block_size``.
        machine: simulated device (defaults to the calibrated K80 model).
        telemetry: :mod:`repro.obs` selection — a Telemetry instance or
            exporter name; None resolves ``config.telemetry`` (with the
            ``REPRO_OBS`` environment override).
        bound_override: optional object exposing ``thresholds(beta, blocks)``
            replacing the analytical detection bound (e.g. an
            :class:`~repro.analysis.empirical.EmpiricalBound`).
        dtype: dtype-policy selection (name or
            :class:`~repro.core.dtypes.DtypePolicy`); None resolves
            ``config.dtype`` with the ``REPRO_DTYPE`` environment
            override.  The policy feeds the detector's epsilon model.
    """

    #: Registry name in :mod:`repro.schemes` (the paper's scheme).
    name = "abft"

    def __init__(
        self,
        matrix: CsrMatrix,
        block_size: Optional[int] = None,
        config: Optional[AbftConfig] = None,
        machine: Optional[Machine] = None,
        telemetry: object = None,
        bound_override: object = None,
        dtype: object = None,
    ) -> None:
        if config is not None and block_size is not None and config.block_size != block_size:
            raise ConfigurationError(
                f"conflicting block sizes: block_size={block_size} vs "
                f"config.block_size={config.block_size}"
            )
        if config is None:
            config = AbftConfig() if block_size is None else AbftConfig(block_size=block_size)
        self.config = config
        self.machine = machine or Machine()
        self.detector = BlockAbftDetector(
            matrix, config, bound_override=bound_override, telemetry=telemetry,
            dtype=dtype,
        )
        self._plan: Optional["ProtectedPlan"] = None
        self._serial_plan: Optional["ProtectedPlan"] = None

    @property
    def telemetry(self) -> Telemetry:
        """The telemetry stream shared with the detector."""
        return self.detector.telemetry

    @property
    def dtype_policy(self):
        """The resolved dtype policy (shared with the detector)."""
        return self.detector.dtype_policy

    @property
    def matrix(self) -> CsrMatrix:
        return self.detector.matrix

    @property
    def setup_cost(self) -> KernelCost:
        """One-time preprocessing cost (checksum matrix construction)."""
        return self.detector.setup_cost

    # ------------------------------------------------------------------
    # Protected multiply
    # ------------------------------------------------------------------
    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> ProtectedSpmvResult:
        """Execute one fault-tolerant SpMV.

        Runs the operator's one-shard serial CSR
        :class:`~repro.perf.ProtectedPlan`, built on the first call and
        cached in its own slot (``REPRO_PARALLEL`` and ``REPRO_FORMAT``
        never apply here; :meth:`planned` honours them).  The returned
        ``value`` is a copy the caller owns.  The plan's buffers are
        shared between calls, so one operator must not multiply from two
        threads at once.

        Args:
            b: operand vector.
            tamper: optional fault hook ``tamper(stage, data, work)`` called
                after each numeric stage with stages ``"result"``, ``"t1"``,
                ``"beta"``, ``"t2"``, ``"corrected"``; campaigns corrupt the
                passed arrays in place.
            meter: execution meter to charge; without one, none is charged
                and the result records the same cost a fresh meter would.
        """
        plan = self._serial_plan
        if plan is None:
            from repro.perf.plan import ProtectedPlan

            plan = ProtectedPlan(
                self, n_shards=1, parallel="serial", sparse_format="csr"
            )
            self._serial_plan = plan
        result = plan.multiply(b, tamper, meter)
        return ProtectedSpmvResult(
            value=result.value.copy(),
            detections=result.detections,
            corrections=result.corrections,
            rounds=result.rounds,
            seconds=result.seconds,
            flops=result.flops,
            exhausted=result.exhausted,
            detected_blocks=result.detected_blocks,
            corrected_blocks=result.corrected_blocks,
        )

    def _correction_rounds(
        self,
        b: np.ndarray,
        r: np.ndarray,
        t1: np.ndarray,
        beta: float,
        flagged: np.ndarray,
        tamper: Optional[TamperHook],
        meter: ExecutionMeter,
        *,
        detected: List[Tuple[int, ...]],
        corrected: Set[int],
    ) -> Tuple[int, bool]:
        """Figure 1 step 5: correct + re-verify until clean.

        Called by :meth:`repro.perf.ProtectedPlan.multiply` on every
        backend and format: runs correction rounds in the calling process
        until ``flagged`` is empty or the round budget runs out, mutating
        ``detected``/``corrected`` in place and returning the final
        ``(rounds, exhausted)`` pair.
        """
        detector = self.detector
        matrix = detector.matrix
        telemetry = detector.telemetry
        rounds = 0
        exhausted = False
        while flagged.size:
            if rounds >= self.config.max_correction_rounds:
                exhausted = True
                break
            rounds += 1
            if telemetry.enabled:
                telemetry.count("abft.corrections")
                telemetry.count("abft.blocks_recomputed", float(flagged.size))
                telemetry.observe(
                    "abft.block_recompute_fraction",
                    flagged.size / detector.n_blocks,
                    buckets=DEFAULT_FRACTION_BUCKETS,
                )
            with telemetry.span(
                "abft.correct", round=rounds, blocks=int(flagged.size)
            ):
                outcome = correct_blocks(
                    matrix, detector.partition, b, r, flagged, tamper,
                    kernels=detector.kernels,
                )
                corrected.update(flagged.tolist())

                refresh = rounds >= 2
                refreshed_nnz = 0
                if refresh:
                    refreshed_nnz = self._refresh_operand_checksums(
                        b, t1, flagged, tamper
                    )

                recheck = detector.checksum.result_checksums_for_blocks(r, flagged)
                self._tamper(tamper, "t2", recheck, 2.0 * outcome.rows_recomputed)
                report = detector.compare(t1[flagged], recheck, beta, blocks=flagged)

            meter.run_graph(
                self._correction_graph(
                    rounds, outcome.nnz_recomputed, outcome.rows_recomputed,
                    len(flagged), refreshed_nnz,
                )
            )
            flagged = report.flagged
            detected.append(tuple(flagged.tolist()))
        return rounds, exhausted

    def planned(
        self,
        n_shards: Optional[int] = None,
        sparse_format: Optional[str] = None,
    ) -> "ProtectedPlan":
        """The cached execution plan for this operator (see
        :class:`repro.perf.ProtectedPlan`).

        Building a plan precomputes shard boundaries and preallocates all
        detection buffers; steady-state callers (e.g. the PCG loop) call
        this every iteration and hit the cache after the first build — a
        hit bumps the ``plan.cache_hits`` counter when telemetry is on.

        Args:
            n_shards: shard count; None derives it from the resolved
                execution backend (see
                :func:`repro.perf.backends.default_shard_count`): 1 for
                ``"serial"``, the worker count for ``"threads"``.  The
                cache is keyed on the backend too.
            sparse_format: explicit storage format request forwarded to
                :class:`~repro.perf.plan.ProtectedPlan` (beats
                ``REPRO_FORMAT`` and ``AbftConfig.sparse_format``).  The
                cache is keyed on the *resolved request*, so switching
                formats rebuilds the plan.
        """
        from repro.perf.backends import default_shard_count, resolve_backend_name
        from repro.perf.plan import ProtectedPlan
        from repro.sparse.formats import resolve_format_name

        backend = resolve_backend_name(self.config.parallel)
        if n_shards is None:
            n_shards = default_shard_count(backend)
        requested = resolve_format_name(self.config.sparse_format, explicit=sparse_format)
        plan = self._plan
        if (
            plan is not None
            and plan.n_shards == n_shards
            and plan.backend_name == backend
            and plan.format_choice.requested == requested
        ):
            if self.telemetry.enabled:
                self.telemetry.count("plan.cache_hits")
            return plan
        plan = ProtectedPlan(self, n_shards=n_shards, sparse_format=requested)
        self._plan = plan
        return plan

    def plain_multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> np.ndarray:
        """Unprotected SpMV on the same machine (overhead baseline)."""
        meter = meter if meter is not None else ExecutionMeter(machine=self.machine)
        return plain_spmv(self.matrix, b, meter=meter, tamper=tamper)

    def detection_graph(self) -> TaskGraph:
        """Task graph of one multiply's detection phase (cost model)."""
        return self.detector.detection_graph()

    def verdict(self, b: np.ndarray, r: np.ndarray) -> Tuple[Tuple[int, int], ...]:
        """Row ranges the detector implicates for a given ``(b, r)`` pair.

        Runs the block check without correcting; each flagged block maps to
        its row range, so coverage campaigns can score all schemes on the
        same range-granular confusion counts.
        """
        report = self.detector.detect(b, r)
        partition = self.detector.partition
        return tuple(partition.bounds(int(block)) for block in report.flagged)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _tamper(
        tamper: Optional[TamperHook], stage: str, data: np.ndarray, work: float
    ) -> None:
        if tamper is not None:
            tamper(stage, data, work)

    def _refresh_operand_checksums(
        self,
        b: np.ndarray,
        t1: np.ndarray,
        flagged: np.ndarray,
        tamper: Optional[TamperHook],
    ) -> int:
        """Recompute t1 entries of stubborn blocks; returns nnz touched."""
        with self.detector.telemetry.span("checksum.refresh", blocks=int(flagged.size)):
            fresh, nnz = self.detector.kernels.row_checksums(
                self.detector.checksum.matrix, flagged, b
            )
            self._tamper(tamper, "t1", fresh, 2.0 * nnz)
            t1[flagged] = fresh
        return nnz

    @cached_property
    def _row_span(self) -> float:
        """Span of a row-range recomputation: ``log2ceil`` of the longest row."""
        return log2ceil(int(self.matrix.row_lengths().max(initial=1)))

    def _correction_graph(
        self,
        round_index: int,
        nnz_recomputed: int,
        rows_recomputed: int,
        n_flagged: int,
        refreshed_nnz: int,
    ) -> TaskGraph:
        """Cost of one correction round (partial SpMV + re-verification)."""
        graph = TaskGraph()
        graph.add("recompute", 2.0 * nnz_recomputed, self._row_span)
        recheck_deps = ["recompute"]
        if refreshed_nnz:
            graph.add("t1-refresh", 2.0 * refreshed_nnz, self._row_span)
            recheck_deps.append("t1-refresh")
        recheck = blocked_checksum_cost(
            rows_recomputed, self.config.block_size, n_flagged
        )
        graph.add("recheck", recheck.work, recheck.span, deps=recheck_deps)
        return graph
