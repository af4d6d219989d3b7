"""Zero-allocation execution plans: the one protected-multiply path.

Every protected ABFT multiply runs here.
:meth:`repro.core.protected.FaultTolerantSpMV.multiply` runs the
operator's one-shard serial CSR plan (built on first use);
:meth:`~repro.core.protected.FaultTolerantSpMV.planned` hands steady-state
callers — above all :func:`repro.solvers.ft_pcg.run_pcg`, which executes
the same protected SpMV hundreds of times on one matrix — the plan of the
resolved backend and format.  A plan precomputes, for a fixed
``(matrix, block partition, checksum)`` triple, everything that does not
depend on the operand:

* nnz-balanced shard row ranges aligned to checksum-block boundaries
  (:mod:`repro.perf.sharding`), with per-shard ``indptr`` slices and
  ``reduceat`` offsets resolved once;
* one set of output / scratch buffers (result, product workspace, t1,
  t2, syndrome, thresholds, flag masks) reused by every call;
* the per-block beta coefficients of the rounding-error bound, so each
  detection fills its threshold buffer with one in-place multiply;
* the simulated makespan of the detection task graph, charged with a
  single :meth:`~repro.machine.ExecutionMeter.advance` per call that
  passes a meter (a call without one records it on the result).

After the first call the steady-state loop performs **no new array
allocations** (the tracemalloc regression test pins this).  A CSR plan's
products are bit-identical to :meth:`repro.sparse.csr.CsrMatrix.matvec`
for any shard count and backend, and its first check flags exactly the
blocks :meth:`repro.core.detector.BlockAbftDetector.detect` flags.

Multi-shard hook-free multiplies detect *fused*: each shard task
executes its SpMV, operand checksum, result checksum and invariant
comparison in one unit.  *Where* those tasks run is delegated to a
registered execution backend (:mod:`repro.perf.backends`): ``"serial"``
in the calling thread or ``"threads"`` on the shared thread pool.  Fault
campaigns (a tamper hook) always detect sequentially — the hook-call
sequence is part of the contract.  Every flagged block, on every
backend and format, is repaired in the calling process by
:meth:`repro.core.protected.FaultTolerantSpMV._correction_rounds`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple, Union

import numpy as np

import repro.core.protected as protected
from repro.core.blocking import BlockPartition
from repro.core.detector import DetectionReport
from repro.errors import ConfigurationError, ShapeMismatchError
from repro.machine import ExecutionMeter
from repro.obs import Telemetry
from repro.perf.backends import (
    PlanBackend,
    default_shard_count,
    make_backend,
    resolve_backend_name,
)
from repro.perf.sharding import shard_blocks
from repro.sparse.csr import CsrMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from repro.core.corrector import TamperHook
    from repro.core.protected import FaultTolerantSpMV
    from repro.schemes.result import ProtectedSpmvResult
    from repro.sparse.bsr import BsrMatrix
    from repro.sparse.formats import FormatMatrix

#: Per-check flag history of a multiply whose one check flagged nothing.
_CLEAN: Tuple[Tuple[int, ...], ...] = ((),)


class _SpmvShard:
    """Precomputed views and offsets for one contiguous row range."""

    __slots__ = (
        "row_start", "row_stop", "indices", "data", "workspace", "segment",
        "starts", "scatter", "reduced",
    )

    def __init__(
        self,
        row_start: int,
        row_stop: int,
        indices: np.ndarray,
        data: np.ndarray,
        workspace: np.ndarray,
        segment: np.ndarray,
        starts: np.ndarray,
        scatter: Optional[np.ndarray],
        reduced: Optional[np.ndarray],
    ) -> None:
        self.row_start = row_start
        self.row_stop = row_stop
        self.indices = indices
        self.data = data
        self.workspace = workspace
        self.segment = segment
        self.starts = starts
        self.scatter = scatter
        self.reduced = reduced


class _BsrShard:
    """Buffered replay of ``BsrMatrix._block_rows_matvec`` for one row range.

    The shard covers the block rows spanning ``[row_start, row_stop)``;
    when a cut falls inside a block row, neighbouring shards recompute the
    shared tiles but each writes only its own rows — every buffer below is
    shard-private, so shards stay thread-safe.  Ops and their order match
    the allocating pipeline exactly (gather, ``einsum`` into ``prod``,
    per-block-row ``reduceat``), which is what keeps planned BSR execution
    bit-identical to :meth:`repro.sparse.bsr.BsrMatrix.matvec`.
    """

    __slots__ = (
        "segment", "bview", "offset", "n_rows", "indices", "data", "tiles",
        "prod", "out2d", "starts", "scatter", "reduced",
    )

    def __init__(
        self,
        storage: "BsrMatrix",
        r0: int,
        r1: int,
        segment: np.ndarray,
        bview: np.ndarray,
    ) -> None:
        br, bc = storage.block_shape
        b0, b1 = r0 // br, -(-r1 // br)
        lo, hi = int(storage.indptr[b0]), int(storage.indptr[b1])
        dtype = storage.data.dtype
        self.segment = segment
        self.bview = bview
        self.offset = r0 - b0 * br
        self.n_rows = r1 - r0
        self.indices = storage.indices[lo:hi]
        self.data = storage.data[lo:hi]
        self.tiles = np.empty((hi - lo, bc), dtype=dtype)
        self.prod = np.empty((hi - lo, br), dtype=dtype)
        self.out2d = np.zeros((b1 - b0, br), dtype=dtype)
        local_ptr = storage.indptr[b0 : b1 + 1] - lo
        nonempty = np.diff(local_ptr) > 0
        if bool(nonempty.all()):
            self.starts = local_ptr[:-1].astype(np.int64)
            self.scatter = None
            self.reduced = None
        else:
            self.scatter = np.flatnonzero(nonempty).astype(np.int64)
            self.starts = local_ptr[:-1][nonempty].astype(np.int64)
            self.reduced = np.empty((self.scatter.size, br), dtype=dtype)

    def execute(self) -> None:
        """Read the plan's staged operand ``bview`` (the padded operand
        reshaped ``(n_block_cols, bc)``) and write :attr:`segment`."""
        if self.indices.size == 0:
            self.segment[:] = 0.0
            return
        np.take(self.bview, self.indices, axis=0, out=self.tiles, mode="clip")
        np.einsum("nij,nj->ni", self.data, self.tiles, out=self.prod)
        if self.scatter is None:
            # reprolint: disable=ABFT002 -- same per-block-row reduceat
            # order as BsrMatrix._block_rows_matvec (the bit contract)
            np.add.reduceat(self.prod, self.starts, axis=0, out=self.out2d)
        else:
            # Empty block rows keep their construction-time zeros.
            # reprolint: disable=ABFT002 -- same reduction, scatter variant
            np.add.reduceat(self.prod, self.starts, axis=0, out=self.reduced)
            self.out2d[self.scatter] = self.reduced
        self.segment[:] = self.out2d.reshape(-1)[
            self.offset : self.offset + self.n_rows
        ]


class SpmvPlan:
    """A reusable, sharded SpMV schedule for one CSR matrix.

    The plan owns its result buffer (:attr:`out`, length ``n_rows``) and
    an nnz-sized product workspace; :meth:`execute` overwrites and
    returns :attr:`out`, so the value is only valid until the next call.
    Results are bit-identical to :meth:`repro.sparse.csr.CsrMatrix.matvec`
    for any shard count: shards are contiguous row spans, and every row's
    left-to-right segment reduction is unchanged.

    Args:
        matrix: the CSR matrix to plan for.
        n_shards: requested shard count; ignored when ``row_cuts`` given.
        row_cuts: explicit strictly increasing shard boundaries
            ``[0, ..., n_rows]`` (e.g. block-aligned cuts); ``None``
            derives nnz-balanced cuts from the matrix.
        storage: optional BSR storage (:class:`~repro.sparse.bsr.BsrMatrix`)
            of the *same* logical matrix; shards then execute the tile
            pipeline (with shard-private scratch) and results are
            bit-identical to ``BsrMatrix.matvec`` instead of CSR's.
            Callers must invoke :meth:`prepare_operand` before
            :meth:`execute_shard` (``execute`` does it internally).
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        n_shards: int = 1,
        row_cuts: Optional[np.ndarray] = None,
        storage: Optional["FormatMatrix"] = None,
    ) -> None:
        from repro.perf.sharding import shard_rows

        if row_cuts is None:
            row_cuts = shard_rows(matrix.indptr, n_shards)
        else:
            row_cuts = np.asarray(row_cuts, dtype=np.int64)
            if (
                row_cuts.ndim != 1
                or row_cuts.size < 1
                or row_cuts[0] != 0
                or row_cuts[-1] != matrix.n_rows
                or np.any(np.diff(row_cuts) <= 0)
            ):
                raise ConfigurationError(
                    "row_cuts must be strictly increasing, start at 0 and "
                    f"end at n_rows={matrix.n_rows}; got {row_cuts!r}"
                )
        self.matrix = matrix
        self.row_cuts = row_cuts
        # Working buffers live in the matrix's storage dtype, so a float32
        # plan multiplies in float32 exactly like ``CsrMatrix.matvec``.
        self.dtype = matrix.data.dtype
        self.out = np.empty(matrix.n_rows, dtype=self.dtype)
        if storage is not None and getattr(storage, "format_name", "csr") == "csr":
            storage = None
        self.storage = storage
        self.sparse_format: str = (
            "csr" if storage is None else storage.format_name
        )
        self._padded: Optional[np.ndarray] = None
        self.workspace: Optional[np.ndarray] = None
        self._shards: List[Union[_SpmvShard, _BsrShard]] = []
        if storage is None:
            self.workspace = np.empty(matrix.nnz, dtype=self.dtype)
            self._build_csr_shards(row_cuts)
            return
        if storage.shape != matrix.shape:
            raise ConfigurationError(
                f"storage shape {storage.shape} does not match matrix "
                f"shape {matrix.shape}"
            )
        if self.sparse_format != "bsr":
            raise ConfigurationError(
                f"unsupported plan storage format {self.sparse_format!r}"
            )
        bc = storage.block_shape[1]
        self._padded = np.zeros(storage.n_block_cols * bc, dtype=storage.data.dtype)
        bview = self._padded.reshape(storage.n_block_cols, bc)
        self._shards = [
            _BsrShard(
                storage,
                int(row_cuts[i]),
                int(row_cuts[i + 1]),
                self.out[row_cuts[i] : row_cuts[i + 1]],
                bview,
            )
            for i in range(row_cuts.size - 1)
        ]

    def _build_csr_shards(self, row_cuts: np.ndarray) -> None:
        matrix = self.matrix
        assert self.workspace is not None
        self._shards = []
        indptr = matrix.indptr
        lengths = matrix.row_lengths()
        for i in range(row_cuts.size - 1):
            r0, r1 = int(row_cuts[i]), int(row_cuts[i + 1])
            lo, hi = int(indptr[r0]), int(indptr[r1])
            nonempty = lengths[r0:r1] > 0
            scatter: Optional[np.ndarray]
            reduced: Optional[np.ndarray]
            if bool(nonempty.all()):
                starts = (indptr[r0:r1] - lo).astype(np.int64)
                scatter = None
                reduced = None
            else:
                scatter = np.flatnonzero(nonempty).astype(np.int64)
                starts = (indptr[r0:r1][nonempty] - lo).astype(np.int64)
                reduced = np.empty(scatter.size, dtype=self.dtype)
            self._shards.append(
                _SpmvShard(
                    row_start=r0,
                    row_stop=r1,
                    indices=matrix.indices[lo:hi],
                    data=matrix.data[lo:hi],
                    workspace=self.workspace[lo:hi],
                    segment=self.out[r0:r1],
                    starts=starts,
                    scatter=scatter,
                    reduced=reduced,
                )
            )

    @property
    def n_shards(self) -> int:
        """Effective shard count (may be below the requested count)."""
        return len(self._shards)

    def execute(self, b: np.ndarray) -> np.ndarray:
        """Run all shards sequentially; overwrite and return :attr:`out`."""
        b = self.prepare_operand(b)
        for i in range(len(self._shards)):
            self.execute_shard(i, b)
        return self.out

    def check_operand(self, b: np.ndarray) -> np.ndarray:
        """Validate ``b`` once (``execute_shard`` skips validation)."""
        b = np.asarray(b, dtype=self.dtype)
        if b.shape != (self.matrix.n_cols,):
            raise ShapeMismatchError(
                f"operand has shape {b.shape}, expected ({self.matrix.n_cols},)"
            )
        return b

    def prepare_operand(self, b: np.ndarray) -> np.ndarray:
        """Validate ``b`` and stage any format-level operand state.

        For BSR storage this copies ``b`` into the plan's zero-padded
        operand buffer (the tail was zeroed at construction and padding
        never shrinks, so one copy per multiply suffices); shards then
        only *read* it, keeping the fan-out thread-safe.  A no-op beyond
        validation for CSR.
        """
        b = self.check_operand(b)
        if self._padded is not None:
            self._padded[: self.matrix.n_cols] = b
        return b

    def execute_shard(self, i: int, b: np.ndarray) -> None:
        """Compute result rows of shard ``i`` into the shared :attr:`out`.

        ``b`` must already have passed :meth:`prepare_operand` for this
        multiply; thread-safe across distinct shards — every buffer a
        shard touches is owned by that shard.
        """
        shard = self._shards[i]
        if isinstance(shard, _BsrShard):
            shard.execute()
            return
        ws = shard.workspace
        # mode="clip" writes the gather straight into the workspace; the
        # default mode buffers a temporary (indices are pre-validated).
        b.take(shard.indices, out=ws, mode="clip")
        np.multiply(ws, shard.data, out=ws)
        if shard.scatter is None:
            np.add.reduceat(ws, shard.starts, out=shard.segment)
        else:
            shard.segment[:] = 0.0
            if shard.starts.size:
                np.add.reduceat(ws, shard.starts, out=shard.reduced)
                shard.segment[shard.scatter] = shard.reduced


class FusedShardBuffers:
    """State and math of the fused per-shard pipeline.

    Everything a fused detect task touches lives here, allocated once
    at plan build.  The methods preserve the exact op sequence of the
    sequential protected multiply — the cross-backend bit-identity
    contract depends on that order, so treat any change here as a
    numerics change.
    """

    __slots__ = (
        "weights", "spmv", "checksum_spmv", "checksum_operand", "t2", "t2_workspace",
        "syndrome", "thresholds", "exceeded", "abs", "finite", "t2_starts",
        "shard_rows", "shard_blocks",
    )

    def __init__(
        self,
        matrix: CsrMatrix,
        checksum_matrix: CsrMatrix,
        partition: BlockPartition,
        weights: np.ndarray,
        block_cuts: np.ndarray,
        storage: Optional["FormatMatrix"] = None,
    ) -> None:
        n_blocks = partition.n_blocks
        block_starts = partition.block_starts()
        self.weights = weights
        # Non-CSR storage keeps its scratch shard-private inside SpmvPlan;
        # the flat nnz workspace is a CSR-only buffer.  The checksum
        # multiply below always stays CSR regardless of storage.  Working
        # buffers (result + product scratch) follow the matrix storage
        # dtype; every checksum-side buffer stays in the accumulation
        # dtype (the checksum matrix is always encoded float64).
        accumulation = checksum_matrix.data.dtype
        self.spmv = SpmvPlan(
            matrix, row_cuts=block_starts[block_cuts], storage=storage
        )
        self.checksum_spmv = SpmvPlan(checksum_matrix, row_cuts=block_cuts)
        # C b and beta read an accumulation-dtype operand.  A narrower
        # storage dtype gets it staged once per multiply
        # (:meth:`stage_operand`).
        self.checksum_operand: Optional[np.ndarray] = (
            np.empty(matrix.n_cols, dtype=accumulation)
            if matrix.data.dtype != accumulation
            else None
        )
        self.t2 = np.empty(n_blocks, dtype=np.float64)
        self.t2_workspace = np.empty(matrix.n_rows, dtype=np.float64)
        self.syndrome = np.empty(n_blocks, dtype=np.float64)
        self.thresholds = np.empty(n_blocks, dtype=np.float64)
        self.exceeded = np.empty(n_blocks, dtype=bool)
        self.abs = np.empty(n_blocks, dtype=np.float64)
        self.finite = np.empty(n_blocks, dtype=bool)

        # Per-shard t2 reduceat offsets (blocks never span shards).
        self.t2_starts: List[np.ndarray] = []
        self.shard_rows: List[Tuple[int, int]] = []
        self.shard_blocks: List[Tuple[int, int]] = []
        for i in range(block_cuts.size - 1):
            c0, c1 = int(block_cuts[i]), int(block_cuts[i + 1])
            r0, r1 = int(block_starts[c0]), int(block_starts[c1])
            self.shard_blocks.append((c0, c1))
            self.shard_rows.append((r0, r1))
            self.t2_starts.append((block_starts[c0:c1] - r0).astype(np.int64))

    @property
    def n_shards(self) -> int:
        return len(self.shard_blocks)

    def compare_range(self, c0: int, c1: int) -> None:
        """Fused invariant comparison over blocks ``[c0, c1)``.

        Elementwise-identical to
        :meth:`repro.kernels.vectorized.VectorizedKernels.compare_syndromes`
        (subtract, abs-greater, non-finite flag) on the t1/t2 buffers,
        writing the syndrome/exceeded buffers instead of allocating.  The
        caller holds ``np.errstate(invalid="ignore", over="ignore")``, so
        a corrupted checksum overflows silently.
        """
        syndrome = self.syndrome[c0:c1]
        exceeded = self.exceeded[c0:c1]
        magnitude = self.abs[c0:c1]
        finite = self.finite[c0:c1]
        np.subtract(self.checksum_spmv.out[c0:c1], self.t2[c0:c1], out=syndrome)
        np.abs(syndrome, out=magnitude)
        np.greater(magnitude, self.thresholds[c0:c1], out=exceeded)
        np.isfinite(syndrome, out=finite)
        # finite <= exceeded is (not finite) or exceeded on booleans.
        np.less_equal(finite, exceeded, out=exceeded)

    def stage_operand(self, b: np.ndarray) -> np.ndarray:
        """The accumulation-dtype operand C b and beta read.

        A narrower storage dtype widens ``b`` into
        :attr:`checksum_operand` (exact, so C b sees the values
        ``checksum_spmv.execute`` would widen on its own); otherwise ``b``
        is returned as is.
        """
        staged = self.checksum_operand
        if staged is None:
            return b
        np.copyto(staged, b)
        return staged

    def detect_shard(self, i: int, b: np.ndarray) -> None:
        """One fused task: shard SpMV + t1 + t2 + comparison.

        ``b`` must already be staged (:meth:`stage_operand`).
        """
        self.spmv.execute_shard(i, b)
        staged = self.checksum_operand
        self.checksum_spmv.execute_shard(i, b if staged is None else staged)
        c0, c1 = self.shard_blocks[i]
        r0, r1 = self.shard_rows[i]
        with np.errstate(invalid="ignore", over="ignore"):
            ws = self.t2_workspace[r0:r1]
            r = self.spmv.out[r0:r1]
            if r.dtype != ws.dtype:
                # Same widening as the vectorized kernel's t2.
                np.copyto(ws, r)
                r = ws
            np.multiply(self.weights[r0:r1], r, out=ws)
            # reprolint: disable=ABFT002 -- same per-block reduceat order
            # as the vectorized kernels; shards align to block starts
            np.add.reduceat(ws, self.t2_starts[i], out=self.t2[c0:c1])
            self.compare_range(c0, c1)


class ProtectedPlan:
    """A planned, bufferized protected multiply bound to one operator.

    Construction precomputes block-aligned shard cuts, an
    :class:`SpmvPlan` each for ``A`` and the checksum matrix ``C``, all
    detection buffers, the bound's beta coefficients and the simulated
    detection-graph makespan.  :meth:`multiply` then runs Figure 1 —
    SpMV, detection, correction rounds — without per-call array
    allocation.

    The returned :class:`~repro.schemes.ProtectedSpmvResult` holds a view
    of the plan's result buffer: it is valid until the next call on the
    same plan (iterative solvers consume the product immediately).

    Args:
        operator: the :class:`~repro.core.protected.FaultTolerantSpMV`
            to plan for.
        n_shards: requested shard count (block-aligned; the effective
            count can be lower on tiny matrices).  ``None`` takes
            :func:`~repro.perf.backends.default_shard_count` of the
            resolved backend: 1 for ``"serial"``, the worker count for
            ``"threads"``.
        parallel: explicit backend name (``"serial"``, ``"threads"`` or
            a registered extension), overriding both ``REPRO_PARALLEL``
            and ``AbftConfig.parallel``.  ``None`` resolves via
            :func:`repro.perf.backends.resolve_backend_name`.
        sparse_format: explicit storage format for the planned multiply
            (``"csr"``, ``"bsr"`` or ``"auto"``), overriding
            both ``REPRO_FORMAT`` and ``AbftConfig.sparse_format``.
            ``None`` resolves via
            :func:`repro.sparse.formats.resolve_format_name`.  The chosen
            format, the request that led to it and the heuristic ratios
            are recorded in :attr:`format_choice` and emitted as a
            ``plan.format`` telemetry span.  Detection always compares
            against the CSR-encoded checksum matrix; non-CSR results
            agree with CSR within the scheme's own rounding-error bounds
            (summation association differs), and every correction round
            recomputes flagged blocks with the CSR kernels — still
            within bounds, re-verified against the same thresholds.
    """

    def __init__(
        self,
        operator: "FaultTolerantSpMV",
        n_shards: Optional[int] = None,
        parallel: Optional[str] = None,
        sparse_format: Optional[str] = None,
    ) -> None:
        from repro.sparse.formats import resolve_format_name, select_format

        self.backend_name = resolve_backend_name(
            getattr(operator.config, "parallel", None), explicit=parallel
        )
        if n_shards is None:
            n_shards = default_shard_count(self.backend_name)
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        detector = operator.detector
        matrix = detector.matrix
        partition = detector.partition
        n_blocks = partition.n_blocks
        self.operator = operator
        self.n_shards = n_shards
        # The resolved policy keys the operator's plan cache: a plan built
        # for one precision contract is never reused under another.
        self.dtype_policy = detector.dtype_policy

        block_starts = partition.block_starts()
        self.block_cuts = shard_blocks(matrix.indptr, block_starts, n_shards)

        requested = resolve_format_name(
            getattr(operator.config, "sparse_format", None),
            explicit=sparse_format,
        )
        self.format_choice, built = select_format(matrix, requested)
        storage: Optional["FormatMatrix"] = (
            built if self.format_choice.format != "csr" else None
        )
        self.sparse_format = self.format_choice.format

        self.backend: PlanBackend = make_backend(self.backend_name, self)

        self._fused = FusedShardBuffers(
            matrix,
            detector.checksum.matrix,
            partition,
            detector.checksum.weights,
            self.block_cuts,
            storage=storage,
        )
        # Emitted only when format machinery is in play: a CSR plan's
        # telemetry stream carries protocol events only.
        telemetry = detector.telemetry
        if telemetry.enabled and requested != "csr":
            choice = self.format_choice
            with telemetry.span(
                "plan.format",
                format=choice.format,
                requested=choice.requested,
                reason=choice.reason,
                fill_ratio=float(choice.fill_ratio),
            ):
                pass
        self.spmv = self._fused.spmv
        self.checksum_spmv = self._fused.checksum_spmv
        self._shard_rows = self._fused.shard_rows
        self._t2 = self._fused.t2
        self._t2_workspace = self._fused.t2_workspace
        self._syndrome = self._fused.syndrome
        self._thresholds = self._fused.thresholds
        self._exceeded = self._fused.exceeded
        self._all_blocks = np.arange(n_blocks, dtype=np.int64)
        self._empty_blocks = np.empty(0, dtype=np.int64)
        self._beta_box = np.zeros(1, dtype=np.float64)

        # All analytic bounds are linear in beta; empirical bounds may not
        # expose coefficients, in which case thresholds are evaluated per
        # call (a small allocation, outside the zero-alloc guarantee).
        coefficients = getattr(detector.bound, "beta_coefficients", None)
        self._beta_coefficients: Optional[np.ndarray] = (
            np.asarray(coefficients(), dtype=np.float64)
            if callable(coefficients)
            else None
        )

        # The detection graph's simulated makespan/work never change for a
        # fixed machine; pre-simulating lets multiply charge one advance().
        graph = detector.detection_graph()
        self._machine = operator.machine
        self._detect_seconds = operator.machine.makespan(graph)
        self._detect_flops = graph.total_work()
        # Span attributes and the work each detection stage reports to a
        # tamper hook (result, t1, beta, t2).
        self._n_rows = matrix.n_rows
        self._nnz = matrix.nnz
        self._stage_work = (
            2.0 * matrix.nnz,
            2.0 * detector.checksum.nnz,
            2.0 * matrix.n_cols,
            2.0 * matrix.n_rows,
        )

    # ------------------------------------------------------------------
    # Protected multiply
    # ------------------------------------------------------------------
    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional["TamperHook"] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> "ProtectedSpmvResult":
        """Execute one fault-tolerant SpMV (Figure 1, steps 1-5).

        Args:
            b: operand vector.
            tamper: optional fault hook ``tamper(stage, data, work)`` called
                after each numeric stage with stages ``"result"``, ``"t1"``,
                ``"beta"``, ``"t2"``, ``"corrected"``; campaigns corrupt the
                passed arrays in place.  A hook forces sequential detection
                even on a multi-shard plan.
            meter: execution meter to charge.  Without one, no meter is
                charged and the result records the pre-simulated cost, the
                same values a fresh meter would yield.

        A multiply that flags no block runs only its kernels.  The
        detection report is built only while
        :attr:`~repro.core.detector.BlockAbftDetector.watched` is true, and
        the flag tuples and correction rounds only for a flagged block.
        The result's ``value`` is the plan's reusable buffer — consume it
        before the next call.
        """
        operator = self.operator
        detector = operator.detector
        telemetry = detector.telemetry
        b = self.spmv.check_operand(b)
        if meter is None and operator.machine is not self._machine:
            meter = ExecutionMeter(machine=operator.machine)
        start_seconds, start_flops = meter.snapshot() if meter is not None else (0.0, 0.0)
        fused = (
            tamper is None
            and self.backend.parallel_active
            and self.spmv.n_shards > 1
        )

        with telemetry.span("abft.multiply", rows=self._n_rows, nnz=self._nnz):
            if meter is not None:
                self._charge_detection(meter)
            with telemetry.span("abft.detect"):
                if fused:
                    beta, syndrome, exceeded = self._detect_fused(b, telemetry)
                else:
                    beta, syndrome, exceeded = self._detect(b, tamper, telemetry)
                flagged = (
                    self._all_blocks[exceeded]
                    if np.count_nonzero(exceeded)
                    else self._empty_blocks
                )
                if detector.watched:
                    report = DetectionReport(
                        flagged=flagged,
                        syndrome=syndrome,
                        thresholds=self._thresholds,
                        blocks=self._all_blocks,
                        beta=beta,
                    )
                    detector.record(report, exceeded)

            detected: Tuple[Tuple[int, ...], ...] = _CLEAN
            corrected_blocks: Tuple[int, ...] = ()
            rounds = 0
            exhausted = False
            if flagged.size:
                if meter is None:
                    meter = ExecutionMeter(machine=self._machine)
                    self._charge_detection(meter)
                corrected: Set[int] = set()
                history = [tuple(flagged.tolist())]
                rounds, exhausted = operator._correction_rounds(
                    b, self.spmv.out, self.checksum_spmv.out, beta, flagged,
                    tamper, meter, detected=history, corrected=corrected,
                )
                detected = tuple(history)
                corrected_blocks = tuple(sorted(corrected))

        if meter is None:
            seconds, flops = self._detect_seconds, self._detect_flops
        else:
            end_seconds, end_flops = meter.snapshot()
            seconds, flops = end_seconds - start_seconds, end_flops - start_flops
        return protected.block_result(
            detector.partition,
            value=self.spmv.out,
            detected=detected,
            corrected_blocks=corrected_blocks,
            rounds=rounds,
            seconds=seconds,
            flops=flops,
            exhausted=exhausted,
        )

    # ------------------------------------------------------------------
    # Detection internals
    # ------------------------------------------------------------------
    def _charge_detection(self, meter: ExecutionMeter) -> None:
        """Charge one detection phase: the pre-simulated cost on the
        plan's machine, the detection graph on any other."""
        if meter.machine is self._machine:
            meter.advance(self._detect_seconds, self._detect_flops)
        else:
            meter.run_graph(self.operator.detector.detection_graph())

    # The one errstate of a multiply: corrupted values overflow silently
    # through every detection stage (the decorator form is the cheap one).
    @np.errstate(invalid="ignore", over="ignore")
    def _detect(
        self, b: np.ndarray, tamper: Optional["TamperHook"], telemetry: Telemetry
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Sequential detection (Figure 1, steps 1-4) into the plan's
        buffers, calling the hook after each stage; returns ``(beta,
        syndrome, exceeded)``."""
        detector = self.operator.detector
        r = self.spmv.execute(b)
        if tamper is not None:
            tamper("result", r, self._stage_work[0])
        staged = self._fused.stage_operand(b)
        t1 = self.checksum_spmv.execute(staged)
        if tamper is not None:
            tamper("t1", t1, self._stage_work[1])
        beta = detector.operand_norm(staged)
        if tamper is not None:
            self._beta_box[0] = beta
            tamper("beta", self._beta_box, self._stage_work[2])
            beta = float(self._beta_box[0])
        t2 = detector.checksum.result_checksums(
            r, out=self._t2, workspace=self._t2_workspace
        )
        if tamper is not None:
            tamper("t2", t2, self._stage_work[3])
        syndrome, exceeded = self._compare(t1, t2, beta, telemetry)
        return beta, syndrome, exceeded

    @np.errstate(invalid="ignore", over="ignore")
    def _detect_fused(
        self, b: np.ndarray, telemetry: Telemetry
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Fused detection: beta and the thresholds here, then one task
        per shard (SpMV, C b, t2 and comparison) on the backend."""
        self.spmv.prepare_operand(b)
        staged = self._fused.stage_operand(b)
        beta = self.operator.detector.operand_norm(staged)
        self._fill_thresholds(beta)
        self.backend.run_detect(b, telemetry)
        return beta, self._syndrome, self._exceeded

    def _fill_thresholds(self, beta: float) -> None:
        """``thresholds <- coefficients * beta`` (bit-identical to
        ``bound.thresholds(beta, all_blocks)``; see
        :meth:`repro.core.bounds.SparseBlockBound.beta_coefficients`).
        Runs under the detection errstate."""
        if self._beta_coefficients is not None:
            np.multiply(self._beta_coefficients, beta, out=self._thresholds)
        else:
            self._thresholds[:] = self.operator.detector.bound.thresholds(
                beta, self._all_blocks
            )

    def _compare(
        self, t1: np.ndarray, t2: np.ndarray, beta: float, telemetry: Telemetry
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full-detection comparison; returns ``(syndrome, exceeded)``.

        With telemetry enabled the comparison dispatches through the
        operator's kernel set so per-kernel timing events keep flowing;
        the buffered fused comparison (identical values) runs otherwise.
        """
        self._fill_thresholds(beta)
        if telemetry.enabled:
            return self.operator.detector.kernels.compare_syndromes(
                t1, t2, self._thresholds
            )
        self._fused.compare_range(0, self._all_blocks.size)
        return self._syndrome, self._exceeded

    def _detect_shard(self, i: int, b: np.ndarray, telemetry: Telemetry) -> None:
        """One worker's fused task: shard SpMV + t1 + t2 + comparison."""
        with telemetry.span("plan.shard", shard=i):
            self._fused.detect_shard(i, b)
