"""True-multicore plan backend: a persistent shared-memory worker pool.

The ``"threads"`` backend cannot beat the GIL: the per-shard fan-out is
Python-level, so only the NumPy inner loops overlap.  This backend runs
one OS *process* per shard instead.  At plan construction the parent
builds every buffer the fused pipeline touches — the CSR triplets of
``A`` and the checksum matrix, the weight vector, the operand slot, all
output/scratch arrays and a small result ring — into one
:class:`~repro.perf.shm.Arena`.  Workers attach lazily on the first
above-cutoff multiply, rebuild the identical
:class:`~repro.perf.plan.FusedShardBuffers` over zero-copy views, and
then serve ``detect`` commands over a pipe; the only per-multiply
traffic is the operand copy (parent side) and a few control bytes.
Flagged blocks are corrected by the parent, directly in the arena's
result buffer.

Correctness and failure semantics:

* **bit-identity** — workers run the very same
  :meth:`~repro.perf.plan.FusedShardBuffers.detect_shard` code over the
  very same bytes, so results match the serial path bit for bit (the
  cross-backend differential matrix pins this);
* **publication** — a worker bumps its slot in the shared ``ring`` to
  the command generation *after* writing its output slices and before
  acking; the parent cross-checks the ring so a stale ack can never pass
  for a fresh result;
* **failure** — a dead worker surfaces as
  :class:`~repro.errors.WorkerCrashError`, a silent one as
  :class:`~repro.errors.WorkerTimeoutError` (never a hang), and an
  in-worker exception as :class:`~repro.errors.ParallelBackendError`
  carrying the remote traceback.  After a crash/timeout the pool is
  reaped and respawned lazily on the next multiply; the arena stays
  mapped (plan buffers alias it) until :meth:`ProcessBackend.close`
  or the atexit sweep unlinks it.

Telemetry crosses the process border as registry *deltas*: when the
parent's telemetry is enabled, each command carries an observe flag, the
worker records a real ``plan.shard`` span and a
``kernel.detect_shard.seconds`` timing into a local
:class:`~repro.obs.pipeline.WorkerRecorder`, and the ``ok`` ack
piggybacks the delta (counter increments, histogram bucket
deltas) back over the result pipe.  The parent merges the deltas in
ascending worker order after the barrier — never in wall-clock answer
order — so merged aggregates and event streams stay deterministic.  A
crashed or timed out worker loses at most its in-flight delta (nothing
already merged is recounted), and a respawned worker starts from a fresh
baseline.  Per-shard wall times additionally live in the arena's
``shard_seconds`` field for diagnostics
(:meth:`ProcessBackend.last_shard_seconds`).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.blocking import BlockPartition
from repro.errors import (
    ConfigurationError,
    ParallelBackendError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.obs.instruments import DEFAULT_TIME_BUCKETS
from repro.perf.backends import PlanBackend
from repro.perf.shm import Arena, ArenaLayout
from repro.sparse.csr import CsrMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (annotations only)
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

    from repro.obs import Telemetry
    from repro.obs.pipeline import WorkerRecorder
    from repro.perf.plan import ProtectedPlan

#: Environment variable selecting the multiprocessing start method.
START_METHOD_ENV_VAR = "REPRO_PROCESS_START"

#: Environment variable overriding the per-command worker timeout (seconds).
TIMEOUT_ENV_VAR = "REPRO_PROCESS_TIMEOUT"

#: Default per-command timeout: generous, because it only bounds *hangs* —
#: healthy workers answer in milliseconds.
DEFAULT_TIMEOUT = 60.0

#: Below this much work (``nnz(A) + n_rows + nnz(C)``) process fan-out
#: costs more than it saves and the backend stays dormant (serial path).
DEFAULT_SERIAL_CUTOFF = 1 << 15

_POLL_INTERVAL = 0.02


def default_start_method() -> str:
    """``fork`` where available (fast, inherits the arena fd), else spawn.

    Overridable via :data:`START_METHOD_ENV_VAR` for debugging spawn
    semantics on fork platforms.
    """
    methods = multiprocessing.get_all_start_methods()
    env = os.environ.get(START_METHOD_ENV_VAR)
    if env:
        if env not in methods:
            raise ConfigurationError(
                f"{START_METHOD_ENV_VAR}={env!r} is not a supported start "
                f"method; expected one of {tuple(methods)}"
            )
        return env
    return "fork" if "fork" in methods else "spawn"


def default_timeout() -> float:
    """Per-command timeout in seconds (:data:`TIMEOUT_ENV_VAR` override)."""
    env = os.environ.get(TIMEOUT_ENV_VAR)
    if env is None:
        return DEFAULT_TIMEOUT
    try:
        value = float(env)
    except ValueError:
        raise ConfigurationError(
            f"{TIMEOUT_ENV_VAR}={env!r} is not a valid timeout in seconds"
        ) from None
    if not value > 0:
        raise ConfigurationError(
            f"{TIMEOUT_ENV_VAR} must be positive, got {value!r}"
        )
    return value


# ----------------------------------------------------------------------
# Shared layout + worker-side reconstruction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to rebuild the plan state (picklable)."""

    layout: ArenaLayout
    shape: Tuple[int, int]
    checksum_shape: Tuple[int, int]
    block_size: int
    block_cuts: np.ndarray
    n_shards: int


def plan_arena_layout(
    matrix: CsrMatrix, checksum: CsrMatrix, n_blocks: int, n_shards: int
) -> ArenaLayout:
    """Declare the one-arena layout for a plan over ``matrix``.

    Field names match the ``alloc`` names used by
    :class:`~repro.perf.plan.FusedShardBuffers`, plus the static CSR
    triplets, the operand slot ``b``, the result ring and the per-shard
    wall-clock diagnostics.  Working fields (matrix data, operand,
    result, product scratch) are sized by the matrix storage dtype —
    a float32 plan's arena is roughly half the float64 footprint —
    while every checksum-side field stays in the accumulation dtype,
    including the widened operand copy ``b_checksum`` a narrow plan
    stages for C b and beta.
    """
    working = str(matrix.data.dtype)
    accumulation = str(checksum.data.dtype)
    fields: List[Tuple[str, Tuple[int, ...], str]] = [
        ("a_indptr", (matrix.n_rows + 1,), "int64"),
        ("a_indices", (matrix.nnz,), "int64"),
        ("a_data", (matrix.nnz,), working),
        ("c_indptr", (checksum.n_rows + 1,), "int64"),
        ("c_indices", (checksum.nnz,), "int64"),
        ("c_data", (checksum.nnz,), accumulation),
        ("weights", (matrix.n_rows,), "float64"),
        ("b", (matrix.n_cols,), working),
        ("r", (matrix.n_rows,), working),
        ("r_workspace", (matrix.nnz,), working),
        ("t1", (n_blocks,), "float64"),
        ("c_workspace", (checksum.nnz,), "float64"),
        ("t2", (n_blocks,), "float64"),
        ("t2_workspace", (matrix.n_rows,), "float64"),
        ("syndrome", (n_blocks,), "float64"),
        ("thresholds", (n_blocks,), "float64"),
        ("exceeded", (n_blocks,), "bool"),
        ("ring", (n_shards,), "int64"),
        ("shard_seconds", (n_shards,), "float64"),
    ]
    if working != accumulation:
        fields.append(("b_checksum", (matrix.n_cols,), accumulation))
    return ArenaLayout.build(fields)


def _arena_alloc(arena: Arena):  # type: ignore[no-untyped-def]
    """``alloc`` hook resolving plan buffers to arena views."""

    def alloc(name: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
        view = arena.array(name)
        if view.shape != tuple(shape) or view.dtype != np.dtype(dtype):
            raise ConfigurationError(
                f"arena field {name!r} is {view.dtype}{view.shape}, "
                f"plan expects {dtype}{tuple(shape)}"
            )
        return view

    return alloc


def _fused_from_arena(arena: Arena, spec: WorkerSpec):  # type: ignore[no-untyped-def]
    """Rebuild the plan's :class:`FusedShardBuffers` over arena views.

    ``np.ascontiguousarray`` inside :class:`CsrMatrix` is a no-op on the
    already-conforming views, so the reconstruction is zero-copy.
    """
    from repro.perf.plan import FusedShardBuffers

    matrix = CsrMatrix(
        spec.shape,
        arena.array("a_indptr"),
        arena.array("a_indices"),
        arena.array("a_data"),
    )
    checksum = CsrMatrix(
        spec.checksum_shape,
        arena.array("c_indptr"),
        arena.array("c_indices"),
        arena.array("c_data"),
    )
    partition = BlockPartition(n_rows=spec.shape[0], block_size=spec.block_size)
    return FusedShardBuffers(
        matrix,
        checksum,
        partition,
        arena.array("weights"),
        np.asarray(spec.block_cuts, dtype=np.int64),
        alloc=_arena_alloc(arena),
    )


def _worker_main(worker_id: int, conn: "Connection", arena_name: str, spec: WorkerSpec) -> None:
    """Worker loop: attach, rebuild, then serve commands until ``stop``.

    Outputs go to the worker's disjoint arena slices; the ring slot is
    bumped to the command generation *before* the ack so the parent can
    verify publication.  Exceptions are marshalled back as tracebacks —
    the loop survives them, keeping the pool healthy.

    When a command's observe flag is set, a lazily created
    :class:`~repro.obs.pipeline.WorkerRecorder` records a real
    ``plan.shard`` span; the registry delta since the previous ack rides
    back as the third ack element (``None`` when telemetry is off or
    nothing was recorded).
    """
    arena = Arena.attach(arena_name, spec.layout)
    recorder: Optional["WorkerRecorder"] = None
    try:
        fused = _fused_from_arena(arena, spec)
        b = arena.array("b")
        ring = arena.array("ring")
        shard_seconds = arena.array("shard_seconds")
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = str(message[0])
            if op == "stop":
                break
            generation = int(message[1])
            try:
                if op != "detect":
                    raise ConfigurationError(f"unknown worker command {op!r}")
                want_obs = bool(message[-1])
                if want_obs and recorder is None:
                    from repro.obs.pipeline import WorkerRecorder

                    recorder = WorkerRecorder()
                started = time.perf_counter()
                if want_obs and recorder is not None:
                    with recorder.telemetry.span("plan.shard", shard=worker_id):
                        fused.detect_shard(worker_id, b)
                else:
                    fused.detect_shard(worker_id, b)
                elapsed = time.perf_counter() - started
                shard_seconds[worker_id] = elapsed
                delta = None
                if want_obs and recorder is not None:
                    telemetry = recorder.telemetry
                    if telemetry.enabled:
                        telemetry.observe(
                            "kernel.detect_shard.seconds",
                            elapsed,
                            buckets=DEFAULT_TIME_BUCKETS,
                            shard=worker_id,
                        )
                    delta = recorder.delta()
                ring[worker_id] = generation
                conn.send(("ok", generation, delta))
            # reprolint: disable=ABFT005 -- marshalled across the process
            # border; the parent re-raises it as ParallelBackendError
            except BaseException:
                conn.send(("error", generation, traceback.format_exc()))
    finally:
        conn.close()
        arena.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------
class _Worker:
    __slots__ = ("process", "conn")

    def __init__(self, process: "BaseProcess", conn: "Connection") -> None:
        self.process = process
        self.conn = conn


class ProcessPool:
    """One pipe-connected worker process per shard, bound to one arena."""

    def __init__(
        self,
        context: "BaseContext",
        arena: Arena,
        spec: WorkerSpec,
        timeout: float,
    ) -> None:
        self._context = context
        self._arena = arena
        self._spec = spec
        self._timeout = timeout
        self.workers: List[_Worker] = []

    def start(self) -> None:
        for worker_id in range(self._spec.n_shards):
            parent_conn, child_conn = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_worker_main,
                args=(worker_id, child_conn, self._arena.name, self._spec),
                name=f"repro-shard-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self.workers.append(_Worker(process, parent_conn))

    @property
    def alive(self) -> bool:
        return bool(self.workers) and all(
            worker.process.is_alive() for worker in self.workers
        )

    def dispatch(
        self, generation: int, commands: Dict[int, Tuple[object, ...]]
    ) -> Dict[int, object]:
        """Send one command per targeted worker; gather all acks.

        Each ack yields the worker's telemetry delta (``None`` when
        telemetry is off).  Raises the typed
        :class:`~repro.errors.ParallelBackendError` family on remote
        exceptions, dead workers or timeouts.  The caller is responsible
        for reaping the pool afterwards.
        """
        op = "command"
        for worker_id, command in commands.items():
            op = str(command[0])
            try:
                self.workers[worker_id].conn.send(command)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrashError(
                    f"worker {worker_id} is gone before {op!r} could be sent: {exc}"
                ) from None
        deadline = time.monotonic() + self._timeout
        return {
            worker_id: self._collect(worker_id, generation, op, deadline)
            for worker_id in sorted(commands)
        }

    def _collect(
        self, worker_id: int, generation: int, op: str, deadline: float
    ) -> object:
        worker = self.workers[worker_id]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise WorkerTimeoutError(
                    f"worker {worker_id} did not answer {op!r} within "
                    f"{self._timeout:.1f}s"
                )
            try:
                ready = worker.conn.poll(min(_POLL_INTERVAL, remaining))
            except (EOFError, OSError):
                ready = False
            if ready:
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError) as exc:
                    raise WorkerCrashError(
                        f"worker {worker_id} died mid-answer during {op!r}: {exc}"
                    ) from None
                break
            if not worker.process.is_alive():
                raise WorkerCrashError(
                    f"worker {worker_id} (pid {worker.process.pid}) died during "
                    f"{op!r} (exitcode {worker.process.exitcode})"
                )
        if message[0] == "error":
            # The worker loop survives its own exceptions; the pool is
            # still healthy, so this is a plain ParallelBackendError.
            raise ParallelBackendError(
                f"worker {worker_id} raised during {op!r}:\n{message[2]}"
            )
        if message[0] != "ok" or int(message[1]) != generation or len(message) != 3:
            # Protocol corruption — treat like a crash so the pool is
            # retired rather than trusted with the next command.
            raise WorkerCrashError(
                f"worker {worker_id} answered out of sequence during {op!r}: "
                f"expected generation {generation}, got {message[:2]!r}"
            )
        return message[2]

    def stop(self, grace: float = 2.0) -> None:
        """Best-effort graceful shutdown, then terminate stragglers."""
        for worker in self.workers:
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + grace
        for worker in self.workers:
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=grace)
            if worker.process.is_alive():  # pragma: no cover - last resort
                worker.process.kill()
                worker.process.join(timeout=grace)
            worker.conn.close()
            # Close the Process object's own pipe fds promptly.
            close = getattr(worker.process, "close", None)
            if close is not None:
                try:
                    close()
                except ValueError:  # pragma: no cover - still shutting down
                    pass
        self.workers = []


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
_LIVE_BACKENDS: "weakref.WeakSet[ProcessBackend]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _register_for_atexit(backend: "ProcessBackend") -> None:
    global _ATEXIT_REGISTERED
    _LIVE_BACKENDS.add(backend)
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_all_process_backends)
        _ATEXIT_REGISTERED = True


def shutdown_all_process_backends() -> None:
    """Close every live process backend (worker pools + arenas).

    Runs automatically at interpreter exit; callable from tests that
    must assert no SharedMemory segment outlives its plan.
    """
    for backend in list(_LIVE_BACKENDS):
        backend.close()


class ProcessBackend(PlanBackend):
    """Plan backend executing fused shard detection on worker processes.

    Args:
        plan: the owning :class:`~repro.perf.plan.ProtectedPlan`.
        timeout: per-command answer deadline in seconds
            (default :func:`default_timeout`).
        serial_cutoff: minimum plan work (``nnz(A) + n_rows + nnz(C)``)
            before processes engage; below it the backend stays dormant
            and the plan runs the sequential path on heap buffers.  Pass
            ``0`` to force engagement (tests, benchmarks).
        start_method: multiprocessing start method (default
            :func:`default_start_method`).

    Workers are spawned lazily on the first parallel multiply and
    respawned after a crash; :meth:`close` (or the atexit sweep) retires
    the pool and unlinks the shared-memory arena.
    """

    name = "processes"

    def __init__(
        self,
        plan: "ProtectedPlan",
        timeout: Optional[float] = None,
        serial_cutoff: Optional[int] = None,
        start_method: Optional[str] = None,
    ) -> None:
        super().__init__(plan)
        if timeout is None:
            timeout = default_timeout()
        elif not float(timeout) > 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout!r}")
        if serial_cutoff is None:
            serial_cutoff = DEFAULT_SERIAL_CUTOFF
        elif int(serial_cutoff) < 0:
            raise ConfigurationError(
                f"serial_cutoff must be >= 0, got {serial_cutoff!r}"
            )
        self._timeout = float(timeout)
        self._serial_cutoff = int(serial_cutoff)
        if start_method is None:
            start_method = default_start_method()
        elif start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"start_method {start_method!r} is not supported here; expected "
                f"one of {tuple(multiprocessing.get_all_start_methods())}"
            )
        self._start_method = start_method

        detector = plan.operator.detector
        matrix = detector.matrix
        checksum = detector.checksum.matrix
        n_shards = int(plan.block_cuts.size - 1)
        work = matrix.nnz + matrix.n_rows + checksum.nnz
        self._active = n_shards > 1 and work >= self._serial_cutoff
        self._generation = 0
        self._closed = False
        self._pool: Optional[ProcessPool] = None
        self._arena: Optional[Arena] = None
        self._spec: Optional[WorkerSpec] = None
        if not self._active:
            return

        layout = plan_arena_layout(matrix, checksum, detector.partition.n_blocks, n_shards)
        self._arena = Arena.create(layout)
        np.copyto(self._arena.array("a_indptr"), matrix.indptr)
        np.copyto(self._arena.array("a_indices"), matrix.indices)
        np.copyto(self._arena.array("a_data"), matrix.data)
        np.copyto(self._arena.array("c_indptr"), checksum.indptr)
        np.copyto(self._arena.array("c_indices"), checksum.indices)
        np.copyto(self._arena.array("c_data"), checksum.data)
        np.copyto(self._arena.array("weights"), detector.checksum.weights)
        self._arena.array("ring")[:] = 0
        self._arena.array("shard_seconds")[:] = 0.0
        self._spec = WorkerSpec(
            layout=layout,
            shape=matrix.shape,
            checksum_shape=checksum.shape,
            block_size=detector.partition.block_size,
            block_cuts=np.asarray(plan.block_cuts, dtype=np.int64),
            n_shards=n_shards,
        )
        _register_for_atexit(self)

    # ------------------------------------------------------------------
    # PlanBackend interface
    # ------------------------------------------------------------------
    @property
    def parallel_active(self) -> bool:
        return self._active and not self._closed

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def arena_name(self) -> Optional[str]:
        """SharedMemory segment name (``None`` when dormant or closed)."""
        if self._arena is None or self._arena.closed:
            return None
        return self._arena.name

    def alloc(self, name: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
        if self._arena is None:
            return super().alloc(name, shape, dtype)
        return _arena_alloc(self._arena)(name, shape, dtype)

    def run_detect(self, b: np.ndarray, telemetry: "Telemetry") -> None:
        assert self._arena is not None and self._spec is not None
        pool = self._ensure_pool()
        np.copyto(self._arena.array("b"), b)
        generation = self._next_generation()
        want_obs = telemetry.enabled
        commands: Dict[int, Tuple[object, ...]] = {
            worker_id: ("detect", generation, want_obs)
            for worker_id in range(self._spec.n_shards)
        }
        replies = self._dispatch(pool, generation, commands)
        self._merge_worker_deltas(telemetry, replies)

    def close(self) -> None:
        """Stop workers and unlink the arena.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._active = False
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
        if self._arena is not None:
            self._arena.close()
        _LIVE_BACKENDS.discard(self)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def last_shard_seconds(self) -> np.ndarray:
        """Per-shard wall-clock of the last command (copy; diagnostics)."""
        if self._arena is None or self._arena.closed:
            raise ParallelBackendError("no live arena to read shard timings from")
        return self._arena.array("shard_seconds").copy()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_generation(self) -> int:
        self._generation += 1
        return self._generation

    def _ensure_pool(self) -> ProcessPool:
        if self._closed:
            raise ParallelBackendError("process backend is closed")
        assert self._arena is not None and self._spec is not None
        if self._pool is not None and not self._pool.alive:
            # A silent respawn would hide the fault; surface it once and
            # let the *next* multiply rebuild the pool.
            self._reap()
            raise WorkerCrashError(
                "a pool worker died since the last command; the pool has "
                "been retired and will respawn on the next multiply"
            )
        if self._pool is None:
            pool = ProcessPool(
                multiprocessing.get_context(self._start_method),
                self._arena,
                self._spec,
                self._timeout,
            )
            pool.start()
            self._pool = pool
        return self._pool

    def _merge_worker_deltas(
        self, telemetry: "Telemetry", replies: Dict[int, object]
    ) -> None:
        """Fold piggybacked worker deltas into the parent telemetry.

        Always in ascending worker id — never pipe-answer order — so the
        merged registry and the emitted ``delta`` events are identical
        run to run for a seeded workload.
        """
        if not telemetry.enabled:
            return
        from repro.obs.pipeline import RegistryDelta, merge_delta

        for worker_id in sorted(replies):
            delta: Optional[RegistryDelta] = replies[worker_id]  # type: ignore[assignment]
            merge_delta(telemetry, worker_id, delta)

    def _dispatch(
        self,
        pool: ProcessPool,
        generation: int,
        commands: Dict[int, Tuple[object, ...]],
    ) -> Dict[int, object]:
        try:
            replies = pool.dispatch(generation, commands)
        except (WorkerCrashError, WorkerTimeoutError):
            # Dead or untrustworthy pool: retire it (lazy respawn later).
            # A marshalled in-worker exception is NOT reaped — the worker
            # loop survived it and the pool stays healthy.
            self._reap()
            raise
        assert self._arena is not None
        ring = self._arena.array("ring")
        for worker_id in commands:
            if int(ring[worker_id]) != generation:
                self._reap()
                raise ParallelBackendError(
                    f"worker {worker_id} acked generation {generation} without "
                    f"publishing it (ring={int(ring[worker_id])})"
                )
        return replies

    def _reap(self) -> None:
        """Tear down a broken pool; the arena survives for respawn."""
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
