"""Fault-tolerant PCG drivers — the paper's Section VI case study.

One PCG loop, differing only in how the SpMV ``q = A p`` is protected.
The scheme is selected by name through the :mod:`repro.schemes` table
(any built-in scheme works, e.g. ``"abft"`` — the proposed block-ABFT
SpMV of the paper — ``"bisection"``, or ``"checkpoint"``, whose detections
roll the solver back to the last snapshot taken every 20 iterations into
reliable storage), plus two solver-level cases:

* ``"unprotected"`` — plain SpMV; errors propagate freely.

One extension scheme goes beyond the paper:

* ``"hybrid"`` — the proposed ABFT multiply backed by checkpoints: partial
  recomputation handles everything correctable, and only an *uncorrectable*
  multiply (correction rounds exhausted) triggers a rollback.  This
  composes the paper's scheme with classic rollback as a safety net.

Error injection follows the paper: an exponential process with rate λ per
arithmetic operation drives bit-flip bursts into SpMV result elements *and*
into the operations of the detection mechanisms themselves.  Runtime is
simulated machine time; success means converging to a *correct* solution
within ``10 * N`` executed iterations.  The solver-update kernels cost
the same every iteration, so their task graph is scheduled once per
solve and its makespan charged per iteration; the ``"unprotected"`` SpMV
is charged as one kernel running alone.  Every solve is preconditioned
with Jacobi, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.baselines.checkpoint import DEFAULT_CHECKPOINT_INTERVAL, CheckpointStore
from repro.core.config import AbftConfig
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.process import ErrorProcess
from repro.kernels.base import DEFAULT_KERNEL
from repro.machine import (
    ExecutionMeter,
    Machine,
    TaskGraph,
    axpy_cost,
    dot_cost,
    norm_cost,
    spmv_cost,
)
from repro.obs import resolve_telemetry
from repro.schemes import BUILTIN_SCHEMES, canonical_scheme_name, make_scheme
from repro.solvers.pcg import DEFAULT_TOLERANCE, MAX_ITERATION_FACTOR
from repro.solvers.preconditioners import JacobiPreconditioner
from repro.sparse.csr import CsrMatrix
from repro.sparse.formats import FORMAT_SELECTOR

#: Solver-level cases handled here rather than by a scheme of the table.
SOLVER_SCHEMES = ("unprotected", "hybrid")

#: Scheme identifiers accepted by :func:`run_pcg`.
SCHEMES = SOLVER_SCHEMES + BUILTIN_SCHEMES


@dataclass(frozen=True)
class FtPcgOptions:
    """Case-study parameters (defaults follow the paper's Section VI)."""

    tol: float = DEFAULT_TOLERANCE
    max_iteration_factor: int = MAX_ITERATION_FACTOR
    checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL
    block_size: int = 32
    max_correction_rounds: int = 8
    #: Kernel-set name; ``"vectorized"``, the library's one set, is the
    #: only value accepted.
    kernel: str = DEFAULT_KERNEL
    #: Storage format for the planned protected multiply ("csr", "bsr" or
    #: "auto"); None keeps the CSR default.  Resolution follows
    #: :func:`repro.sparse.formats.resolve_format_name` (REPRO_FORMAT
    #: overrides configured names).
    sparse_format: Optional[str] = None

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ConfigurationError(f"tol must be positive, got {self.tol}")
        if self.max_iteration_factor < 1:
            raise ConfigurationError(
                f"max_iteration_factor must be >= 1, got {self.max_iteration_factor}"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError(
                f"checkpoint_interval must be >= 1, got {self.checkpoint_interval}"
            )
        if self.kernel != DEFAULT_KERNEL:
            raise ConfigurationError(
                f"FtPcgOptions.kernel must be {DEFAULT_KERNEL!r}, got {self.kernel!r}"
            )
        FORMAT_SELECTOR.check(self.sparse_format, "FtPcgOptions")


@dataclass(frozen=True)
class FtPcgResult:
    """Outcome of one fault-injected PCG execution.

    Attributes:
        x: final iterate.
        iterations: iterations *executed* (rolled-back work included).
        converged: residual criterion met within the cap.
        correct: converged *and* the recomputed true residual confirms the
            solution (the paper's success criterion).
        residual_norm: true relative residual of the returned iterate.
        seconds / flops: simulated cost of the whole solve.
        injections: errors injected by the process.
        detections: multiplies in which the scheme flagged an error.
        corrections: correction actions (block/range recomputations or
            full recomputes).
        rollbacks: checkpoint restorations (checkpoint scheme only).
        checkpoint_saves: snapshots taken (checkpoint scheme only).
    """

    x: np.ndarray
    iterations: int
    converged: bool
    correct: bool
    residual_norm: float
    seconds: float
    flops: float
    injections: int
    detections: int
    corrections: int
    rollbacks: int
    checkpoint_saves: int


class _PcgState:
    """Mutable solver state, snapshot-able for checkpoint/rollback."""

    __slots__ = ("x", "r", "p", "rz")

    def __init__(self, x: np.ndarray, r: np.ndarray, p: np.ndarray, rz: float) -> None:
        self.x, self.r, self.p, self.rz = x, r, p, rz


def run_pcg(
    matrix: CsrMatrix,
    b: np.ndarray,
    scheme: str = "abft",
    error_rate: float = 0.0,
    seed: int = 0,
    machine: Optional[Machine] = None,
    options: Optional[FtPcgOptions] = None,
    telemetry: object = None,
) -> FtPcgResult:
    """Execute one (possibly fault-injected) PCG solve.

    Args:
        matrix: SPD system matrix.
        b: right-hand side.
        scheme: one of :data:`SCHEMES`.
        error_rate: λ, errors per arithmetic operation (0 = fault-free).
        seed: seeds both the injector and the random initial guess (the
            paper uses a random ``x0``).
        machine: simulated device.
        options: case-study parameters.
        telemetry: :mod:`repro.obs` selection — a Telemetry instance or
            exporter name (``REPRO_OBS`` env override applies to names;
            default off).  The solve is traced as a ``pcg.solve`` span
            with one ``pcg.iteration`` span per executed iteration, and
            the injector/protected-multiply share the same stream.

    Returns:
        The :class:`FtPcgResult` of the run.
    """
    if scheme not in SOLVER_SCHEMES:
        canonical_scheme_name(scheme)  # rejects unknown names up front
    options = options or FtPcgOptions()
    machine = machine or Machine()
    meter = ExecutionMeter(machine=machine)
    n = matrix.n_rows
    telemetry = resolve_telemetry(telemetry)

    injector = FaultInjector.seeded(seed, telemetry=telemetry)
    process = ErrorProcess(error_rate, injector.rng)

    def tamper(stage: str, data: np.ndarray, work: float) -> None:
        for _ in range(process.events_in(work)):
            if data.size:
                injector.corrupt_random_element(data, target=stage)

    preconditioner = JacobiPreconditioner(matrix)
    max_iterations = options.max_iteration_factor * n

    # Protected multiply, per scheme.  Each returns
    # (q, detected_flag, unrecoverable_flag, corrections_performed).
    detections = 0
    corrections = 0
    scheme_store: Optional[CheckpointStore] = None
    config = AbftConfig(
        block_size=options.block_size,
        max_correction_rounds=options.max_correction_rounds,
        sparse_format=options.sparse_format,
    )
    if scheme in ("abft", "hybrid"):
        operator = make_scheme(
            "abft", matrix, config=config, machine=machine, telemetry=telemetry
        )
        # The loop re-executes the same protected multiply every iteration:
        # the planned path reuses shard schedules and buffers instead of
        # reallocating per call.  A fault-free run passes no tamper hook at
        # all (the hook would be a no-op), which also lets the threads
        # backend run its fused multi-shard pipeline.
        plan = operator.planned()
        tamper_hook = tamper if error_rate > 0 else None

        def multiply(p_vec: np.ndarray) -> tuple[np.ndarray, bool, bool, int]:
            result = plan.multiply(p_vec, tamper=tamper_hook, meter=meter)
            return result.value, not result.clean, result.exhausted, int(
                result.rounds > 0
            )

    elif scheme == "unprotected":
        plain_cost = spmv_cost(matrix.nnz, int(matrix.row_lengths().max(initial=1)))

        def multiply(p_vec: np.ndarray) -> tuple[np.ndarray, bool, bool, int]:
            meter.run_kernel(plain_cost)
            q = matrix.matvec(p_vec)
            tamper("result", q, plain_cost.work)
            return q, False, False, 0

    else:  # any scheme of the table (checkpoint, bisection, dense_check, ...)
        scheme_obj = make_scheme(
            scheme, matrix, config=config, machine=machine, telemetry=telemetry
        )
        # The checkpoint scheme carries the snapshot store the solver rolls
        # back to; schemes that correct in place have none.
        scheme_store = getattr(scheme_obj, "store", None)

        def multiply(p_vec: np.ndarray) -> tuple[np.ndarray, bool, bool, int]:
            result = scheme_obj.multiply(p_vec, tamper=tamper, meter=meter)
            return result.value, not result.clean, result.exhausted, int(
                result.rounds > 0
            )

    # --- initial state (random x0, per the paper) -----------------------
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)
    b_norm = float(np.linalg.norm(b))
    # reprolint: disable=ABFT003 -- exact-zero RHS guard (cf. plain PCG): the
    # fallback only replaces a norm that is identically zero
    if b_norm == 0.0:
        b_norm = 1.0

    # Corrupted values may reach the solver state (undetected errors); they
    # propagate silently under one errstate for the whole solve — the
    # iteration / success accounting handles them.
    with telemetry.span("pcg.solve", scheme=scheme, n=n, seed=seed), np.errstate(
        invalid="ignore", over="ignore", divide="ignore"
    ):
        with telemetry.span("pcg.setup"):
            q0, detected0, _, _ = multiply(x)
        detections += int(detected0)
        r = b - q0
        z = preconditioner.apply(r)
        p = z.copy()
        rz = float(np.dot(r, z))
        state = _PcgState(x, r, p, rz)

        store = CheckpointStore() if scheme == "hybrid" else scheme_store
        rollbacks = 0
        if store is not None:
            meter.run_kernel(store.save(0, {"x": x, "r": r, "p": p}, {"rz": rz}))

        update_graph = _iteration_update_costs(matrix, preconditioner)
        update_seconds = machine.makespan(update_graph)
        update_flops = update_graph.total_work()

        converged = False
        iterations = 0
        while iterations < max_iterations:
            iterations += 1
            with telemetry.span("pcg.iteration", i=iterations):
                if telemetry.enabled:
                    telemetry.count("pcg.iterations")
                q, detected, unrecoverable, corrected = multiply(state.p)
                detections += int(detected)
                corrections += corrected

                # Checkpoint: roll back on *any* detection (it cannot
                # correct).  Hybrid: roll back only when in-place
                # correction gave up.
                roll_back = unrecoverable if scheme == "hybrid" else detected
                if store is not None and roll_back:
                    # Discard the iteration, restore the snapshot.
                    _, arrays, scalars, cost = store.restore()
                    meter.run_kernel(cost)
                    state = _PcgState(
                        arrays["x"], arrays["r"], arrays["p"], scalars["rz"]
                    )
                    rollbacks += 1
                    if telemetry.enabled:
                        telemetry.count("pcg.rollbacks")
                    continue

                pq = float(np.dot(state.p, q))
                # reprolint: disable=ABFT003 -- CG breakdown guard: only
                # exactly zero curvature is fatal; noisy small pq still
                # iterates
                if pq == 0.0:
                    break  # exact breakdown
                alpha = state.rz / pq
                state.x = state.x + alpha * state.p
                state.r = state.r - alpha * q
                relative = float(np.linalg.norm(state.r)) / b_norm
                meter.advance(update_seconds, update_flops)
                if telemetry.enabled:
                    telemetry.gauge("pcg.residual_relative", relative, i=iterations)
                if relative < options.tol:
                    converged = True
                    break
                if not math.isfinite(relative):
                    # The state is poisoned (inf/NaN reached the
                    # iterate).  An unprotected run can never recover;
                    # protected runs only land here if an error evaded
                    # detection entirely.
                    break
                z = preconditioner.apply(state.r)
                rz_next = float(np.dot(state.r, z))
                beta = rz_next / state.rz
                state.p = z + beta * state.p
                state.rz = rz_next

                if store is not None and iterations % options.checkpoint_interval == 0:
                    meter.run_kernel(
                        store.save(
                            iterations,
                            {"x": state.x, "r": state.r, "p": state.p},
                            {"rz": state.rz},
                        )
                    )

    with np.errstate(invalid="ignore", over="ignore"):
        true_residual = float(np.linalg.norm(b - matrix.matvec(state.x))) / b_norm
    correct = converged and np.isfinite(true_residual) and true_residual < 10 * options.tol
    return FtPcgResult(
        x=state.x,
        iterations=iterations,
        converged=converged,
        correct=bool(correct),
        residual_norm=true_residual,
        seconds=meter.seconds,
        flops=meter.flops,
        injections=len(injector.log),
        detections=detections,
        corrections=corrections,
        rollbacks=rollbacks,
        checkpoint_saves=store.saves if store is not None else 0,
    )


def _iteration_update_costs(matrix: CsrMatrix, preconditioner) -> TaskGraph:
    """Per-iteration solver-update kernels (everything except the SpMV).

    Two inner products, the convergence-check norm, three AXPY-class
    updates and one preconditioner application.  These are charged but not
    corrupted — the paper injects into the SpMV and the detection
    operations.
    """
    n = matrix.n_rows
    graph = TaskGraph()
    pq = dot_cost(n)
    graph.add("pq", pq.work, pq.span)
    upd_x = axpy_cost(n)
    graph.add("update-x", upd_x.work, upd_x.span, deps=["pq"])
    upd_r = axpy_cost(n)
    graph.add("update-r", upd_r.work, upd_r.span, deps=["pq"])
    conv = norm_cost(n)
    graph.add("residual-norm", conv.work, conv.span, deps=["update-r"])
    prec = preconditioner.apply_cost
    graph.add("precondition", prec.work, prec.span, deps=["update-r"])
    rz = dot_cost(n)
    graph.add("rz", rz.work, rz.span, deps=["precondition"])
    upd_p = axpy_cost(n)
    graph.add("update-p", upd_p.work, upd_p.span, deps=["rz"])
    return graph
