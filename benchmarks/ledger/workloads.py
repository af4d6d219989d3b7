"""The four closed-loop workloads.

Each workload owns its fixed matrices, the seeded inputs of one run, a
frozen plain baseline per matrix, and the library calls a user makes:
``build`` is one setup (operator, plus plan where the workload plans) and
``protected`` is one timed op.  Ops go round-robin over the matrices, one
caller, no threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter_ns
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.solvers.ft_pcg as ft_pcg
from repro.core.config import AbftConfig
from repro.core.protected import FaultTolerantSpMV
from repro.faults.bitflip import Burst
from repro.machine import ExecutionMeter, Machine
from repro.schemes import make_scheme
from repro.sparse.suite import QUICK_SUITE, SUITE_SPECS

from benchmarks.ledger import inputs
from benchmarks.ledger.reference import (
    PlainSpmv,
    jacobi_inverse,
    plain_pcg,
    reference_product,
    violations,
)
from benchmarks.ledger.spans import TAMPER, Tracer

#: The matrices of the paper's PCG case study (Figure 8).
PCG_MATRICES = ("nos3", "bcsstk21", "bcsstk11", "ex3")


@dataclass(frozen=True)
class Outcome:
    """Verdict on one protected op.

    ``failed``: an exception, an exhausted correction budget, a result
    outside the rounding bound, or (PCG) an unsuccessful solve.
    ``wrong``: the result is out of bound and was not reported as such.
    """

    failed: bool
    wrong: bool


def describe(label: str, matrix, operator: FaultTolerantSpMV, plan) -> Dict[str, object]:
    """What the library resolved for one matrix after setup."""
    return {
        "matrix": label,
        "n": matrix.n_rows,
        "nnz": matrix.nnz,
        "storage_dtype": str(matrix.dtype),
        "kernel": operator.detector.kernels.name,
        "format": plan.sparse_format if plan is not None else "csr (unplanned)",
        "dtype": operator.dtype_policy.name,
        "backend": plan.backend_name if plan is not None else "none (unplanned)",
        "scheme": operator.name,
        "checksum_nnz_ratio": operator.detector.checksum.sparsity_gain,
    }


class SpmvWorkload:
    """Protected SpMV on a fixed matrix set against :class:`PlainSpmv`."""

    name = ""
    why = ""
    config = AbftConfig()
    planned = False

    def __init__(self, seed: int) -> None:
        self.labels, self.matrices = zip(*self.load())
        self.size = len(self.matrices)
        stream_id = list(WORKLOADS).index(self.name)
        self.streams = [inputs.stream(seed, stream_id, i) for i in range(self.size)]
        self.operands = [
            inputs.operands(rng, matrix.n_cols, matrix.dtype)
            for rng, matrix in zip(self.streams, self.matrices)
        ]
        self.plain = [PlainSpmv(m.indptr, m.indices, m.data) for m in self.matrices]
        # Checking against a reference computed here keeps the loop's time
        # on the measured ops.
        self.expected = [
            [reference_product(m.indptr, m.indices, m.data, b) for b in pool]
            for m, pool in zip(self.matrices, self.operands)
        ]
        self.targets: List[object] = [None] * self.size
        self._plain_seconds: Dict[int, float] = {}

    def load(self) -> List[Tuple[str, object]]:
        raise NotImplementedError

    def operand(self, i: int, k: int) -> np.ndarray:
        return self.operands[i][k % inputs.OPERAND_POOL]

    def operator(self, i: int) -> FaultTolerantSpMV:
        target = self.targets[i]
        return target.operator if self.planned else target

    def build(self, i: int) -> object:
        operator = FaultTolerantSpMV(self.matrices[i], config=self.config)
        return operator.planned() if self.planned else operator

    def baseline(self, i: int, k: int) -> None:
        self.plain[i](self.operand(i, k))

    def protected(self, i: int, k: int, tracer: Optional[Tracer]) -> Tuple[object, int]:
        """One protected op; returns the result and nanoseconds to exclude."""
        return self.targets[i].multiply(self.operand(i, k)), 0

    def check(self, i: int, k: int, result) -> Outcome:
        ref, tolerance = self.expected[i][k % inputs.OPERAND_POOL]
        bad = violations(result.value, ref, tolerance) > 0
        return Outcome(failed=bad or result.exhausted, wrong=bad and not result.exhausted)

    def simulated_overhead(self, i: int, result) -> float:
        """The cost model's protected ÷ plain seconds for this op."""
        if i not in self._plain_seconds:
            operator = self.operator(i)
            meter = ExecutionMeter(machine=operator.machine)
            operator.plain_multiply(self.operand(i, 0), meter=meter)
            self._plain_seconds[i] = meter.seconds
        return result.seconds / self._plain_seconds[i]

    def resolved(self, i: int) -> Dict[str, object]:
        plan = self.targets[i] if self.planned else None
        return describe(self.labels[i], self.matrices[i], self.operator(i), plan)


class Suite(SpmvWorkload):
    name = "suite"
    why = (
        "Figure 5's 25 Table I matrices through the one-shot unplanned multiply, "
        "dispatch-bound (16k nnz) to bandwidth-bound (1.3M nnz)"
    )

    def load(self) -> List[Tuple[str, object]]:
        return [(s.name, inputs.suite_matrix(s.name)) for s in SUITE_SPECS]


class FemF32(SpmvWorkload):
    name = "fem_f32"
    why = (
        "planned float32 multiply with auto format on FEM tiles: the only workload "
        "where BSR selection and the float32 policy do the work"
    )
    config = AbftConfig(sparse_format="auto", dtype="float32")
    planned = True

    def load(self) -> List[Tuple[str, object]]:
        return [
            ("fem_6000x8", inputs.fem_matrix(6000, 8)),
            ("fem_3000x16", inputs.fem_matrix(3000, 16)),
        ]


class _FaultHook:
    """Tamper hook injecting one op's planned faults; times itself."""

    __slots__ = ("faults", "row", "magnitude", "block_u", "burst", "tracer", "elapsed")

    def __init__(self, row, magnitude, stage, block_u, burst, tracer) -> None:
        self.faults = {"result", stage} if stage else {"result"}
        self.row = row
        self.magnitude = magnitude
        self.block_u = block_u
        self.burst = burst
        self.tracer = tracer
        self.elapsed = 0

    def __call__(self, stage: str, data: np.ndarray, work: float) -> None:
        start = perf_counter_ns()
        if self.tracer is None:
            self._inject(stage, data)
        else:
            with self.tracer.span(TAMPER):
                self._inject(stage, data)
        self.elapsed += perf_counter_ns() - start

    def _inject(self, stage: str, data: np.ndarray) -> None:
        # Only the first call of each planned stage is hit: later calls
        # with the same stage name are re-verification arrays.
        if stage not in self.faults:
            return
        self.faults.discard(stage)
        if stage == "result":
            index = self.row
            data[index] += self.magnitude
        else:
            index = int(self.block_u * data.size)
            data[index] = self.burst.apply(float(data[index]))
        if self.tracer is not None:
            self.tracer.note_injection(stage, index, data.size)


class Faults(SpmvWorkload):
    name = "faults"
    why = (
        "Figure 6's campaign: a visible result error in every multiply and a "
        "t1/t2 burst in half of them, so correction and re-verification write"
    )
    planned = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plans = [
            inputs.fault_plan(rng, matrix.n_rows)
            for rng, matrix in zip(self.streams, self.matrices)
        ]
        self.norms = [np.linalg.norm(pool, axis=1) for pool in self.operands]

    def load(self) -> List[Tuple[str, object]]:
        return [(name, inputs.suite_matrix(name)) for name in QUICK_SUITE]

    def protected(self, i: int, k: int, tracer: Optional[Tracer]) -> Tuple[object, int]:
        plan = self.plans[i]
        j = k % inputs.PLAN_POOL
        stage = ("", "t1", "t2")[int(plan.stage[j])]
        hook = _FaultHook(
            row=int(plan.row[j]),
            magnitude=10.0 * float(self.norms[i][k % inputs.OPERAND_POOL])
            * (1.0 + float(plan.magnitude_u[j])),
            stage=stage,
            block_u=float(plan.block_u[j]),
            burst=Burst(int(plan.position[j]), int(plan.width[j])),
            tracer=tracer,
        )
        result = self.targets[i].multiply(self.operand(i, k), tamper=hook)
        return result, hook.elapsed


class Pcg:
    """Whole protected PCG solves against :func:`plain_pcg`."""

    name = "pcg"
    why = (
        "Figure 8's solver at error rate 1e-7, setup included: many short dependent "
        "multiplies, bound by setup, dispatch and solver glue"
    )
    options = ft_pcg.FtPcgOptions()
    # A solve fails only when two faults meet in one multiply (a corrupted
    # beta hiding a result error), so failures scale with the rate squared:
    # about 1 solve in 8,000 failed at 1e-6, which no run may show.
    error_rate = 1e-7

    def __init__(self, seed: int) -> None:
        self.labels = PCG_MATRICES
        self.matrices = [inputs.suite_matrix(name) for name in PCG_MATRICES]
        self.size = len(self.matrices)
        stream_id = list(WORKLOADS).index(self.name)
        self.rhs = []
        self.seeds = []
        for i, matrix in enumerate(self.matrices):
            rng = inputs.stream(seed, stream_id, i)
            self.rhs.append(matrix.matvec(rng.standard_normal(matrix.n_rows)))
            self.seeds.append(inputs.solver_seeds(rng))
        self.plain = [PlainSpmv(m.indptr, m.indices, m.data) for m in self.matrices]
        self.inverse_diag = [jacobi_inverse(m.indptr, m.indices, m.data) for m in self.matrices]
        self.config = AbftConfig(
            block_size=self.options.block_size,
            max_correction_rounds=self.options.max_correction_rounds,
            kernel=self.options.kernel,
            sparse_format=self.options.sparse_format,
        )
        self.targets: List[object] = [None] * self.size
        self._plain_seconds: Dict[int, float] = {}

    def seed(self, i: int, k: int) -> int:
        return int(self.seeds[i][k % inputs.PLAN_POOL])

    def build(self, i: int) -> object:
        # The operator and plan ``run_pcg`` builds at the start of a solve.
        operator = make_scheme("abft", self.matrices[i], config=self.config, machine=Machine())
        return operator.planned()

    def baseline(self, i: int, k: int) -> None:
        plain_pcg(
            self.plain[i], self.inverse_diag[i], self.rhs[i], self.seed(i, k),
            self.options.tol,
            self.options.max_iteration_factor * self.matrices[i].n_rows,
        )

    def protected(self, i: int, k: int, tracer: Optional[Tracer]) -> Tuple[object, int]:
        # Looked up on the module so a traced run sees the wrapped solver.
        result = ft_pcg.run_pcg(
            self.matrices[i], self.rhs[i], scheme="abft",
            error_rate=self.error_rate, seed=self.seed(i, k),
        )
        return result, 0

    def check(self, i: int, k: int, result) -> Outcome:
        if not result.correct:
            return Outcome(failed=True, wrong=False)
        b = self.rhs[i]
        residual = float(np.linalg.norm(b - self.plain[i](result.x))) / float(np.linalg.norm(b))
        wrong = not residual < 10 * self.options.tol
        return Outcome(failed=wrong, wrong=wrong)

    def simulated_overhead(self, i: int, result) -> float:
        if i not in self._plain_seconds:
            self._plain_seconds[i] = ft_pcg.run_pcg(
                self.matrices[i], self.rhs[i], scheme="unprotected", seed=self.seed(i, 0)
            ).seconds
        return result.seconds / self._plain_seconds[i]

    def resolved(self, i: int) -> Dict[str, object]:
        plan = self.targets[i]
        return describe(self.labels[i], self.matrices[i], plan.operator, plan)


#: Workload name -> class, in run order (the order also picks the seed stream).
WORKLOADS = {cls.name: cls for cls in (Suite, FemF32, Faults, Pcg)}
