"""Phase tracing from outside the library.

:class:`Tracer` wraps the public functions of each layer while installed
and records one span per call: name, start, end, parent span and op id,
kept in memory and dumped as JSON lines at the end of a run.  Nothing in
``src/`` changes; the wrappers are set on the library's classes and
modules and restored on exit.

Each phase is wrapped at exactly one level.  A call is recorded only when
its span name is an admitted child of the innermost open span (see
:data:`CHILDREN`); anything a phase calls internally is part of that
phase.  A span's self time is its duration minus its direct children's
durations, so within one protected multiply::

    sum(self time of its phases) + self time of the multiply (dispatch)
        == multiply duration - time in the benchmark's fault hook

holds exactly, in integer nanoseconds.
"""

from __future__ import annotations

import functools
import json
import statistics
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Phases of one protected multiply, each wrapped at one call site.
MULTIPLY_PHASES = (
    "sparse.spmv",
    "core.checksum_cb",
    "core.beta",
    "core.result_checksum",
    "core.compare",
    "core.correct",
    "core.recheck",
    "machine.meter",
    "schemes.result",
)
#: Setup phases: operator (checksum matrix + bound), plan, format choice.
BUILD_PHASES = ("core.build", "perf.plan_build", "formats.select")
#: The benchmark's own fault hook; its time is not the library's.
TAMPER = "bench.tamper"

#: Span name -> names recorded directly inside it (``None``: no open span).
CHILDREN: Dict[Optional[str], Tuple[str, ...]] = {
    None: ("perf.multiply", "solvers.pcg", "core.build", "perf.plan_build"),
    "solvers.pcg": (
        "perf.multiply", "core.build", "perf.plan_build", "solvers.precondition",
    ),
    "perf.plan_build": ("formats.select",),
    "perf.multiply": MULTIPLY_PHASES,
}


@dataclass(frozen=True)
class Span:
    """One recorded call; ``parent`` is an index into the same list or -1."""

    name: str
    start: int
    end: int
    parent: int
    op: int
    nbytes: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class MultiplyRecord:
    """What one traced protected multiply returned."""

    op: int
    span: int
    n_rows: int
    n_blocks: int
    block_size: int
    rounds: int
    first_flagged: Tuple[int, ...]
    any_detection: bool
    recomputed: int
    corrected_blocks: Tuple[int, ...]


@dataclass(frozen=True)
class InjectionRecord:
    """One injected error: stage, position and size of the array hit."""

    op: int
    multiply: int
    target: str
    index: int
    size: int


def self_times(spans: Sequence[Span]) -> List[int]:
    """Duration of each span minus the durations of its direct children."""
    selfs = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            selfs[span.parent] -= span.duration
    return selfs


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Records spans around the library's public calls while installed.

    ``op`` is set by the caller before each timed operation; spans opened
    outside any op (setup builds) carry op ``-1``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.multiplies: List[MultiplyRecord] = []
        self.injections: List[InjectionRecord] = []
        self.iterations: Dict[int, int] = {}
        self.op = -1
        self._open: List[Tuple[int, str, int, int]] = []  # (index, name, start, nbytes)
        self._multiply = -1
        self._checksum_plans: "weakref.WeakSet[object]" = weakref.WeakSet()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _admits(self, name: str) -> bool:
        parent = self._open[-1][1] if self._open else None
        if name == TAMPER:
            return parent is not None
        return name in CHILDREN.get(parent, ())

    def _begin(self, name: str, nbytes: int = 0) -> int:
        # The slot is reserved now so a parent's index precedes its
        # children's; it is filled when the span closes.
        index = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._open.append((index, name, perf_counter_ns(), nbytes))
        return index

    def _end(self) -> None:
        end = perf_counter_ns()
        index, name, start, nbytes = self._open.pop()
        parent = self._open[-1][0] if self._open else -1
        self.spans[index] = Span(name, start, end, parent, self.op, nbytes)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span from benchmark code (used for the fault hook)."""
        if not self._admits(name):
            yield
            return
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    def note_injection(self, target: str, index: int, size: int) -> None:
        """Record an error injected into an array of ``size`` elements."""
        self.injections.append(
            InjectionRecord(self.op, self._multiply, target, int(index), int(size))
        )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name_of: Callable[..., Tuple[str, int]]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, nbytes = name_of(*args, **kwargs)
            if not tracer._admits(name):
                return fn(*args, **kwargs)
            tracer._begin(name, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._end()

        return wrapper

    def _wrap_multiply(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(target, *args, **kwargs):
            if not tracer._admits("perf.multiply"):
                return fn(target, *args, **kwargs)
            outer = tracer._multiply
            index = tracer._begin("perf.multiply")
            tracer._multiply = index
            try:
                result = fn(target, *args, **kwargs)
            finally:
                tracer._end()
                tracer._multiply = outer
            detector = getattr(target, "operator", target).detector
            tracer.multiplies.append(
                MultiplyRecord(
                    op=tracer.op,
                    span=index,
                    n_rows=detector.matrix.n_rows,
                    n_blocks=detector.n_blocks,
                    block_size=detector.partition.block_size,
                    rounds=result.rounds,
                    first_flagged=tuple(result.detected_blocks[0]),
                    any_detection=any(result.detections),
                    recomputed=len(result.corrections),
                    corrected_blocks=tuple(result.corrected_blocks),
                )
            )
            return result

        return wrapper

    def _targets(self) -> List[Tuple[object, str, Callable]]:
        """``(owner, attribute, wrapper factory)`` for every traced call site."""
        import repro.core.protected as protected
        import repro.solvers.ft_pcg as ft_pcg
        import repro.sparse.formats as formats
        from repro.core.checksum import ChecksumMatrix
        from repro.core.detector import BlockAbftDetector
        from repro.faults.injector import FaultInjector
        from repro.machine import ExecutionMeter
        from repro.perf.plan import FusedShardBuffers, ProtectedPlan, SpmvPlan
        from repro.solvers.preconditioners import JacobiPreconditioner
        from repro.sparse.csr import CsrMatrix

        tracer = self

        def fixed(name: str) -> Callable[..., Tuple[str, int]]:
            return lambda *args, **kwargs: (name, 0)

        def operand_bytes(storage, n_rows: int, n_cols: int, itemsize: int) -> int:
            return (
                storage.data.nbytes + storage.indices.nbytes + storage.indptr.nbytes
                + (n_rows + n_cols) * itemsize
            )

        def csr_matvec(matrix, *args, **kwargs):
            return "sparse.spmv", operand_bytes(
                matrix, matrix.n_rows, matrix.n_cols, matrix.data.itemsize
            )

        def plan_execute(plan, *args, **kwargs):
            if plan in tracer._checksum_plans:
                return "core.checksum_cb", 0
            storage = plan.storage if plan.storage is not None else plan.matrix
            return "sparse.spmv", operand_bytes(
                storage, plan.matrix.n_rows, plan.matrix.n_cols, plan.dtype.itemsize
            )

        def compare(detector, t1, t2, beta, blocks=None):
            return ("core.compare" if blocks is None else "core.recheck"), 0

        def plan_init(fn: Callable) -> Callable:
            wrapped = self._wrap(fn, fixed("perf.plan_build"))

            @functools.wraps(fn)
            def init(plan, *args, **kwargs):
                wrapped(plan, *args, **kwargs)
                tracer._checksum_plans.add(plan.checksum_spmv)

            return init

        def run_pcg(fn: Callable) -> Callable:
            wrapped = self._wrap(fn, fixed("solvers.pcg"))

            @functools.wraps(fn)
            def solve(*args, **kwargs):
                result = wrapped(*args, **kwargs)
                tracer.iterations[tracer.op] = result.iterations
                return result

            return solve

        def corrupt_element(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def corrupt(injector, vector, index, target="result", sigma=None):
                record = fn(injector, vector, index, target=target, sigma=sigma)
                tracer.note_injection(target, index, vector.size)
                return record

            return corrupt

        def wrap(name: str) -> Callable[[Callable], Callable]:
            return lambda fn: self._wrap(fn, fixed(name))

        return [
            (protected.FaultTolerantSpMV, "multiply", self._wrap_multiply),
            (ProtectedPlan, "multiply", self._wrap_multiply),
            (ft_pcg, "run_pcg", run_pcg),
            (protected.FaultTolerantSpMV, "__init__", wrap("core.build")),
            (ProtectedPlan, "__init__", plan_init),
            (formats, "select_format", wrap("formats.select")),
            (CsrMatrix, "matvec", lambda fn: self._wrap(fn, csr_matvec)),
            (SpmvPlan, "execute", lambda fn: self._wrap(fn, plan_execute)),
            (ChecksumMatrix, "operand_checksums", wrap("core.checksum_cb")),
            (BlockAbftDetector, "operand_norm", wrap("core.beta")),
            (ChecksumMatrix, "result_checksums", wrap("core.result_checksum")),
            (BlockAbftDetector, "compare", lambda fn: self._wrap(fn, compare)),
            (FusedShardBuffers, "compare_range", wrap("core.compare")),
            (ChecksumMatrix, "result_checksums_for_blocks", wrap("core.recheck")),
            (protected, "correct_blocks", wrap("core.correct")),
            (ExecutionMeter, "run_graph", wrap("machine.meter")),
            (ExecutionMeter, "advance", wrap("machine.meter")),
            (protected, "block_result", wrap("schemes.result")),
            (JacobiPreconditioner, "apply", wrap("solvers.precondition")),
            (FaultInjector, "corrupt_element", corrupt_element),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper; restore the library's functions on exit."""
        saved = []
        try:
            for owner, attr, factory in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name, "start": span.start, "end": span.end,
                            "parent": span.parent, "op": span.op, "bytes": span.nbytes,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Per-op arithmetic
# ----------------------------------------------------------------------
def op_breakdown(spans: Sequence[Span]) -> Dict[int, Dict[str, int]]:
    """Per op: summed self time per span name, plus ``multiply_total``.

    ``multiply_total`` is the summed duration of the op's multiply spans
    minus the time spent in the benchmark's fault hook.
    """
    selfs = self_times(spans)
    per_op: Dict[int, Dict[str, int]] = {}
    for span, own in zip(spans, selfs):
        if span.op < 0:
            continue
        totals = per_op.setdefault(span.op, {})
        totals[span.name] = totals.get(span.name, 0) + own
        if span.name == "perf.multiply":
            totals["multiply_total"] = totals.get("multiply_total", 0) + span.duration
        elif span.name == TAMPER:
            totals["multiply_total"] = totals.get("multiply_total", 0) - span.duration
    return per_op


def identity_residuals(spans: Sequence[Span]) -> List[int]:
    """Per op with a multiply: phases + dispatch - multiply total (ns)."""
    residuals = []
    for totals in op_breakdown(spans).values():
        if "perf.multiply" not in totals:
            continue
        phases = sum(totals.get(name, 0) for name in MULTIPLY_PHASES)
        residuals.append(phases + totals["perf.multiply"] - totals["multiply_total"])
    return residuals


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics that come from spans and traced records.

    Time values are medians over the ops in which the span occurs (0 when
    it never occurs); build phases are medians over individual builds.
    """
    spans = tracer.spans
    per_op = op_breakdown(spans)
    multiplied = [totals for totals in per_op.values() if "perf.multiply" in totals]

    def per_op_us(name: str) -> float:
        return _median([t[name] for t in multiplied if name in t]) / 1e3

    metrics: Dict[str, float] = {
        "perf.multiply_us": _median([t["multiply_total"] for t in multiplied]) / 1e3,
        "perf.dispatch_us": per_op_us("perf.multiply"),
        "sparse.spmv_us": per_op_us("sparse.spmv"),
        "core.checksum_cb_us": per_op_us("core.checksum_cb"),
        "core.result_checksum_us": per_op_us("core.result_checksum"),
        "core.beta_us": per_op_us("core.beta"),
        "core.compare_us": per_op_us("core.compare"),
        "core.correct_us": per_op_us("core.correct"),
        "core.recheck_us": per_op_us("core.recheck"),
        "machine.meter_us": per_op_us("machine.meter"),
        "schemes.result_us": per_op_us("schemes.result"),
    }
    total = metrics["perf.multiply_us"]
    metrics["perf.dispatch_frac"] = metrics["perf.dispatch_us"] / total if total else 0.0

    selfs = self_times(spans)
    spmv_bytes: Dict[int, int] = {}
    for span in spans:
        if span.name == "sparse.spmv" and span.op >= 0:
            spmv_bytes[span.op] = spmv_bytes.get(span.op, 0) + span.nbytes
    metrics["sparse.spmv_gbs"] = _median(
        [spmv_bytes[op] / per_op[op]["sparse.spmv"] for op in spmv_bytes
         if per_op[op]["sparse.spmv"] > 0]
    )
    build_keys = ("core.build_ms", "perf.plan_build_ms", "formats.select_ms")
    for name, key in zip(BUILD_PHASES, build_keys):
        metrics[key] = _median([own for span, own in zip(spans, selfs) if span.name == name]) / 1e6

    solves = [
        (per_op[op], iterations) for op, iterations in tracer.iterations.items()
        if op in per_op and iterations > 0
    ]
    metrics["solvers.iterations"] = _median([iterations for _, iterations in solves])
    metrics["solvers.loop_us"] = _median(
        [t["solvers.pcg"] / iterations for t, iterations in solves]
    ) / 1e3
    metrics["solvers.precondition_us"] = _median(
        [t.get("solvers.precondition", 0) / iterations for t, iterations in solves]
    ) / 1e3
    metrics.update(fault_metrics(tracer.multiplies, tracer.injections))
    return metrics


def _injected_block(record: MultiplyRecord, injection: InjectionRecord) -> int:
    """Block holding an injection, or -1 when its array does not say."""
    if injection.target == "result" and injection.size == record.n_rows:
        return injection.index // record.block_size
    if injection.target in ("t1", "t2") and injection.size == record.n_blocks:
        return injection.index
    return -1


def fault_metrics(
    multiplies: Sequence[MultiplyRecord], injections: Sequence[InjectionRecord]
) -> Dict[str, float]:
    """Rounds, wasted recomputation, false positives and fault coverage.

    An injection counts as detected when the multiply's first check flags
    its block, or, where the block is unknown (beta, corrections,
    re-verification), when any check of that multiply fires.
    """
    by_span = {record.span: record for record in multiplies}
    hit: Dict[int, List[InjectionRecord]] = {}
    for injection in injections:
        if injection.multiply in by_span:
            hit.setdefault(injection.multiply, []).append(injection)

    detected = 0
    useful = 0
    for span, records in hit.items():
        multiply = by_span[span]
        error_blocks = set()
        for injection in records:
            block = _injected_block(multiply, injection)
            if block < 0:
                detected += multiply.any_detection
                continue
            detected += block in multiply.first_flagged
            if injection.target == "result":
                error_blocks.add(block)
        useful += len(error_blocks & set(multiply.corrected_blocks))
    recomputed = sum(record.recomputed for record in multiplies)
    clean = [record for record in multiplies if record.span not in hit]
    n_ops = len({record.op for record in multiplies})
    return {
        "core.rounds_mean": (
            statistics.fmean(record.rounds for record in multiplies) if multiplies else 0.0
        ),
        "core.recompute_waste_frac": 1.0 - useful / recomputed if recomputed else 0.0,
        "core.false_positive_frac": (
            sum(record.any_detection for record in clean) / len(clean) if clean else 0.0
        ),
        "faults.injected": len(injections) / n_ops if n_ops else 0.0,
        "faults.detected_frac": detected / len(injections) if injections else 0.0,
    }
