"""Algebraic single-error correction — an extension beyond the paper.

The paper corrects a flagged block by *recomputing* it.  Classic ABFT
theory offers a cheaper option for the dominant case of a single corrupted
element: encode every block with **two** weight vectors,

* ``w1 = (1, 1, ..., 1)``  — the value checksum, and
* ``w2 = (1, 2, ..., b_s)`` — the position checksum.

For a single error of magnitude ``e`` at local position ``p`` (0-based)
inside block ``k``, the two syndromes satisfy::

    s1_k = t1_k - t2_k = -e
    s2_k               = -e * (p + 1)

so ``p = s2/s1 - 1`` recovers the *exact row* and ``-s1`` the error value.
The scheme recomputes only that one row (instead of the paper's whole
block) and verifies the single-error hypothesis against it: if the
recomputed value disagrees with the algebraic prediction — multi-error
aliasing, rounding noise, or a fault in the checksums themselves — the
scheme falls back to the paper's block recomputation.  A final value-
checksum recheck guards every round.

The price is one extra checksum row per block (``t1``/``t2`` work doubles);
the payoff is corrections that touch one row instead of ``b_s`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.blocking import BlockPartition
from repro.core.bounds import SparseBlockBound
from repro.core.checksum import ChecksumMatrix
from repro.core.config import AbftConfig
from repro.core.corrector import TamperHook, correct_blocks
from repro.core.dtypes import resolve_dtype_policy
from repro.kernels import resolve_kernels
from repro.errors import ConfigurationError
from repro.machine import (
    ExecutionMeter,
    Machine,
    TaskGraph,
    blocked_checksum_cost,
    checksum_matvec_cost,
    log2ceil,
    norm_cost,
    spmv_cost,
)
from repro.sparse.csr import CsrMatrix

#: Maximum distance of ``s2/s1`` from an integer for the algebraic repair
#: to be trusted; beyond it the scheme falls back to recomputation.
POSITION_TOLERANCE = 0.05

#: Relative tolerance between the algebraically predicted value and the
#: recomputed row value before the single-error hypothesis is rejected.
VALUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class AlgebraicSpmvResult:
    """Outcome of one dual-checksum protected multiply.

    Attributes:
        value: the (possibly corrected) result vector.
        detected: blocks flagged by the initial detection.
        algebraic_repairs: ``(row, correction)`` pairs fixed by single-row
            repair (the correction is the applied delta ``s1``).
        recomputed_blocks: blocks that needed the whole-block fallback.
        rounds: correction rounds performed.
        seconds / flops: simulated cost.
        exhausted: round budget ran out with blocks still flagged.
    """

    value: np.ndarray
    detected: Tuple[int, ...]
    algebraic_repairs: Tuple[Tuple[int, float], ...]
    recomputed_blocks: Tuple[int, ...]
    rounds: int
    seconds: float
    flops: float
    exhausted: bool

    @property
    def clean(self) -> bool:
        return not self.detected


class DualChecksumSpMV:
    """Fault-tolerant SpMV with algebraic (recomputation-free) repair.

    Args:
        matrix: the sparse input matrix.
        block_size: rows per checksum block.
        machine: simulated device.
        max_rounds: verification/correction round budget.
        kernel: :mod:`repro.kernels` selection (name, instance, or None
            for the configured default).
    """

    def __init__(
        self,
        matrix: CsrMatrix,
        block_size: int = 32,
        machine: Optional[Machine] = None,
        max_rounds: int = 8,
        kernel: object = None,
    ) -> None:
        if block_size < 1:
            raise ConfigurationError(f"block_size must be >= 1, got {block_size}")
        if max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {max_rounds}")
        self.matrix = matrix
        self.block_size = block_size
        self.machine = machine or Machine()
        self.max_rounds = max_rounds
        self.kernels = resolve_kernels(kernel)
        self.value_checksum = ChecksumMatrix.build(
            matrix, block_size, "ones", self.kernels
        )
        self.position_checksum = ChecksumMatrix.build(
            matrix, block_size, "linear", self.kernels
        )
        epsilon = resolve_dtype_policy().epsilon_for(matrix.dtype)
        self.bound = SparseBlockBound.from_checksum(self.value_checksum, epsilon=epsilon)

    @property
    def partition(self) -> BlockPartition:
        return self.value_checksum.partition

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _detection_graph(self) -> TaskGraph:
        """Figure 1 with a doubled checksum stream (two C rows per block)."""
        matrix = self.matrix
        graph = TaskGraph()
        max_row = int(matrix.row_lengths().max(initial=1))
        cost = spmv_cost(matrix.nnz, max_row)
        graph.add("spmv", cost.work, cost.span)
        c1 = self.value_checksum.matrix
        c2 = self.position_checksum.matrix
        cost = checksum_matvec_cost(
            c1.nnz + c2.nnz,
            int(max(c1.row_lengths().max(initial=1), c2.row_lengths().max(initial=1))),
        )
        graph.add("t1-dual", cost.work, cost.span)
        cost = norm_cost(matrix.n_cols)
        graph.add("beta", cost.work, cost.span)
        check = blocked_checksum_cost(
            matrix.n_rows, self.block_size, self.partition.n_blocks
        )
        graph.add("check", 2.0 * check.work, check.span, deps=["spmv", "t1-dual", "beta"])
        return graph

    def _repair_graph(
        self, n_repairs: int, repair_nnz: int, rows_rechecked: int
    ) -> TaskGraph:
        """Single-row recomputations plus a fused block recheck."""
        graph = TaskGraph()
        max_row = int(self.matrix.row_lengths().max(initial=1))
        graph.add("repair", 2.0 * repair_nnz + 4.0 * n_repairs, log2ceil(max_row))
        recheck = blocked_checksum_cost(rows_rechecked, self.block_size, n_repairs)
        graph.add("recheck", 2.0 * recheck.work, recheck.span, deps=["repair"])
        return graph

    def _recompute_graph(self, nnz: int, rows: int, blocks: int) -> TaskGraph:
        graph = TaskGraph()
        max_row = int(self.matrix.row_lengths().max(initial=1))
        graph.add("recompute", 2.0 * nnz, log2ceil(max_row))
        recheck = blocked_checksum_cost(rows, self.block_size, blocks)
        graph.add("recheck", 2.0 * recheck.work, recheck.span, deps=["recompute"])
        return graph

    # ------------------------------------------------------------------
    # Protected multiply
    # ------------------------------------------------------------------
    def multiply(
        self,
        b: np.ndarray,
        tamper: Optional[TamperHook] = None,
        meter: Optional[ExecutionMeter] = None,
    ) -> AlgebraicSpmvResult:
        """Execute one protected SpMV with algebraic repair.

        The tamper-hook contract matches :class:`repro.core.FaultTolerantSpMV`.
        """
        matrix = self.matrix
        meter = meter if meter is not None else ExecutionMeter(machine=self.machine)
        start_seconds, start_flops = meter.snapshot()
        meter.run_graph(self._detection_graph())

        r = matrix.matvec(b)
        if tamper is not None:
            tamper("result", r, 2.0 * matrix.nnz)
        t1_value = self.value_checksum.operand_checksums(b)
        t1_position = self.position_checksum.operand_checksums(b)
        if tamper is not None:
            tamper("t1", t1_value, 2.0 * self.value_checksum.nnz)
            tamper("t1", t1_position, 2.0 * self.position_checksum.nnz)
        beta = float(np.linalg.norm(b))

        flagged = self._check(r, t1_value, beta, tamper)
        detected = tuple(int(x) for x in flagged)

        repairs: list[Tuple[int, float]] = []
        recomputed: set[int] = set()
        rounds = 0
        exhausted = False
        while flagged.size:
            if rounds >= self.max_rounds:
                exhausted = True
                break
            rounds += 1
            fallback: list[int] = []
            n_repaired_rows = 0
            n_round_repairs = 0
            round_repair_nnz = 0
            for block in flagged:
                block = int(block)
                repair = self._try_algebraic_repair(
                    block, b, r, t1_value, t1_position, tamper
                )
                if repair is None:
                    fallback.append(block)
                else:
                    repairs.append(repair)
                    n_round_repairs += 1
                    row = repair[0]
                    round_repair_nnz += self.matrix.nnz_in_rows(row, row + 1)
                    start, stop = self.partition.bounds(block)
                    n_repaired_rows += stop - start
            if n_round_repairs:
                meter.run_graph(
                    self._repair_graph(
                        n_round_repairs, round_repair_nnz, n_repaired_rows
                    )
                )
            if fallback:
                blocks = np.asarray(fallback, dtype=np.int64)
                outcome = correct_blocks(
                    matrix, self.partition, b, r, blocks, tamper,
                    kernel=self.kernels,
                )
                recomputed.update(fallback)
                meter.run_graph(
                    self._recompute_graph(
                        outcome.nnz_recomputed,
                        outcome.rows_recomputed,
                        len(fallback),
                    )
                )
            flagged = self._check_blocks(
                r, t1_value, beta, np.asarray(sorted(set(int(x) for x in flagged))),
                tamper,
            )

        seconds, flops = meter.snapshot()
        return AlgebraicSpmvResult(
            value=r,
            detected=detected,
            algebraic_repairs=tuple(repairs),
            recomputed_blocks=tuple(sorted(recomputed)),
            rounds=rounds,
            seconds=seconds - start_seconds,
            flops=flops - start_flops,
            exhausted=exhausted,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(
        self,
        r: np.ndarray,
        t1_value: np.ndarray,
        beta: float,
        tamper: Optional[TamperHook],
    ) -> np.ndarray:
        t2 = self.value_checksum.result_checksums(r)
        if tamper is not None:
            tamper("t2", t2, 2.0 * self.matrix.n_rows)
        with np.errstate(invalid="ignore", over="ignore"):
            syndrome = t1_value - t2
            thresholds = self.bound.thresholds(beta)
            exceeded = (np.abs(syndrome) > thresholds) | ~np.isfinite(syndrome)
        return np.nonzero(exceeded)[0].astype(np.int64)

    def _check_blocks(
        self,
        r: np.ndarray,
        t1_value: np.ndarray,
        beta: float,
        blocks: np.ndarray,
        tamper: Optional[TamperHook],
    ) -> np.ndarray:
        if blocks.size == 0:
            return blocks
        t2 = self.value_checksum.result_checksums_for_blocks(r, blocks)
        if tamper is not None:
            tamper("t2", t2, 2.0 * float(sum(self.partition.length(int(k)) for k in blocks)))
        with np.errstate(invalid="ignore", over="ignore"):
            syndrome = t1_value[blocks] - t2
            thresholds = self.bound.thresholds(beta, blocks)
            exceeded = (np.abs(syndrome) > thresholds) | ~np.isfinite(syndrome)
        return blocks[exceeded]

    def _try_algebraic_repair(
        self,
        block: int,
        b: np.ndarray,
        r: np.ndarray,
        t1_value: np.ndarray,
        t1_position: np.ndarray,
        tamper: Optional[TamperHook],
    ) -> Optional[Tuple[int, float]]:
        """Solve the two-syndrome system for (position, value), recompute
        the implicated row and verify the single-error hypothesis.

        On success the row is repaired in place and ``(row, s1)`` returned;
        on any inconsistency (non-integer position, out-of-range row, or a
        recomputed value that contradicts the algebraic prediction — the
        multi-error aliasing case) the caller falls back to whole-block
        recomputation.
        """
        start, stop = self.partition.bounds(block)
        segment = r[start:stop]
        with np.errstate(invalid="ignore", over="ignore"):
            s1 = float(t1_value[block] - np.sum(segment))
            weights = np.arange(1.0, stop - start + 1.0)
            s2 = float(t1_position[block] - np.dot(weights, segment))
        # reprolint: disable=ABFT003 -- guards the s2/s1 division: the block
        # already exceeded the rounding bound, so s1 == 0.0 here can only be
        # aliasing (e.g. two cancelling errors) and must defer to fallback
        if not np.isfinite(s1) or not np.isfinite(s2) or s1 == 0.0:
            return None
        ratio = s2 / s1
        position = int(round(ratio)) - 1
        if abs(ratio - round(ratio)) > POSITION_TOLERANCE:
            return None
        if not 0 <= position < stop - start:
            return None
        row = start + position
        predicted = r[row] + s1
        recomputed = self.matrix.matvec_rows(row, row + 1, b)
        if tamper is not None:
            tamper("corrected", recomputed, 2.0 * self.matrix.nnz_in_rows(row, row + 1))
        actual = float(recomputed[0])
        scale = max(abs(predicted), abs(actual), abs(float(t1_value[block])), 1.0)
        if not np.isfinite(actual) or abs(actual - predicted) > VALUE_TOLERANCE * scale:
            return None
        r[row] = actual
        return row, s1
