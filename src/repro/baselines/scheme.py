"""Baseline plumbing: the execution context every baseline shares.

The baselines mirror :class:`repro.core.FaultTolerantSpMV`'s driver contract
— ``multiply(b, tamper=None, meter=None)`` with the same tamper-hook stages
— so campaigns can swap schemes freely through :mod:`repro.schemes`.  Since
the registry refactor all schemes return the same unified
:class:`~repro.schemes.result.ProtectedSpmvResult` (the related-work
schemes leave its block-id fields empty).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.corrector import TamperHook
from repro.kernels import KernelSet, resolve_kernels
from repro.machine import ExecutionMeter, Machine
from repro.obs import Telemetry, resolve_telemetry
from repro.sparse.csr import CsrMatrix


class BaselineContext:
    """Injected execution context shared by every baseline scheme.

    Resolves the machine model, kernel set and telemetry stream once at
    construction so baseline hot paths (range recomputation, checksum
    refreshes) dispatch through the same registered kernels — and emit
    into the same telemetry stream — as the block-ABFT scheme, making
    overhead comparisons kernel-for-kernel.
    """

    #: Registry name; subclasses override.
    name: str = "baseline"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        kernel: object = None,
        telemetry: object = None,
    ) -> None:
        self.matrix = matrix
        self.machine = machine or Machine()
        self.telemetry: Telemetry = resolve_telemetry(telemetry)
        self.kernels: KernelSet = self.telemetry.wrap_kernels(resolve_kernels(kernel))
        self._span_name = f"scheme.{self.name}.multiply"

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _meter(self, meter: Optional[ExecutionMeter]) -> ExecutionMeter:
        return meter if meter is not None else ExecutionMeter(machine=self.machine)

    def _recompute_rows(
        self,
        b: np.ndarray,
        r: np.ndarray,
        start: int,
        stop: int,
        tamper: Optional[TamperHook],
    ) -> int:
        """Recompute result rows ``[start, stop)`` in place via the
        injected kernel set; returns the nnz touched.

        ``row_checksums`` dots each selected CSR row with ``b`` — the
        same left-to-right per-row reduction as ``matvec_rows``, so the
        recomputed segment is bit-identical under every kernel set.
        """
        rows = np.arange(start, stop, dtype=np.int64)
        segment, nnz = self.kernels.row_checksums(self.matrix, rows, b)
        if tamper is not None:
            tamper("corrected", segment, 2.0 * nnz)
        r[start:stop] = segment
        return nnz

    def _record_check(self, detected: bool) -> None:
        """Scheme-tagged detection telemetry (``abft.*`` counter family)."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        telemetry.count("abft.checks", scheme=self.name)
        if detected:
            telemetry.count("abft.detections", scheme=self.name)

    def _record_correction(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.count("abft.corrections", scheme=self.name)
