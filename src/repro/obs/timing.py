"""Dispatch-level kernel timing: a :class:`KernelSet` decorator.

:class:`TimedKernels` wraps any kernel set (the library's vectorized set
or the test suite's reference oracle) and records the wall time of every
hot-path call into a ``kernel.<op>.seconds`` histogram, tagging each
event with the wrapped set's name.  Wrapping happens at *dispatch* level
— :meth:`repro.obs.telemetry.Telemetry.wrap_kernels` — so any kernel set
is covered without touching its code, and the disabled path never sees
the wrapper at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.kernels.base import KernelSet, Tamper
from repro.obs.instruments import DEFAULT_TIME_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.blocking import BlockPartition
    from repro.obs.telemetry import Telemetry
    from repro.sparse.csr import CsrMatrix


class TimedKernels(KernelSet):
    """A kernel set whose every call is timed into the telemetry.

    The wrapper is numerically transparent: all arguments and results
    pass through unchanged, and :attr:`name` reports the wrapped set's
    name so checksum/kernel accounting is unaffected.
    """

    def __init__(self, inner: KernelSet, telemetry: "Telemetry") -> None:
        if isinstance(inner, TimedKernels):  # never stack wrappers
            inner = inner.inner
        self.inner = inner
        self.name = inner.name
        self._telemetry = telemetry

    def _record(self, op: str, t0: float) -> None:
        telemetry = self._telemetry
        # reprolint: disable=ABFT013 -- wrap_kernels never installs this
        # wrapper for disabled telemetry, so every _record call is already
        # behind the enabled check made at wrap time.
        telemetry.observe(
            f"kernel.{op}.seconds",
            telemetry.now() - t0,
            buckets=DEFAULT_TIME_BUCKETS,
            kernel=self.name,
        )

    # -- weights / encoding ------------------------------------------------
    def linear_weights(self, partition: "BlockPartition") -> np.ndarray:
        t0 = self._telemetry.now()
        out = self.inner.linear_weights(partition)
        self._record("linear_weights", t0)
        return out

    def encode(
        self,
        source: "CsrMatrix",
        partition: "BlockPartition",
        weights: np.ndarray,
    ) -> "CsrMatrix":
        t0 = self._telemetry.now()
        out = self.inner.encode(source, partition, weights)
        self._record("encode", t0)
        return out

    # -- detection ---------------------------------------------------------
    def result_checksums(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        t0 = self._telemetry.now()
        result = self.inner.result_checksums(
            weights, r, partition, out=out, workspace=workspace
        )
        self._record("result_checksums", t0)
        return result

    def result_checksums_for_blocks(
        self,
        weights: np.ndarray,
        r: np.ndarray,
        partition: "BlockPartition",
        blocks: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        t0 = self._telemetry.now()
        result = self.inner.result_checksums_for_blocks(
            weights, r, partition, blocks, out=out
        )
        self._record("result_checksums_for_blocks", t0)
        return result

    def compare_syndromes(
        self, t1: np.ndarray, t2: np.ndarray, thresholds: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        t0 = self._telemetry.now()
        out = self.inner.compare_syndromes(t1, t2, thresholds)
        self._record("compare_syndromes", t0)
        return out

    # -- correction --------------------------------------------------------
    def correct_blocks(
        self,
        matrix: "CsrMatrix",
        partition: "BlockPartition",
        b: np.ndarray,
        r: np.ndarray,
        blocks: np.ndarray,
        tamper: Tamper = None,
    ) -> Tuple[int, int]:
        t0 = self._telemetry.now()
        out = self.inner.correct_blocks(matrix, partition, b, r, blocks, tamper)
        self._record("correct_blocks", t0)
        return out

    def row_checksums(
        self, csr: "CsrMatrix", rows: np.ndarray, b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        t0 = self._telemetry.now()
        out = self.inner.row_checksums(csr, rows, b)
        self._record("row_checksums", t0)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimedKernels {self.name!r}>"
