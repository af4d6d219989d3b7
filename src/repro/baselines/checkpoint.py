"""Checkpoint/rollback baseline (the paper's traditional recovery scheme).

The PCG case study compares against a traditional scheme that samples the
solver state every 20 iterations into ECC-protected memory and, when the
dense check detects an error, restarts from the last snapshot.  This module
provides both halves: the :class:`CheckpointStore` holding snapshots and
the :class:`CheckpointSpMV` scheme whose detections signal a rollback; the
rollback-driving loop lives in :mod:`repro.solvers.ft_pcg`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.baselines.dense_check import DenseCheckSpMV
from repro.errors import ConfigurationError
from repro.machine import (
    KernelCost,
    Machine,
    checkpoint_restore_cost,
    checkpoint_store_cost,
)
from repro.sparse.csr import CsrMatrix

#: Checkpoint interval used throughout the paper's evaluation (Section VI).
DEFAULT_CHECKPOINT_INTERVAL = 20


@dataclass
class CheckpointStore:
    """Snapshot storage for iterative-solver state.

    The store itself is assumed reliable (ECC-protected memory), matching
    the paper's setup; costs of moving state in and out are returned as
    :class:`KernelCost` so the caller charges them to its meter.
    """

    _arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    _scalars: Dict[str, float] = field(default_factory=dict)
    _iteration: int = -1
    saves: int = 0
    restores: int = 0

    @property
    def has_checkpoint(self) -> bool:
        return self._iteration >= 0

    @property
    def iteration(self) -> int:
        """Solver iteration the stored snapshot belongs to (-1 if none)."""
        return self._iteration

    def save(
        self,
        iteration: int,
        arrays: Dict[str, np.ndarray],
        scalars: Dict[str, float] | None = None,
    ) -> KernelCost:
        """Snapshot the given state; returns the transfer cost to charge."""
        if iteration < 0:
            raise ConfigurationError(f"iteration must be >= 0, got {iteration}")
        self._arrays = {name: np.array(value, copy=True) for name, value in arrays.items()}
        self._scalars = dict(scalars or {})
        self._iteration = iteration
        self.saves += 1
        return checkpoint_store_cost(self._total_elements())

    def restore(self) -> Tuple[int, Dict[str, np.ndarray], Dict[str, float], KernelCost]:
        """Return ``(iteration, arrays, scalars, cost)`` of the snapshot.

        Arrays are fresh copies, so the caller can mutate them freely and
        restore again later.
        """
        if not self.has_checkpoint:
            raise ConfigurationError("no checkpoint has been saved")
        self.restores += 1
        arrays = {name: value.copy() for name, value in self._arrays.items()}
        return (
            self._iteration,
            arrays,
            dict(self._scalars),
            checkpoint_restore_cost(self._total_elements()),
        )

    def _total_elements(self) -> int:
        return int(sum(value.size for value in self._arrays.values())) + len(
            self._scalars
        )


class CheckpointSpMV(DenseCheckSpMV):
    """Dense-checked SpMV whose recovery path is checkpoint rollback.

    The multiply itself is detection-only (numerically identical to
    :class:`DenseCheckSpMV` — a detection comes back ``exhausted`` because
    the SpMV cannot repair itself); the scheme carries a
    :class:`CheckpointStore` (``.store``) that the driving solver saves to
    every :data:`DEFAULT_CHECKPOINT_INTERVAL` iterations and rolls back to
    when a multiply reports a detection.
    """

    name = "checkpoint"

    def __init__(
        self,
        matrix: CsrMatrix,
        machine: Optional[Machine] = None,
        bound_scale: float = 1.0,
        telemetry: object = None,
    ) -> None:
        super().__init__(
            matrix,
            machine=machine,
            bound_scale=bound_scale,
            telemetry=telemetry,
        )
        self.store = CheckpointStore()
