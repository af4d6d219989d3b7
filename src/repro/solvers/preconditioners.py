"""Preconditioners for the PCG solver (paper Section VI-A).

The paper's case study uses the Jacobi preconditioner and reports that SSOR
and Incomplete Cholesky gave no significantly different results, so Jacobi
is the one implemented, beside the identity of plain CG.  Each
preconditioner exposes ``apply`` (compute ``z = M^{-1} r``) and
``apply_cost`` (the kernel cost one application charges to the machine
model).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import SingularMatrixError
from repro.machine import KernelCost, pointwise_cost
from repro.sparse.csr import CsrMatrix


class Preconditioner(Protocol):
    """Anything that can apply ``M^{-1}``."""

    def apply(self, r: np.ndarray) -> np.ndarray: ...

    @property
    def apply_cost(self) -> KernelCost: ...


class IdentityPreconditioner:
    """No preconditioning (plain CG)."""

    name = "identity"

    def __init__(self, matrix: CsrMatrix) -> None:
        self._n = matrix.n_rows

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r.copy()

    @property
    def apply_cost(self) -> KernelCost:
        return KernelCost(0.0, 0.0)


class JacobiPreconditioner:
    """Diagonal scaling: ``z_i = r_i / a_ii`` (the paper's default)."""

    name = "jacobi"

    def __init__(self, matrix: CsrMatrix) -> None:
        diag = matrix.diagonal()
        if (diag == 0).any():
            raise SingularMatrixError("Jacobi preconditioner needs a zero-free diagonal")
        self._inverse_diag = 1.0 / diag
        self._cost = pointwise_cost(matrix.n_rows)

    def apply(self, r: np.ndarray) -> np.ndarray:
        return r * self._inverse_diag

    @property
    def apply_cost(self) -> KernelCost:
        return self._cost
