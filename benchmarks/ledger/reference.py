"""Frozen plain baselines and the float64 correctness reference.

Nothing here imports the library: these are the denominators of every
overhead ratio and the yardstick of every correctness check, so they must
not move when the library does.  The tests pin them to the library as it
was when the ledger was written (bit-identical SpMV, equal PCG iteration
counts).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class PlainSpmv:
    """``r = A b`` on raw CSR arrays with every buffer preallocated.

    Same arithmetic as a gather, an elementwise product and one
    ``np.add.reduceat`` over the non-empty row starts, in the matrix's
    storage dtype.  The returned array is the instance's output buffer:
    it is overwritten by the next call.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> None:
        self.indices = indices
        self.data = data
        nonempty = np.diff(indptr) > 0
        self.starts = indptr[:-1][nonempty]
        self.nonempty = None if bool(nonempty.all()) else nonempty
        self.products = np.empty(data.size, dtype=data.dtype)
        self.out = np.zeros(indptr.size - 1, dtype=data.dtype)
        self.reduced = np.empty(self.starts.size, dtype=data.dtype)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        np.take(b, self.indices, out=self.products, mode="clip")
        np.multiply(self.products, self.data, out=self.products)
        if self.nonempty is None:
            np.add.reduceat(self.products, self.starts, out=self.out)
        else:
            np.add.reduceat(self.products, self.starts, out=self.reduced)
            self.out[self.nonempty] = self.reduced
        return self.out


def jacobi_inverse(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray) -> np.ndarray:
    """``1 / diag(A)`` for a square CSR matrix (zero where unstored)."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    on_diag = rows == indices
    diag = np.zeros(n, dtype=data.dtype)
    diag[rows[on_diag]] = data[on_diag]
    return 1.0 / diag


def plain_pcg(
    spmv: PlainSpmv,
    inverse_diag: np.ndarray,
    b: np.ndarray,
    seed: int,
    tol: float,
    max_iterations: int,
) -> Tuple[np.ndarray, int, bool]:
    """Unprotected Jacobi-preconditioned CG; returns ``(x, iterations, correct)``.

    Follows the solver loop it is compared against step for step: random
    ``x0`` from ``default_rng(seed + 1)``, relative-residual stop at
    ``tol``, ``max_iterations`` cap, and success only when the recomputed
    true residual is below ``10 * tol``.
    """
    x = np.random.default_rng(seed + 1).standard_normal(b.size)
    b_norm = float(np.linalg.norm(b)) or 1.0
    r = b - spmv(x)
    z = r * inverse_diag
    p = z.copy()
    rz = float(np.dot(r, z))
    converged = False
    iterations = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while iterations < max_iterations:
            iterations += 1
            q = spmv(p)
            pq = float(np.dot(p, q))
            if pq == 0.0:
                break
            alpha = rz / pq
            x = x + alpha * p
            r = r - alpha * q
            relative = float(np.linalg.norm(r)) / b_norm
            if relative < tol:
                converged = True
                break
            if not np.isfinite(relative):
                break
            z = r * inverse_diag
            rz_next = float(np.dot(r, z))
            beta = rz_next / rz
            p = z + beta * p
            rz = rz_next
        residual = float(np.linalg.norm(b - spmv(x))) / b_norm
    return x, iterations, converged and bool(np.isfinite(residual)) and residual < 10 * tol


def gamma(n: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Higham's ``γ_n = n·u / (1 − n·u)`` for the unit roundoff of ``dtype``."""
    u = float(np.finfo(dtype).eps) / 2.0
    nu = n.astype(np.float64) * u
    return nu / (1.0 - nu)


def reference_product(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``A b`` in float64 and the per-row tolerance a computed product gets.

    Row ``i`` of a product computed in ``data``'s storage dtype may differ
    from the float64 reference by ``(γ_{n_i}(storage) + γ_{n_i}(float64)) ·
    (|A|·|b|)_i``, with ``n_i`` the row's stored entries: the storage-dtype
    rounding bound of the product plus the reference's own rounding.
    """
    lengths = np.diff(indptr)
    nonempty = lengths > 0
    starts = indptr[:-1][nonempty]
    products = data.astype(np.float64) * np.asarray(b, dtype=np.float64)[indices]
    ref = np.zeros(lengths.size)
    magnitude = np.zeros(lengths.size)
    ref[nonempty] = np.add.reduceat(products, starts)
    magnitude[nonempty] = np.add.reduceat(np.abs(products), starts)
    scale = gamma(lengths, data.dtype) + gamma(lengths, np.dtype(np.float64))
    return ref, scale * magnitude


def violations(r: np.ndarray, ref: np.ndarray, tolerance: np.ndarray) -> int:
    """Rows of ``r`` outside ``ref ± tolerance``; non-finite rows always count."""
    with np.errstate(invalid="ignore", over="ignore"):
        ok = np.abs(np.asarray(r, dtype=np.float64) - ref) <= tolerance
    return int(np.count_nonzero(~ok))
