"""Analytical rounding-error bounds (Section III-C).

Checksum invariants over floating-point data never hold exactly; a bound
``tau`` separates rounding noise from real errors.  Three bounds are
implemented:

* :class:`SparseBlockBound` — the paper's contribution: a per-block bound
  that uses the block's *actual* non-empty column count ``n_k`` instead of
  the full dimension ``n``, giving far tighter thresholds on sparse data::

      |t1_k - t2_k| < ((n_k + 2 b_s - 2) * sum_i ||a_i||_2
                        + n_k * ||c_k||_2) * eps_M * beta

  with ``beta = ||b||_2`` and the sum over the block's rows.

* :class:`DenseAnalyticalBound` — Roy-Chowdhury & Banerjee's whole-matrix
  bound (the paper's eq. for dense MV), used for ablation::

      |t1 - t2| < ((n + 2 m - 2) * sum_{i=1..m} ||a_i||_2
                    + n * ||c||_2) * eps_M * beta

* :class:`NormBound` — the ``tau = ||b||_2`` heuristic of Sloan et al.
  [30], the bound the paper's dense-check baseline uses in Section V-B.

All bounds expose ``thresholds(beta, blocks=None) -> ndarray`` so detectors
can treat them uniformly (scalar bounds broadcast over blocks).  The
``eps_M`` of the analytical bounds is :func:`unit_roundoff` of the
matrix's storage dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.checksum import ChecksumMatrix
from repro.core.config import MACHINE_EPSILON
from repro.errors import ConfigurationError
from repro.kernels.base import ACCUMULATION_DTYPE


def unit_roundoff(dtype: object) -> float:
    """``eps_M`` for values stored in ``dtype``: half its machine epsilon.

    Exactly ``2^-53`` for float64 (the paper's value) and ``2^-24`` for
    float32.  Checksums accumulate in float64 either way; the bound
    models the rounding of the stored values and of the product.
    """
    return float(np.finfo(np.dtype(dtype)).eps) / 2.0


@runtime_checkable
class Bound(Protocol):
    """Anything usable as a detector bound: per-block thresholds from beta.

    Satisfied structurally by the three analytical bounds here and by
    :class:`repro.core.calibration.EmpiricalBound`.
    """

    def thresholds(self, beta: float, blocks: np.ndarray | None = None) -> np.ndarray: ...


@dataclass(frozen=True)
class SparseBlockBound:
    """The paper's per-block analytical rounding-error bound.

    Attributes:
        constants: per-block factors ``((n_k + 2 b_s - 2) * sum ||a_i||_2 +
            n_k * ||c_k||_2) * eps_M``; multiply by ``beta`` at run time.
        scale: extra multiplier (1.0 = bound exactly as derived).
    """

    constants: np.ndarray
    scale: float = 1.0

    @classmethod
    def from_checksum(
        cls,
        checksum: ChecksumMatrix,
        scale: float = 1.0,
        epsilon: float = MACHINE_EPSILON,
    ) -> "SparseBlockBound":
        """Precompute the per-block constants from the checksum metadata.

        ``epsilon`` is the unit roundoff of the storage dtype the bound
        models (``eps_M`` in the paper, :func:`unit_roundoff`); the
        default is float64's.
        """
        if scale <= 0:
            raise ConfigurationError(f"bound scale must be positive, got {scale}")
        if epsilon <= 0:
            raise ConfigurationError(f"bound epsilon must be positive, got {epsilon}")
        n_k = checksum.nonempty_columns.astype(ACCUMULATION_DTYPE)
        lengths = checksum.partition.block_lengths().astype(ACCUMULATION_DTYPE)
        constants = (
            (n_k + 2.0 * lengths - 2.0) * checksum.row_norm_sums
            + n_k * checksum.checksum_norms
        ) * epsilon
        return cls(constants=constants, scale=scale)

    def thresholds(self, beta: float, blocks: np.ndarray | None = None) -> np.ndarray:
        """Per-block thresholds ``tau_k(beta)`` (optionally a subset)."""
        constants = self.constants if blocks is None else self.constants[blocks]
        return self.scale * constants * beta

    def beta_coefficients(self) -> np.ndarray:
        """Per-block factors ``c_k`` with ``thresholds(beta) == c_k * beta``.

        All analytic bounds are linear in ``beta``; precomputing the
        coefficients lets planned detection fill a threshold buffer with
        one in-place multiply per check.  ``self.scale * constants`` is
        evaluated first here exactly as in :meth:`thresholds` (left
        association), so ``coefficients * beta`` is bit-identical.
        """
        return self.scale * self.constants


@dataclass(frozen=True)
class DenseAnalyticalBound:
    """Roy-Chowdhury & Banerjee's whole-matrix bound ([35] in the paper)."""

    constant: float
    n_blocks: int
    scale: float = 1.0

    @classmethod
    def from_checksum(
        cls,
        checksum: ChecksumMatrix,
        scale: float = 1.0,
        epsilon: float = MACHINE_EPSILON,
    ) -> "DenseAnalyticalBound":
        """Derive the single whole-matrix constant.

        Uses the full column dimension ``n`` everywhere a sparse block
        bound would use ``n_k`` — exactly the looseness the paper fixes.
        ``epsilon`` is the storage dtype's unit roundoff, as in
        :meth:`SparseBlockBound.from_checksum`.
        """
        if scale <= 0:
            raise ConfigurationError(f"bound scale must be positive, got {scale}")
        if epsilon <= 0:
            raise ConfigurationError(f"bound epsilon must be positive, got {epsilon}")
        m = float(checksum.partition.n_rows)
        n = float(checksum.matrix.n_cols)
        total_row_norms = float(checksum.row_norm_sums.sum())
        # ||c||_2 of the *dense* checksum vector c = w^T A: aggregate the
        # per-block checksum rows (they tile disjoint row sets of A, and the
        # dense c is their column-wise sum; the norm of the sum is bounded
        # by the root-sum-square we can compute without re-encoding).
        c_norm = float(np.sqrt(np.sum(checksum.checksum_norms**2)))
        constant = ((n + 2.0 * m - 2.0) * total_row_norms + n * c_norm) * epsilon
        return cls(constant=constant, n_blocks=checksum.n_blocks, scale=scale)

    def thresholds(self, beta: float, blocks: np.ndarray | None = None) -> np.ndarray:
        count = self.n_blocks if blocks is None else len(blocks)
        return np.full(count, self.scale * self.constant * beta)

    def beta_coefficients(self) -> np.ndarray:
        """Per-block ``c_k`` with ``thresholds(beta) == c_k * beta`` (see
        :meth:`SparseBlockBound.beta_coefficients`)."""
        return np.full(self.n_blocks, self.scale * self.constant)


@dataclass(frozen=True)
class NormBound:
    """The ``tau = ||b||_2`` bound of Sloan et al. [30].

    Independent of the matrix; the paper applies it to the dense-check
    baseline (Section V-B).  Dramatically loose for well-scaled data,
    which is why the baseline's coverage collapses in Figure 7.
    """

    n_blocks: int
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ConfigurationError(f"bound scale must be positive, got {self.scale}")

    def thresholds(self, beta: float, blocks: np.ndarray | None = None) -> np.ndarray:
        count = self.n_blocks if blocks is None else len(blocks)
        return np.full(count, self.scale * beta)

    def beta_coefficients(self) -> np.ndarray:
        """Per-block ``c_k`` with ``thresholds(beta) == c_k * beta`` (see
        :meth:`SparseBlockBound.beta_coefficients`)."""
        return np.full(self.n_blocks, self.scale)


def make_bound(
    kind: str,
    checksum: ChecksumMatrix,
    scale: float = 1.0,
    epsilon: float = MACHINE_EPSILON,
) -> Bound:
    """Factory dispatching on the :class:`repro.core.config.AbftConfig` kind.

    ``epsilon`` is the unit roundoff of the protected matrix's storage
    dtype (:func:`unit_roundoff`); the norm bound is matrix- and
    dtype-independent and ignores it.
    """
    if kind == "sparse":
        return SparseBlockBound.from_checksum(checksum, scale, epsilon=epsilon)
    if kind == "dense":
        return DenseAnalyticalBound.from_checksum(checksum, scale, epsilon=epsilon)
    if kind == "norm":
        return NormBound(n_blocks=checksum.n_blocks, scale=scale)
    raise ConfigurationError(f"unknown bound kind {kind!r}")
