"""Coordinate-format (COO) sparse matrices.

COO is the construction format of the library: generators and I/O produce
COO triplets, which are then converted once to :class:`~repro.sparse.csr.CsrMatrix`
for all computational kernels.  The class is intentionally small — it exists
to make matrix assembly simple and explicit, not to compete with CSR on
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.csr import storage_dtype


@dataclass(frozen=True)
class CooMatrix:
    """An immutable sparse matrix in coordinate (triplet) format.

    Attributes:
        shape: ``(n_rows, n_cols)`` of the logical matrix.
        row: int64 array of row indices, one per stored entry.
        col: int64 array of column indices, one per stored entry.
        data: float64 or float32 array of values, one per stored entry
            (float input keeps its precision; other dtypes coerce to
            float64 — see :func:`repro.sparse.csr.storage_dtype`).

    Duplicate ``(row, col)`` pairs are permitted and are summed when the
    matrix is converted to CSR, matching the usual finite-element assembly
    convention.
    """

    shape: Tuple[int, int]
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        # Python ints: deduplicated() sizes its int64 sort key with them.
        n_rows, n_cols = (int(n) for n in self.shape)
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative dimension in shape {self.shape}")
        row = np.ascontiguousarray(self.row, dtype=np.int64)
        col = np.ascontiguousarray(self.col, dtype=np.int64)
        data = np.ascontiguousarray(self.data, dtype=storage_dtype(self.data))
        if not (row.shape == col.shape == data.shape) or row.ndim != 1:
            raise SparseFormatError(
                "row, col and data must be 1-D arrays of equal length; got "
                f"{row.shape}, {col.shape}, {data.shape}"
            )
        if row.size:
            # A zero-length axis admits no index at all.
            if row.min() < 0 or row.max() >= n_rows:
                raise SparseFormatError("row index out of range")
            if col.min() < 0 or col.max() >= n_cols:
                raise SparseFormatError("column index out of range")
        object.__setattr__(self, "shape", (n_rows, n_cols))
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        object.__setattr__(self, "data", data)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(
        cls,
        shape: Tuple[int, int],
        entries: Iterable[Tuple[int, int, float]],
    ) -> "CooMatrix":
        """Build a COO matrix from an iterable of ``(i, j, value)`` triplets."""
        triplets = list(entries)
        if not triplets:
            empty = np.empty(0)
            return cls(shape, empty.astype(np.int64), empty.astype(np.int64), empty)
        rows, cols, vals = zip(*triplets)
        return cls(
            shape,
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(vals, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CooMatrix":
        """Build a COO matrix holding every non-zero of a dense 2-D array."""
        dense = np.asarray(dense, dtype=storage_dtype(dense))
        if dense.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-D array, got ndim={dense.ndim}")
        row, col = np.nonzero(dense)
        return cls(dense.shape, row, col, dense[row, col])

    # ------------------------------------------------------------------
    # Properties and conversions
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (duplicates counted separately)."""
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the matrix values."""
        return self.data.dtype

    def transpose(self) -> "CooMatrix":
        """Return the transpose: the row and column arrays swap roles
        (all three arrays are copied)."""
        return CooMatrix(
            (self.shape[1], self.shape[0]), self.col.copy(), self.row.copy(), self.data.copy()
        )

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array in the storage dtype, summing duplicates."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.row, self.col), self.data)
        return out

    def deduplicated(self) -> "CooMatrix":
        """Return an equivalent COO matrix with duplicates summed and sorted.

        Contract:

        - Entries come back in row-major (row, then column) order, and
          duplicates keep their input order inside each ``(row, col)``
          group (the order of a stable sort).
        - Each group is summed sequentially, in that order, into a zero
          of the storage dtype (``np.add.at``), exactly as
          :meth:`to_dense` sums.  Exact zeros produced by cancellation
          are retained (they are structural), and a group of ``-0.0``
          sums to ``+0.0``.
        - The grouping sorts one int64 key per entry,
          ``((row * n_cols + col) << s) | position`` with
          ``s = bit_length(nnz - 1)``.  The keys are unique, so any sort
          yields the stable order.  When
          ``bit_length(n_rows * n_cols - 1) + s > 63`` the key would wrap,
          and a two-key ``np.lexsort`` produces the same order instead.
        """
        nnz = self.nnz
        if nnz == 0:
            return self
        n_rows, n_cols = self.shape
        shift = (nnz - 1).bit_length()
        first = np.ones(nnz, dtype=bool)
        if (n_rows * n_cols - 1).bit_length() + shift > 63:
            order = np.lexsort((self.col, self.row))
            row, col = self.row[order], self.col[order]
            first[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
            row, col = row[first], col[first]
        else:
            key = self.row * n_cols
            key += self.col
            key <<= shift
            key |= np.arange(nnz, dtype=np.int64)
            key.sort()
            order = key & ((1 << shift) - 1)
            key >>= shift
            np.not_equal(key[1:], key[:-1], out=first[1:])
            # Integer gathers and a floor division beat a boolean mask
            # and np.divmod here.
            cell = key[np.flatnonzero(first)]
            row = cell // n_cols
            col = cell - row * n_cols
        group = np.cumsum(first)
        group -= 1
        summed = np.zeros(row.size, dtype=self.data.dtype)
        np.add.at(summed, group, self.data[order])
        return CooMatrix(self.shape, row, col, summed)

    def to_csr(self):
        """Convert to :class:`repro.sparse.csr.CsrMatrix`, summing duplicates."""
        from repro.sparse.csr import CsrMatrix

        dedup = self.deduplicated()
        n_rows = self.shape[0]
        counts = np.bincount(dedup.row, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CsrMatrix(self.shape, indptr, dedup.col, dedup.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CooMatrix(shape={self.shape}, nnz={self.nnz})"
