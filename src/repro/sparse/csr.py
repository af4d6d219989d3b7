"""Compressed Sparse Row (CSR) matrices and their computational kernels.

This is the storage format used throughout the library, matching the paper's
experimental setup (Section IV-B: "the evaluated matrices were stored in the
compressed sparse row storage format").  All kernels are vectorized with
NumPy; none delegate to SciPy — the substrate is built from scratch.

The kernel the ABFT scheme protects is :meth:`CsrMatrix.matvec`, the
full SpMV ``r = A b``.  Error correction recomputes an erroneous block's
rows with the same per-row reduction, in
:meth:`repro.kernels.vectorized.VectorizedKernels.correct_blocks`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError

#: Cap on the dense ``(nnz, chunk)`` scratch a single SpMM pass may
#: materialize (elements, i.e. ~128 MiB of float64) — wide multivectors
#: are processed in column chunks instead of densifying all at once.
MATMAT_CHUNK_ELEMENTS = 1 << 24

#: Storage dtypes a sparse matrix carries as-is.  Anything else (ints,
#: float16, ...) is coerced to float64 at construction, the historic
#: behavior.  The bounds take their unit roundoff from these dtypes.
SUPPORTED_STORAGE_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))


def storage_dtype(values: np.ndarray) -> np.dtype:
    """The dtype a sparse format stores ``values`` in.

    float32 and float64 round-trip unchanged; every other dtype coerces
    to float64 (the paper's baseline precision).
    """
    dtype = np.asarray(values).dtype
    return dtype if dtype in SUPPORTED_STORAGE_DTYPES else np.dtype(np.float64)


def _segment_sums(
    values: np.ndarray,
    indptr: np.ndarray,
    n_segments: int,
    out: Optional[np.ndarray] = None,
    lengths: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum ``values`` over the segments delimited by ``indptr``.

    Segment ``i`` covers ``values[indptr[i]:indptr[i+1]]``; empty segments
    yield 0.  This is the reduction at the heart of every CSR row operation
    (SpMV row sums, row norms, row counts).  ``out``, when given, must be an
    array of length ``n_segments`` (the working dtype of the pipeline); it
    is overwritten and returned.  ``lengths``, when given, is
    ``np.diff(indptr)`` (e.g. :meth:`CsrMatrix.row_lengths`, which is
    cached).
    """
    if values.size == 0:
        if out is None:
            return np.zeros(n_segments, dtype=values.dtype)
        out[:] = 0.0
        return out
    if lengths is None:
        lengths = np.diff(indptr)
    if np.count_nonzero(lengths) == n_segments:
        # No empty segment: the starts are indptr itself, and the
        # reduction writes every output element.
        if out is None:
            return np.add.reduceat(values, indptr[:-1])
        if out.dtype == values.dtype:
            np.add.reduceat(values, indptr[:-1], out=out)
        else:
            out[:] = np.add.reduceat(values, indptr[:-1])
        return out
    if out is None:
        out = np.zeros(n_segments, dtype=values.dtype)
    else:
        out[:] = 0.0
    # np.add.reduceat sums values[starts[k]:starts[k+1]]; because segments of
    # empty rows contribute no entries, consecutive non-empty starts delimit
    # exactly one logical row each.
    nonempty = np.flatnonzero(lengths)
    out[nonempty] = np.add.reduceat(values, indptr[nonempty])
    return out


def _spmm_chunked(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
) -> None:
    """Accumulate ``out[i, :] += sum_j data_ij * b[col_ij, :]`` in chunks.

    ``indptr`` is local to the ``data``/``indices`` slice (starts at 0).
    Columns of ``b`` are processed ``MATMAT_CHUNK_ELEMENTS // nnz`` at a
    time; each column's reduction is independent, so the chunked result is
    bit-identical to a single dense pass.
    """
    nnz = data.size
    k = b.shape[1]
    if nnz == 0 or k == 0:
        return
    lengths = np.diff(indptr)
    nonempty = lengths > 0
    if not nonempty.any():
        return
    starts = indptr[:-1][nonempty]
    chunk = max(1, MATMAT_CHUNK_ELEMENTS // nnz)
    for j0 in range(0, k, chunk):
        j1 = min(j0 + chunk, k)
        products = data[:, None] * b[indices, j0:j1]
        out[nonempty, j0:j1] = np.add.reduceat(products, starts, axis=0)


class CsrMatrix:
    """An immutable sparse matrix in compressed sparse row format.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: int64 array of length ``n_rows + 1``; row ``i`` owns the
            entry range ``[indptr[i], indptr[i+1])``.
        indices: int64 array of column indices, sorted within each row.
        data: float64 or float32 array of values aligned with ``indices``
            (:func:`storage_dtype`: float input keeps its precision, every
            other dtype coerces to float64).
    """

    __slots__ = ("shape", "indptr", "indices", "data", "_entry_rows", "_row_lengths")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=storage_dtype(data))
        self._entry_rows: np.ndarray | None = None
        self._row_lengths: np.ndarray | None = None
        self._validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative dimension in shape {self.shape}")
        if self.indptr.shape != (n_rows + 1,):
            raise SparseFormatError(
                f"indptr must have length n_rows+1={n_rows + 1}, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.size:
            raise SparseFormatError(
                f"indptr[-1]={self.indptr[-1]} does not match nnz={self.indices.size}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise SparseFormatError("indices and data must have equal length")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise SparseFormatError("column index out of range")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    #: Registry / dispatch name of this storage format.
    format_name = "csr"

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the matrix values (the pipeline's working dtype)."""
        return self.data.dtype

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to the full ``m * n`` grid."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def row_lengths(self) -> np.ndarray:
        """Number of stored entries per row (cached; read-only).

        The matrix arrays are treated as frozen after construction, so the
        cache never needs invalidation; the returned array is marked
        non-writeable to keep it that way.
        """
        if self._row_lengths is None:
            lengths = np.diff(self.indptr)
            lengths.flags.writeable = False
            self._row_lengths = lengths
        return self._row_lengths

    def entry_rows(self) -> np.ndarray:
        """Row index of every stored entry (cached; used by scatter kernels)."""
        if self._entry_rows is None:
            self._entry_rows = np.repeat(
                np.arange(self.n_rows, dtype=np.int64), self.row_lengths()
            )
        return self._entry_rows

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matvec(
        self,
        b: np.ndarray,
        out: Optional[np.ndarray] = None,
        workspace: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Sparse matrix-vector product ``r = A b``.

        Args:
            b: dense operand of length ``n_cols``.
            out: optional float64 result buffer of length ``n_rows``;
                overwritten and returned (planned callers reuse it to
                avoid the per-call allocation).
            workspace: optional float64 scratch of length ``nnz`` holding
                the gathered products; contents are clobbered.

        The buffered and the allocating path run the same gather,
        in-place multiply and segment reduction, so their values are
        bit-identical.  The operand is coerced to the matrix's storage dtype:
        the working precision of an SpMV follows the data it multiplies.
        """
        b = np.asarray(b, dtype=self.data.dtype)
        if b.shape != (self.n_cols,):
            raise ShapeMismatchError(
                f"operand has shape {b.shape}, expected ({self.n_cols},)"
            )
        # One gather and an in-place multiply.  mode="clip" lets numpy
        # gather straight into the buffer; the default bounds-checking mode
        # buffers an nnz-sized temporary first.  Column indices are
        # validated in-range at construction, so clipping never fires.
        products = b.take(self.indices, out=workspace, mode="clip")
        np.multiply(products, self.data, out=products)
        return _segment_sums(
            products, self.indptr, self.n_rows, out=out, lengths=self.row_lengths()
        )

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        return self.matvec(b)

    def matmat(self, b: np.ndarray) -> np.ndarray:
        """Sparse-matrix × dense-block product ``R = A B`` (SpMM).

        Args:
            b: dense operand block of shape ``(n_cols, k)``.

        Returns:
            Dense result of shape ``(n_rows, k)``.

        Wide operands are processed in column chunks so the dense
        ``(nnz, chunk)`` scratch never exceeds
        :data:`MATMAT_CHUNK_ELEMENTS` elements; chunking is invisible
        numerically (each column reduces independently).
        """
        b = np.asarray(b, dtype=self.data.dtype)
        if b.ndim != 2 or b.shape[0] != self.n_cols:
            raise ShapeMismatchError(
                f"operand block has shape {b.shape}, expected ({self.n_cols}, k)"
            )
        out = np.zeros((self.n_rows, b.shape[1]), dtype=self.data.dtype)
        _spmm_chunked(self.data, self.indices, self.indptr, b, out)
        return out

    def rmatvec(self, w: np.ndarray) -> np.ndarray:
        """Transposed product ``A^T w`` (used to build dense checksum vectors)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_rows,):
            raise ShapeMismatchError(
                f"operand has shape {w.shape}, expected ({self.n_rows},)"
            )
        weighted = self.data * w[self.entry_rows()]
        return np.bincount(self.indices, weights=weighted, minlength=self.n_cols)

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row (the ``||a_i||_2`` of the error bound).

        Squared and summed in float64 regardless of the storage dtype:
        row norms feed the detection bound (the accumulation side of the
        pipeline), and float32 squares overflow at ``|a_ij| > ~1.8e19``.
        """
        squares = np.square(self.data, dtype=np.float64)
        return np.sqrt(_segment_sums(squares, self.indptr, self.n_rows))

    def diagonal(self) -> np.ndarray:
        """Main-diagonal entries as a dense vector (zeros where unstored)."""
        diag = np.zeros(min(self.shape), dtype=self.data.dtype)
        rows = self.entry_rows()
        # A stored (i, i) entry has i < min(n_rows, n_cols) by construction.
        positions = np.flatnonzero(rows == self.indices)
        diag[rows[positions]] = self.data[positions]
        return diag

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def _check_row_range(self, row_start: int, row_stop: int) -> Tuple[int, int]:
        row_start, row_stop = int(row_start), int(row_stop)
        if not (0 <= row_start <= row_stop <= self.n_rows):
            raise ShapeMismatchError(
                f"row range [{row_start}, {row_stop}) invalid for {self.n_rows} rows"
            )
        return row_start, row_stop

    def nonempty_columns(self, row_start: int, row_stop: int) -> np.ndarray:
        """Sorted unique column indices with at least one entry in the rows.

        This is the structural analysis of Figure 2 of the paper: the
        checksum matrix stores an element for block ``k`` and column ``j``
        only if some row of block ``k`` has an entry in column ``j``.
        """
        row_start, row_stop = self._check_row_range(row_start, row_stop)
        lo, hi = self.indptr[row_start], self.indptr[row_stop]
        return np.unique(self.indices[lo:hi])

    def row_slice(self, row_start: int, row_stop: int) -> "CsrMatrix":
        """Extract rows ``[row_start, row_stop)`` as a new CSR matrix."""
        row_start, row_stop = self._check_row_range(row_start, row_stop)
        lo, hi = self.indptr[row_start], self.indptr[row_stop]
        return CsrMatrix(
            (row_stop - row_start, self.n_cols),
            self.indptr[row_start : row_stop + 1] - lo,
            self.indices[lo:hi].copy(),
            self.data[lo:hi].copy(),
        )

    # ------------------------------------------------------------------
    # Conversions and algebra
    # ------------------------------------------------------------------
    def to_coo(self):
        """Convert to :class:`repro.sparse.coo.CooMatrix`."""
        from repro.sparse.coo import CooMatrix

        return CooMatrix(self.shape, self.entry_rows().copy(), self.indices.copy(), self.data.copy())

    def to_csr(self) -> "CsrMatrix":
        """Return self (completes the :class:`~repro.sparse.formats.SparseFormat`
        protocol; CSR is its own canonical form)."""
        return self

    def to_bsr(self, block_shape):
        """Convert to :class:`repro.sparse.bsr.BsrMatrix` at ``block_shape``."""
        from repro.sparse.bsr import BsrMatrix

        return BsrMatrix.from_csr(self, block_shape)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array in the storage dtype."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.entry_rows(), self.indices] = self.data
        return out

    def transpose(self) -> "CsrMatrix":
        """Return ``A^T`` as a new CSR matrix."""
        return self.to_coo().transpose().to_csr()

    def astype(self, dtype: object) -> "CsrMatrix":
        """Return a matrix with values cast to a supported storage dtype.

        Returns ``self`` when the dtype already matches (the matrix is
        immutable, so sharing is safe); raises
        :class:`~repro.errors.SparseFormatError` for non-storage dtypes.
        """
        target = np.dtype(dtype)
        if target not in SUPPORTED_STORAGE_DTYPES:
            raise SparseFormatError(
                f"unsupported storage dtype {target.name!r}; expected one of "
                f"{tuple(d.name for d in SUPPORTED_STORAGE_DTYPES)}"
            )
        if self.data.dtype == target:
            return self
        return CsrMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.astype(target),
        )

    def scaled(self, factor: float) -> "CsrMatrix":
        """Return ``factor * A`` with the same sparsity structure."""
        return CsrMatrix(self.shape, self.indptr.copy(), self.indices.copy(), self.data * factor)

    def with_data(self, data: np.ndarray) -> "CsrMatrix":
        """Return a matrix with this structure but new entry values.

        The new values keep their own storage dtype (float32 stays
        float32); non-float input coerces to float64 as at construction.
        """
        data = np.asarray(data, dtype=storage_dtype(data))
        if data.shape != self.data.shape:
            raise ShapeMismatchError(
                f"data length {data.shape} does not match nnz {self.data.shape}"
            )
        return CsrMatrix(self.shape, self.indptr.copy(), self.indices.copy(), data)

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        """True if ``A`` equals ``A^T`` within a relative tolerance."""
        if self.shape[0] != self.shape[1]:
            return False
        at = self.transpose()
        if not np.array_equal(at.indptr, self.indptr) or not np.array_equal(
            at.indices, self.indices
        ):
            return False
        scale = np.abs(self.data).max(initial=0.0)
        return bool(np.allclose(at.data, self.data, rtol=rtol, atol=rtol * scale))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("CsrMatrix is not hashable")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"
