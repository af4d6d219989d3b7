"""Block Compressed Sparse Row (BSR) matrices.

BSR stores a matrix as a CSR-like structure over dense ``(br, bc)`` tiles:
``indptr``/``indices`` index *block* rows and *block* columns, and every
stored block carries a dense tile of values.  For matrices whose nonzeros
cluster into dense blocks (FEM with multiple degrees of freedom per node,
structured-sparsity ML operands), the tile layout replaces the per-entry
``np.take`` gather of CSR SpMV with one contiguous gather per tile and a
batched ``(br, bc) @ (bc,)`` product — the format-aware kernel engine's
main speed lever.

BSR is also the natural ABFT format: checksum blocks align with storage
block rows, so block recomputation (the correction kernel) operates on
whole dense tiles.  :meth:`BsrMatrix.matvec` and the planned shard
executors in :mod:`repro.perf.plan` share the tile pipeline — each output
row is reduced over its block row's tiles in storage order, so a shard
that starts or stops inside a block row reproduces the full multiply's
bits row for row.

Construction is one pass over the CSR entries (:class:`TileLayout`): the
pass that counts a tile shape's fill ratio for the plan-time format probe
is the pass the winning shape's storage is scattered through.

Fill slots (tile positions with no underlying entry) hold exact zeros and
are tracked in :attr:`BsrMatrix.mask`, which makes CSR round trips exact
(explicit stored zeros survive) and keeps nnz accounting honest:
:attr:`BsrMatrix.fill_ratio` is the fraction of tile slots holding real
entries — the number the plan-time format heuristics key on.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ShapeMismatchError, SparseFormatError
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix, storage_dtype

BlockShape = Union[int, Tuple[int, int]]


def _normalize_block_shape(block_shape: BlockShape) -> Tuple[int, int]:
    if isinstance(block_shape, int):
        shape = (block_shape, block_shape)
    else:
        shape = (int(block_shape[0]), int(block_shape[1]))
    if shape[0] < 1 or shape[1] < 1:
        raise SparseFormatError(
            f"block shape must be >= 1 in both dimensions, got {shape}"
        )
    return shape


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TileLayout:
    """The tiles a CSR matrix occupies at one tile shape: one pass over its
    entries, shared by the fill probe and the BSR build.

    Each entry's tile column is computed once.  Consecutive entries of one
    row in the same tile column collapse into a *run* (CSR rows are
    column-sorted, so a dense tile row is a single run; an unsorted row
    only makes more runs), each run gets the key
    ``block_row * n_block_cols + block_col``, and sorting the run keys
    counts the distinct tiles.  :attr:`fill_ratio` needs nothing more;
    :meth:`to_bsr` scatters the entries through the run → tile map.

    Attributes:
        csr: the source matrix.
        block_shape: ``(br, bc)`` tile dimensions.
        run_starts: entry index where each run starts.
        run_rows: row of each run.
        run_keys: tile key of each run.
        tile_keys: sorted distinct tile keys, one per stored tile.
    """

    __slots__ = ("csr", "block_shape", "run_starts", "run_rows", "run_keys", "tile_keys")

    def __init__(self, csr: CsrMatrix, block_shape: BlockShape) -> None:
        self.csr = csr
        self.block_shape = br, bc = _normalize_block_shape(block_shape)
        block_cols = csr.indices // bc
        starts = np.ones(block_cols.size, dtype=bool)
        np.not_equal(block_cols[1:], block_cols[:-1], out=starts[1:])
        # A run never spans rows: to_bsr places a run's entries by its row.
        row_starts = csr.indptr[:-1]
        starts[row_starts[row_starts < block_cols.size]] = True
        self.run_starts = np.flatnonzero(starts)
        self.run_rows = np.repeat(
            np.arange(csr.n_rows, dtype=np.int64),
            np.diff(np.searchsorted(self.run_starts, csr.indptr)),
        )
        stride = _key_stride(csr, bc)
        self.run_keys = (self.run_rows // br) * stride + block_cols[self.run_starts]
        keys = np.sort(self.run_keys)
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        self.tile_keys = keys[distinct]

    @property
    def n_tiles(self) -> int:
        """Number of tiles a BSR build stores."""
        return int(self.tile_keys.size)

    @property
    def fill_ratio(self) -> float:
        """Fraction of the tiles' slots holding entries (0.0 when empty)."""
        br, bc = self.block_shape
        nnz = self.csr.nnz
        return nnz / (self.n_tiles * br * bc) if nnz else 0.0

    def to_bsr(self) -> "BsrMatrix":
        """Build the BSR storage: one scatter of the entries into their tiles."""
        csr = self.csr
        br, bc = self.block_shape
        stride = _key_stride(csr, bc)
        indptr = np.zeros(_ceil_div(csr.n_rows, br) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.tile_keys // stride, minlength=indptr.size - 1),
            out=indptr[1:],
        )
        # An entry's flat slot is its run's base plus its column: the run's
        # tile times the tile size, plus its row in the tile times bc, minus
        # the first column of its tile column.
        run_tiles = np.searchsorted(self.tile_keys, self.run_keys)
        base = run_tiles * (br * bc) + (self.run_rows % br - self.run_keys % stride) * bc
        slots = np.repeat(base, np.diff(self.run_starts, append=csr.nnz))
        slots += csr.indices
        data = np.zeros((self.n_tiles, br, bc), dtype=csr.data.dtype)
        data.reshape(-1)[slots] = csr.data
        mask = np.zeros(data.shape, dtype=bool)
        mask.reshape(-1)[slots] = True
        return BsrMatrix(
            csr.shape, (br, bc), indptr, self.tile_keys % stride, data, mask
        )


def _key_stride(csr: CsrMatrix, bc: int) -> int:
    """Block-column count in a tile key (at least 1, for zero columns)."""
    return max(_ceil_div(csr.n_cols, bc), 1)


class BsrMatrix:
    """An immutable sparse matrix in block compressed sparse row format.

    Attributes:
        shape: logical ``(n_rows, n_cols)`` (need not be block-aligned;
            ragged edges are padded inside the boundary tiles).
        block_shape: ``(br, bc)`` tile dimensions.
        indptr: int64 array of length ``n_block_rows + 1``; block row ``i``
            owns the tile range ``[indptr[i], indptr[i+1])``.
        indices: int64 array of block-column ids, sorted within each block
            row.
        data: float64 or float32 tile array of shape ``(n_tiles, br, bc)``;
            fill slots hold 0.0 (the storage dtype round-trips through
            CSR/COO conversions).
        mask: bool array of shape ``(n_tiles, br, bc)``; True where the
            slot holds a real (stored) entry — including explicit zeros,
            so CSR round trips are exact.
    """

    __slots__ = (
        "shape", "block_shape", "indptr", "indices", "data", "mask", "_tile_rows",
    )

    def __init__(
        self,
        shape: Tuple[int, int],
        block_shape: BlockShape,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        mask: Optional[np.ndarray] = None,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.block_shape = _normalize_block_shape(block_shape)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.data = np.ascontiguousarray(data, dtype=storage_dtype(data))
        if mask is None:
            # reprolint: disable=ABFT003 -- structural default: without an
            # explicit mask, exactly the nonzero slots count as entries
            mask = self.data != 0.0
        self.mask = np.ascontiguousarray(mask, dtype=bool)
        self._tile_rows: Optional[np.ndarray] = None
        self._validate()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        n_rows, n_cols = self.shape
        br, bc = self.block_shape
        if n_rows < 0 or n_cols < 0:
            raise SparseFormatError(f"negative dimension in shape {self.shape}")
        nbr = self.n_block_rows
        if self.indptr.shape != (nbr + 1,):
            raise SparseFormatError(
                f"indptr must have length n_block_rows+1={nbr + 1}, "
                f"got {self.indptr.shape}"
            )
        if self.indptr[0] != 0:
            raise SparseFormatError("indptr[0] must be 0")
        if self.indptr[-1] != self.indices.size:
            raise SparseFormatError(
                f"indptr[-1]={self.indptr[-1]} does not match tile count "
                f"{self.indices.size}"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if self.data.shape != (self.indices.size, br, bc):
            raise SparseFormatError(
                f"data must have shape (n_tiles, {br}, {bc})="
                f"({self.indices.size}, {br}, {bc}), got {self.data.shape}"
            )
        if self.mask.shape != self.data.shape:
            raise SparseFormatError("mask must have the same shape as data")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_block_cols:
                raise SparseFormatError("block-column index out of range")
            # Fill slots must hold 0.0 (they are never computed values).
            # NaN reads as nonzero and -0.0 as zero; the reduction gathers
            # no copy of the fill slots.
            if np.any(self.data, where=~self.mask):
                raise SparseFormatError("fill slots must hold 0.0")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    #: Registry / dispatch name of this storage format.
    format_name = "bsr"

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def n_block_rows(self) -> int:
        return _ceil_div(self.shape[0], self.block_shape[0])

    @property
    def n_block_cols(self) -> int:
        return _ceil_div(self.shape[1], self.block_shape[1])

    @property
    def n_tiles(self) -> int:
        """Number of stored dense tiles."""
        return int(self.indices.size)

    @property
    def nnz(self) -> int:
        """Real (non-fill) entries."""
        return int(self.mask.sum())

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the tile values (the pipeline's working dtype)."""
        return self.data.dtype

    @property
    def fill_ratio(self) -> float:
        """Fraction of stored tile slots holding real entries (1.0 = dense
        tiles, the regime where BSR beats CSR)."""
        slots = self.mask.size
        return self.nnz / slots if slots else 0.0

    def tile_rows(self) -> np.ndarray:
        """Block-row id of every stored tile (cached; read-only)."""
        if self._tile_rows is None:
            rows = np.repeat(
                np.arange(self.n_block_rows, dtype=np.int64),
                np.diff(self.indptr),
            )
            rows.flags.writeable = False
            self._tile_rows = rows
        return self._tile_rows

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CsrMatrix, block_shape: BlockShape) -> "BsrMatrix":
        """Convert a CSR matrix, materializing every touched tile densely."""
        return TileLayout(csr, block_shape).to_bsr()

    @classmethod
    def from_coo(cls, coo: CooMatrix, block_shape: BlockShape) -> "BsrMatrix":
        """Convert a COO matrix (duplicates summed, as in COO→CSR)."""
        return cls.from_csr(coo.to_csr(), block_shape)

    def to_csr(self) -> CsrMatrix:
        """Convert back to CSR exactly (fill dropped, explicit zeros kept)."""
        return self.to_coo().to_csr()

    def to_coo(self) -> CooMatrix:
        """Extract the real (masked) entries as a COO matrix."""
        br, bc = self.block_shape
        tile_id, tile_r, tile_c = np.nonzero(self.mask)
        rows = self.tile_rows()[tile_id] * br + tile_r
        cols = self.indices[tile_id] * bc + tile_c
        return CooMatrix(self.shape, rows, cols, self.data[tile_id, tile_r, tile_c])

    def to_dense(self) -> np.ndarray:
        """Materialize the real entries as a dense float64 array."""
        return self.to_coo().to_dense()

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def padded_operand(self, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy ``b`` into a ``(n_block_cols * bc,)`` zero-padded buffer.

        ``out``, when given, must be in the storage dtype, of exactly that
        length, with its tail already zeroed; it is the planned path's
        reusable buffer.
        """
        b = np.asarray(b, dtype=self.data.dtype)
        if b.shape != (self.n_cols,):
            raise ShapeMismatchError(
                f"operand has shape {b.shape}, expected ({self.n_cols},)"
            )
        padded = self.n_block_cols * self.block_shape[1]
        if out is None:
            out = np.zeros(padded, dtype=self.data.dtype)
        out[: self.n_cols] = b
        return out

    def matvec(self, b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """SpMV through the tile pipeline (gather → einsum → reduceat).

        Fill slots contribute exact zeros, so the value differs from the
        CSR multiply only by summation association — bound-level, never
        bit-level equal in general.
        """
        value2d = self._block_rows_matvec(
            0, self.n_block_rows, self.padded_operand(b)
        )
        flat = value2d.reshape(-1)[: self.n_rows]
        if out is None:
            return flat.copy()
        out[:] = flat
        return out

    def __matmul__(self, b: np.ndarray) -> np.ndarray:
        return self.matvec(b)

    def _block_rows_matvec(
        self, block_row_start: int, block_row_stop: int, padded_b: np.ndarray
    ) -> np.ndarray:
        """Tile pipeline over block rows ``[block_row_start, block_row_stop)``.

        This is the one place the BSR summation association is defined:
        per tile, ``einsum("nij,nj->ni")`` dots each tile row with its
        operand slice; per block row, ``np.add.reduceat`` accumulates the
        tile partials left to right in storage order.  The planned shard
        executors (:mod:`repro.perf.plan`) replay exactly these ops, so a
        sharded multiply reproduces the full multiply bit for bit.
        """
        br, bc = self.block_shape
        lo = int(self.indptr[block_row_start])
        hi = int(self.indptr[block_row_stop])
        n_local = block_row_stop - block_row_start
        out2d = np.zeros((n_local, br), dtype=self.data.dtype)
        if hi == lo or n_local == 0:
            return out2d
        bview = padded_b.reshape(self.n_block_cols, bc)
        tiles = bview[self.indices[lo:hi]]
        prod = np.empty((hi - lo, br), dtype=self.data.dtype)
        np.einsum("nij,nj->ni", self.data[lo:hi], tiles, out=prod)
        local_ptr = self.indptr[block_row_start : block_row_stop + 1] - lo
        lengths = np.diff(local_ptr)
        nonempty = lengths > 0
        starts = local_ptr[:-1][nonempty]
        out2d[nonempty] = np.add.reduceat(prod, starts, axis=0)
        return out2d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BsrMatrix(shape={self.shape}, block_shape={self.block_shape}, "
            f"tiles={self.n_tiles}, nnz={self.nnz}, fill={self.fill_ratio:.2f})"
        )
