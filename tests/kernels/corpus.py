"""Generated matrix corpus for the kernel differential-testing suite.

Every case is a ``(name, matrix, block_size)`` triple chosen to stress a
specific structural edge: random sparsity patterns, blocks whose rows are
all empty, single-row blocks, ragged last blocks, rectangular shapes,
structurally-stored zeros from exact cancellation, the degenerate
zero-row and zero-column matrices, a single-row matrix, a dense arrow
row, float32 storage and subnormal values.  Row blocks whose column
envelopes hold more than ``ENVELOPE_CELLS_PER_ENTRY`` cells per entry
make the vectorized encoder sort instead of marking envelope cells;
``rect-wide-envelope`` and ``order-sensitive-wide`` take that path, every
other case the envelope pass.  One column of the ``order-sensitive``
cases sums to 0.0 in row order and to 1.0 under ``np.add.reduceat``'s
pairing.  All generation is seeded — the corpus is identical on every
run.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.sparse import CooMatrix, CsrMatrix, random_spd


def _random_rectangular(
    n_rows: int, n_cols: int, nnz: int, seed: int
) -> CsrMatrix:
    """Random rectangular CSR; duplicate COO draws merge on conversion."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n_rows, size=nnz).astype(np.int64)
    cols = rng.integers(0, n_cols, size=nnz).astype(np.int64)
    data = rng.standard_normal(nnz)
    return CooMatrix((n_rows, n_cols), rows, cols, data).to_csr()


def _empty_block_matrix(block_size: int = 8) -> CsrMatrix:
    """40 rows where rows 8..23 store nothing: blocks 1 and 2 are empty."""
    rng = np.random.default_rng(99)
    rows = np.concatenate(
        [rng.integers(0, 8, size=30), rng.integers(24, 40, size=40)]
    ).astype(np.int64)
    cols = rng.integers(0, 40, size=rows.size).astype(np.int64)
    data = rng.standard_normal(rows.size)
    assert block_size == 8  # the row gap above is sized for 8-row blocks
    return CooMatrix((40, 40), rows, cols, data).to_csr()


def _cancellation_matrix() -> CsrMatrix:
    """Duplicate COO entries that sum to exactly zero.

    Deduplication keeps the cancelled entry as a *structural* zero, so the
    checksum structure pass must still see the column as occupied.
    """
    rows = np.array([0, 0, 1, 2, 2, 3, 3, 3], dtype=np.int64)
    cols = np.array([1, 1, 0, 3, 3, 2, 2, 4], dtype=np.int64)
    data = np.array([2.5, -2.5, 1.0, 4.0, -4.0, 1.5, 2.5, -3.0])
    return CooMatrix((4, 5), rows, cols, data).to_csr()


def _zero_rows_matrix() -> CsrMatrix:
    """Every row empty (nnz = 0) — all checksum rows are empty too."""
    return CsrMatrix(
        (12, 7),
        np.zeros(13, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _no_rows_matrix() -> CsrMatrix:
    """Zero-row matrix: the partition has no blocks at all."""
    return CsrMatrix(
        (0, 5),
        np.zeros(1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _no_cols_matrix() -> CsrMatrix:
    """Zero-column matrix: rows and blocks exist, but no operand entries."""
    return CsrMatrix(
        (9, 0),
        np.zeros(10, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _arrow_matrix(n: int = 33) -> CsrMatrix:
    """Row 0 holds every column; every other row holds its diagonal and
    column 0.  One block carries most of the work."""
    rng = np.random.default_rng(7)
    others = np.arange(1, n, dtype=np.int64)
    rows = np.concatenate([np.zeros(n, dtype=np.int64), others, others])
    cols = np.concatenate(
        [np.arange(n, dtype=np.int64), others, np.zeros(n - 1, dtype=np.int64)]
    )
    data = rng.standard_normal(rows.size)
    return CooMatrix((n, n), rows, cols, data).to_csr()


def _order_sensitive_matrix(n_cols: int) -> CsrMatrix:
    """Rows 0, 1 and 2 of block 0 store 1.0, 1e16 and -1e16 in column 1.

    Summed in row order, ``(1.0 + 1e16) - 1e16`` is exactly 0.0; the
    ``a0 + (a1 + a2)`` of ``np.add.reduceat``'s pairing gives 1.0.  Row 3
    reaches column ``n_cols - 1``: a wide ``n_cols`` stretches block 0's
    envelope past the sort threshold.
    """
    rows = np.array([0, 1, 2, 0, 3, 3, 4, 5], dtype=np.int64)
    cols = np.array([1, 1, 1, 0, 2, n_cols - 1, 0, 3], dtype=np.int64)
    data = np.array([1.0, 1e16, -1e16, 0.5, 2.0, -1.5, 3.0, 0.25])
    return CooMatrix((6, n_cols), rows, cols, data).to_csr()


def corpus() -> List[Tuple[str, CsrMatrix, int]]:
    """The full differential-testing corpus."""
    return [
        ("spd-small", random_spd(57, 300, seed=0), 8),
        ("spd-mid", random_spd(130, 900, seed=1), 32),
        ("spd-single-row-blocks", random_spd(19, 80, seed=2), 1),
        ("spd-one-block", random_spd(24, 120, seed=5), 32),
        ("rect-wide", _random_rectangular(24, 80, 150, seed=3), 8),
        ("rect-tall-ragged", _random_rectangular(45, 10, 120, seed=4), 7),
        ("empty-blocks", _empty_block_matrix(), 8),
        ("cancellation-zeros", _cancellation_matrix(), 2),
        ("all-rows-empty", _zero_rows_matrix(), 4),
        ("no-rows", _no_rows_matrix(), 4),
        ("float32-storage", random_spd(64, 400, seed=6).astype(np.float32), 8),
        ("no-cols", _no_cols_matrix(), 4),
        ("single-row", _random_rectangular(1, 30, 20, seed=9), 4),
        ("arrow-dense-row", _arrow_matrix(), 8),
        ("subnormal-values", random_spd(40, 200, seed=8).scaled(1e-310), 8),
        ("rect-wide-envelope", _random_rectangular(16, 4000, 48, seed=10), 8),
        ("order-sensitive", _order_sensitive_matrix(6), 4),
        ("order-sensitive-wide", _order_sensitive_matrix(400), 4),
    ]


def corpus_ids() -> List[str]:
    return [name for name, _, _ in corpus()]
