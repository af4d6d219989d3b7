"""Sparse-matrix substrate: COO/CSR formats, kernels, generators, and I/O.

Built from scratch (no SciPy) so the ABFT layer can reason about — and the
machine model can cost — every kernel it relies on.
"""

from repro.sparse.construct import add, diags, identity, shift, subtract
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.bsr import BsrMatrix
from repro.sparse.formats import (
    AUTO_FORMAT,
    BSR_BLOCK_CANDIDATES,
    BSR_MIN_FILL,
    BUILTIN_FORMATS,
    DEFAULT_FORMAT,
    FORMAT_ENV_VAR,
    FormatChoice,
    SparseFormat,
    available_formats,
    bsr_fill_ratio,
    build_format,
    canonical_format_name,
    probe_block_shape,
    resolve_format_name,
    select_format,
)
from repro.sparse.generators import (
    arrowhead_spd,
    banded_spd,
    block_stencil_spd,
    poisson2d,
    poisson3d,
    random_spd,
)
from repro.sparse.mmio import matrix_market_string, read_matrix_market, write_matrix_market
from repro.sparse.reordering import (
    bandwidth,
    cuthill_mckee,
    permute_vector,
    profile,
    random_permutation,
    reverse_cuthill_mckee,
    symmetric_permute,
)
from repro.sparse.validate import (
    MatrixReport,
    assert_spd_like,
    inspect_matrix,
    render_report,
)
from repro.sparse.suite import (
    QUICK_SUITE,
    SUITE_SPECS,
    MatrixSpec,
    iter_suite,
    spec_for,
    suite_matrix,
)

__all__ = [
    "CooMatrix",
    "identity",
    "diags",
    "add",
    "subtract",
    "shift",
    "CsrMatrix",
    "BsrMatrix",
    "SparseFormat",
    "FormatChoice",
    "FORMAT_ENV_VAR",
    "DEFAULT_FORMAT",
    "BUILTIN_FORMATS",
    "AUTO_FORMAT",
    "BSR_BLOCK_CANDIDATES",
    "BSR_MIN_FILL",
    "available_formats",
    "canonical_format_name",
    "resolve_format_name",
    "select_format",
    "build_format",
    "bsr_fill_ratio",
    "probe_block_shape",
    "arrowhead_spd",
    "banded_spd",
    "block_stencil_spd",
    "poisson2d",
    "poisson3d",
    "random_spd",
    "read_matrix_market",
    "bandwidth",
    "profile",
    "cuthill_mckee",
    "reverse_cuthill_mckee",
    "symmetric_permute",
    "permute_vector",
    "random_permutation",
    "write_matrix_market",
    "matrix_market_string",
    "MatrixSpec",
    "SUITE_SPECS",
    "QUICK_SUITE",
    "iter_suite",
    "spec_for",
    "suite_matrix",
    "MatrixReport",
    "inspect_matrix",
    "assert_spd_like",
    "render_report",
]
