"""repro — Efficient Algorithm-Based Fault Tolerance for Sparse Matrix Operations.

A from-scratch reproduction of Schöll, Braun, Kochte & Wunderlich (DSN 2016):
block-based ABFT for sparse matrix-vector multiplication with implicit error
localization, analytical sparse rounding-error bounds, baseline schemes from
the related work, a fault-tolerant PCG solver, and the full experimental
harness (fault injection, machine model, campaign framework).

Quickstart::

    import numpy as np
    from repro import FaultTolerantSpMV, suite_matrix

    a = suite_matrix("nos3")
    ft = FaultTolerantSpMV(a, block_size=32)
    b = np.ones(a.n_cols)
    result = ft.multiply(b)           # protected SpMV
    assert result.corrected_blocks == ()
"""

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    InjectionError,
    ReproError,
    SchedulerError,
    ShapeMismatchError,
    SingularMatrixError,
    SparseFormatError,
)
from repro.sparse import (
    CooMatrix,
    CsrMatrix,
    banded_spd,
    poisson2d,
    poisson3d,
    random_spd,
    suite_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SparseFormatError",
    "ShapeMismatchError",
    "SingularMatrixError",
    "ConvergenceError",
    "SchedulerError",
    "InjectionError",
    "ConfigurationError",
    # sparse substrate
    "CooMatrix",
    "CsrMatrix",
    "banded_spd",
    "poisson2d",
    "poisson3d",
    "random_spd",
    "suite_matrix",
]

try:  # pragma: no cover - core lands later in the staged build
    from repro.core import (  # noqa: F401
        AbftConfig,
        BlockAbftDetector,
        FaultTolerantSpMV,
    )

    __all__ += ["AbftConfig", "BlockAbftDetector", "FaultTolerantSpMV"]
except ImportError:  # pragma: no cover
    pass

try:  # pragma: no cover - schemes land later in the staged build
    from repro.schemes import (  # noqa: F401
        ProtectedSpmvResult,
        ProtectionScheme,
        available_schemes,
        make_scheme,
        resolve_scheme,
    )

    __all__ += [
        "ProtectedSpmvResult",
        "ProtectionScheme",
        "available_schemes",
        "make_scheme",
        "resolve_scheme",
    ]
except ImportError:  # pragma: no cover
    pass
