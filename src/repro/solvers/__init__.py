"""Iterative-solver substrate: PCG, preconditioners, fault-tolerant drivers."""

from repro.solvers.ft_pcg import SCHEMES, FtPcgOptions, FtPcgResult, run_pcg
from repro.solvers.pcg import (
    DEFAULT_TOLERANCE,
    MAX_ITERATION_FACTOR,
    PcgResult,
    pcg,
)
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
)

__all__ = [
    "pcg",
    "PcgResult",
    "DEFAULT_TOLERANCE",
    "MAX_ITERATION_FACTOR",
    "run_pcg",
    "FtPcgOptions",
    "FtPcgResult",
    "SCHEMES",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
]
