"""Exception hierarchy for the :mod:`repro` package.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at API boundaries while tests can assert on precise
subclasses.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class SparseFormatError(ReproError):
    """A sparse matrix violates a structural invariant (CSR/COO layout)."""


class ShapeMismatchError(ReproError):
    """Operand shapes are incompatible for the requested operation."""


class SingularMatrixError(ReproError):
    """A matrix required to be non-singular (or SPD) is not."""


class ConvergenceError(ReproError):
    """An iterative solver exhausted its iteration budget."""


class SchedulerError(ReproError):
    """The machine-model scheduler was given an invalid task graph."""


class InjectionError(ReproError):
    """A fault-injection request is malformed (bad target, bad burst)."""


class ConfigurationError(ReproError):
    """An ABFT scheme or experiment was configured inconsistently."""

