"""repro.schemes — the protection-policy layer.

Every way of running a trustworthy SpMV — the paper's block-ABFT scheme
and the related-work baselines it is evaluated against — lives behind
one table with one driver contract:

* :class:`ProtectedSpmvResult` — the unified result type (per-check
  detections, row-range corrections, optional block ids, simulated cost);
* :class:`ProtectionScheme` — the protocol every scheme satisfies
  (``multiply``/``detection_graph`` bound to one matrix, with injected
  kernels and telemetry);
* a fixed table of the built-ins (:func:`make_scheme` /
  :func:`resolve_scheme`) and the ``REPRO_SCHEME`` environment
  override, built on the one registry and selector of
  :mod:`repro.registry`.

Built-ins: ``abft`` (the paper's scheme), ``dense_check``, ``complete``,
``bisection``, ``checkpoint``, ``redundancy`` (DWC), ``tmr`` and
``vabft`` (block-ABFT with online variance-adaptive thresholds).
Campaigns, sweeps, the CLI and :func:`repro.solvers.ft_pcg.run_pcg`
resolve schemes exclusively through this table.
"""

from repro.schemes.base import ProtectionScheme, TamperHook
from repro.schemes.registry import (
    BUILTIN_SCHEMES,
    DEFAULT_CORRECTION_SCHEMES,
    DEFAULT_PCG_SCHEMES,
    DEFAULT_SCHEME,
    SCHEME_ENV_VAR,
    SchemeFactory,
    available_schemes,
    canonical_scheme_name,
    get_scheme_factory,
    make_scheme,
    resolve_scheme,
)
from repro.schemes.result import ProtectedSpmvResult

__all__ = [
    "ProtectedSpmvResult",
    "ProtectionScheme",
    "TamperHook",
    "SchemeFactory",
    "SCHEME_ENV_VAR",
    "DEFAULT_SCHEME",
    "DEFAULT_CORRECTION_SCHEMES",
    "DEFAULT_PCG_SCHEMES",
    "BUILTIN_SCHEMES",
    "available_schemes",
    "canonical_scheme_name",
    "get_scheme_factory",
    "make_scheme",
    "resolve_scheme",
]
