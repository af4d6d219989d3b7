"""Dtype policies: working precision, accumulation precision, eps model.

The paper derives its detection bound for IEEE double precision
(``eps_M = 2^-53``, Section III-C), and historically that assumption was
hard-coded as ``np.float64`` coercions across the whole stack.  A
:class:`DtypePolicy` makes the precision contract explicit and
selectable:

* the **working dtype** is the precision of stored matrix values,
  operands and results (the memory-bandwidth-bound side of SpMV);
* the **accumulation dtype** is the precision of checksum rows,
  ``t1``/``t2`` and syndromes — every builtin policy accumulates in
  float64, mirroring the mixed-precision ABFT literature where the
  checksum side runs wider than the data side;
* the **epsilon model** maps a *storage* dtype to the unit roundoff the
  analytical bounds should assume for data held in it.  The model keys
  on the dtype of the data actually being protected, not on the policy
  name, so forcing ``REPRO_DTYPE=float32`` process-wide cannot loosen
  the bound of a float64 matrix that happens to be in the same process.

Resolution follows the selection rule of :mod:`repro.registry` (first
match wins): an explicit ``dtype=`` argument, the :data:`DTYPE_ENV_VAR`
environment variable (``REPRO_DTYPE``, overriding *configured*
selections only), ``AbftConfig.dtype``, then :data:`DEFAULT_DTYPE`
(``"float64"`` — existing callers see bit-identical results until they
opt in).

``bfloat16`` has no native NumPy dtype, so the builtin policy emulates
it *via float32 storage*: values are rounded to the bfloat16 grid
(:meth:`DtypePolicy.quantize`) and the epsilon model declares
float32-stored data to carry only bfloat16 precision (``2^-8``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs import Telemetry

#: Environment variable that overrides the configured dtype policy.
DTYPE_ENV_VAR = "REPRO_DTYPE"

#: Policy used when neither a name nor the environment selects one.
DEFAULT_DTYPE = "float64"

#: Dtype policies that ship with the library.
BUILTIN_DTYPES = ("float64", "float32", "bfloat16")

#: Accepted spellings for the builtin policies.
DTYPE_ALIASES = {
    "f64": "float64",
    "double": "float64",
    "fp64": "float64",
    "f32": "float32",
    "single": "float32",
    "fp32": "float32",
    "bf16": "bfloat16",
}

#: Unit roundoff of IEEE binary64 (the paper's ``eps_M``).
EPS_FLOAT64 = 2.0 ** -53

#: Unit roundoff of IEEE binary32.
EPS_FLOAT32 = 2.0 ** -24

#: Unit roundoff of bfloat16 (8-bit significand).
EPS_BFLOAT16 = 2.0 ** -8

#: Storage-dtype -> unit-roundoff model shared by the float64 and
#: float32 policies: eps tracks the precision values are actually held
#: in, so a policy can narrow storage but never loosen a wider matrix's
#: bound.
_NATIVE_EPSILONS: Mapping[str, float] = MappingProxyType(
    {"float64": EPS_FLOAT64, "float32": EPS_FLOAT32}
)

#: The bfloat16 emulation model: float32-stored data is declared to
#: carry only bfloat16 precision (values live on the bf16 grid).
_BFLOAT16_EPSILONS: Mapping[str, float] = MappingProxyType(
    {"float64": EPS_FLOAT64, "float32": EPS_BFLOAT16}
)


def _round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float32 values to the nearest bfloat16 (ties to even).

    bfloat16 is float32 with the low 16 mantissa bits dropped, so the
    rounding is pure bit arithmetic on the float32 view; the result is
    returned as float32 (every bfloat16 value is exactly representable).
    """
    working = np.ascontiguousarray(values, dtype=np.float32)
    bits = working.view(np.uint32)
    rounded = (bits + np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1)))
    return (rounded & np.uint32(0xFFFF0000)).view(np.float32)


@dataclass(frozen=True)
class DtypePolicy:
    """One precision contract: storage, accumulation and eps model.

    Attributes:
        name: registry name (``"float64"``, ``"float32"``, ``"bfloat16"``).
        working: NumPy dtype name of stored values and operands.
        accumulation: NumPy dtype name of checksum rows and syndromes.
        epsilons: storage-dtype-name -> unit-roundoff map used by the
            analytical bounds (:meth:`epsilon_for`).
        quantized: True when working values live on a coarser grid than
            the working dtype represents (bfloat16-via-float32); such
            policies round through :meth:`quantize`.
    """

    name: str
    working: str
    accumulation: str
    epsilons: Mapping[str, float] = field(
        default_factory=lambda: _NATIVE_EPSILONS
    )
    quantized: bool = False

    def __post_init__(self) -> None:
        for label, dtype_name in (("working", self.working),
                                  ("accumulation", self.accumulation)):
            try:
                dtype = np.dtype(dtype_name)
            except TypeError as exc:
                raise ConfigurationError(
                    f"dtype policy {self.name!r}: invalid {label} dtype "
                    f"{dtype_name!r}"
                ) from exc
            if dtype.kind != "f":
                raise ConfigurationError(
                    f"dtype policy {self.name!r}: {label} dtype must be a "
                    f"float dtype, got {dtype_name!r}"
                )

    # ------------------------------------------------------------------
    # Dtype handles
    # ------------------------------------------------------------------
    @property
    def working_dtype(self) -> np.dtype:
        """The NumPy dtype of stored values and operands."""
        return np.dtype(self.working)

    @property
    def accumulation_dtype(self) -> np.dtype:
        """The NumPy dtype of checksum rows, ``t1``/``t2`` and syndromes."""
        return np.dtype(self.accumulation)

    # ------------------------------------------------------------------
    # Epsilon model
    # ------------------------------------------------------------------
    def epsilon_for(self, storage_dtype: object) -> float:
        """Unit roundoff the bounds should assume for ``storage_dtype`` data.

        Keys on the dtype of the data being protected: a float64 matrix
        always gets ``2^-53`` no matter which policy is active, while a
        float32 matrix gets ``2^-24`` (or ``2^-8`` under the bfloat16
        emulation policy, which declares float32 storage to hold only
        bfloat16-precision values).  Unknown storage dtypes fall back to
        NumPy's own ``finfo`` epsilon (``eps/2`` = unit roundoff).
        """
        name = np.dtype(storage_dtype).name
        known = self.epsilons.get(name)
        if known is not None:
            return float(known)
        return float(np.finfo(np.dtype(storage_dtype)).eps) / 2.0

    # ------------------------------------------------------------------
    # Value shaping
    # ------------------------------------------------------------------
    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` onto the policy's representable grid.

        Identity for the native policies; the bfloat16 policy rounds to
        the nearest bfloat16 and returns float32 (its storage carrier).
        """
        if not self.quantized:
            return np.asarray(values)
        return _round_to_bfloat16(values)

    def cast_working(self, values: np.ndarray) -> np.ndarray:
        """``values`` in the working dtype, quantized, copying only if needed."""
        working = np.asarray(values, dtype=self.working_dtype)
        return self.quantize(working)


#: The frozen-default policy: the paper's float64 contract, verbatim.
FLOAT64_POLICY = DtypePolicy(
    name="float64", working="float64", accumulation="float64",
    epsilons=_NATIVE_EPSILONS,
)

#: Narrow storage, float64 accumulation (the mixed-precision SpMV case).
FLOAT32_POLICY = DtypePolicy(
    name="float32", working="float32", accumulation="float64",
    epsilons=_NATIVE_EPSILONS,
)

#: bfloat16 emulated via float32 storage: values on the bf16 grid,
#: float32 carrier, float64 accumulation.
BFLOAT16_POLICY = DtypePolicy(
    name="bfloat16", working="float32", accumulation="float64",
    epsilons=_BFLOAT16_EPSILONS, quantized=True,
)

#: Dtype policies by name; spellings fold case and whitespace and
#: accept :data:`DTYPE_ALIASES`.
DTYPE_REGISTRY: Registry[DtypePolicy] = Registry(
    "dtype policy", builtins=BUILTIN_DTYPES, entry_type=DtypePolicy,
    key=lambda policy: policy.name, fold=True, aliases=DTYPE_ALIASES)
for _policy in (FLOAT64_POLICY, FLOAT32_POLICY, BFLOAT16_POLICY):
    DTYPE_REGISTRY.register(_policy)

#: ``REPRO_DTYPE`` overrides ``AbftConfig.dtype``; an explicit ``dtype=`` beats both.
DTYPE_SELECTOR = Selector("dtype", DTYPE_ENV_VAR, DTYPE_REGISTRY, DEFAULT_DTYPE)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def canonical_dtype_name(name: object) -> str:
    """Validate a dtype-policy selection, returning its canonical name.

    Accepts the builtin policy names, their aliases, any registered
    extension and policy objects; anything else raises
    :class:`~repro.errors.ConfigurationError`.
    """
    return DTYPE_REGISTRY.canonical(name)


def available_dtypes() -> Tuple[str, ...]:
    """Registered dtype-policy names, sorted."""
    return DTYPE_REGISTRY.available()


def get_dtype_policy(name: object) -> DtypePolicy:
    """The registered policy for ``name`` (aliases accepted)."""
    return DTYPE_REGISTRY.get(name)


def register_dtype_policy(policy: DtypePolicy, replace: bool = False) -> None:
    """Register an extension dtype policy under ``policy.name``.

    Builtin policies are protected: they can be neither replaced nor
    shadowed.  Re-registering an extension name requires
    ``replace=True``.
    """
    DTYPE_REGISTRY.register(policy, overwrite=replace)


def unregister_dtype_policy(name: str) -> None:
    """Remove an extension policy; builtins are protected."""
    DTYPE_REGISTRY.unregister(name)


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def resolve_dtype_name(
    configured: Optional[str] = None,
    explicit: Optional[str] = None,
    default: str = DEFAULT_DTYPE,
) -> str:
    """Resolve a dtype-policy selection to a canonical name.

    Follows the selection rule of :mod:`repro.registry`: ``explicit`` (a
    programmatic argument), then the :data:`DTYPE_ENV_VAR` environment
    variable, then the ``configured`` name (usually
    ``AbftConfig.dtype``), then ``default``.
    """
    return DTYPE_SELECTOR.resolve(default if configured is None else configured, explicit)


def resolve_dtype_policy(
    configured: Optional[str] = None,
    explicit: Optional[object] = None,
    default: str = DEFAULT_DTYPE,
) -> DtypePolicy:
    """Resolve a selection to a :class:`DtypePolicy` object.

    ``explicit`` may be a policy object (returned as-is) or a name; the
    remaining precedence matches :func:`resolve_dtype_name`.
    """
    if isinstance(explicit, DtypePolicy):
        return explicit
    return DTYPE_SELECTOR.get(default if configured is None else configured, explicit)


# ----------------------------------------------------------------------
# Recorded coercion
# ----------------------------------------------------------------------
def coerce_array(
    values: object,
    dtype: object,
    site: str,
    telemetry: Optional["Telemetry"] = None,
    reason: str = "operand dtype does not match the protected pipeline",
) -> np.ndarray:
    """``values`` as an array of ``dtype``, with any copy *recorded*.

    The replacement for the bare ``np.asarray(..., dtype=np.float64)``
    idiom: when the input already has the target dtype this is the same
    zero-copy view, but a dtype change emits a ``dtype.coerced`` count
    (site, from/to dtypes and the reason) on ``telemetry`` instead of
    silently promoting.  Callers that cannot reach a telemetry stream
    still get the coercion — just unrecorded, exactly as explicit as
    before — so correctness never depends on observability.
    """
    target = np.dtype(dtype)
    source = np.asarray(values)
    if source.dtype == target:
        return source
    coerced = source.astype(target)
    if telemetry is not None and telemetry.enabled:
        telemetry.count(
            "dtype.coerced",
            1.0,
            site=site,
            from_dtype=source.dtype.name,
            to_dtype=target.name,
            reason=reason,
        )
    return coerced
