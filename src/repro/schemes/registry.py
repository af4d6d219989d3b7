"""Process-wide registry of protection schemes.

One :class:`repro.registry.Registry` and :class:`~repro.registry.Selector`:
named factories, protected built-ins, and an environment override.
Entries are *factories* rather than instances because a scheme is bound
to one matrix — campaigns build a fresh scheme object per matrix via
:func:`make_scheme`.

Selection order for :func:`resolve_scheme` (first match wins):

1. the ``scheme`` argument: a
   :class:`~repro.schemes.base.ProtectionScheme` instance is returned
   as-is, a name beats everything below;
2. the :data:`SCHEME_ENV_VAR` environment variable (``REPRO_SCHEME``)
   overrides a *defaulted* selection — it fills in when no name was
   requested, so CI can steer whole runs without breaking call sites
   that ask for a specific scheme by name;
3. ``config.scheme`` (:class:`~repro.core.AbftConfig`);
4. :data:`DEFAULT_SCHEME`.

Explicit lookups (:func:`make_scheme`) never consult the environment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, Tuple, Union

from repro.errors import ConfigurationError
from repro.registry import Registry, Selector
from repro.schemes.base import ProtectionScheme

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.config import AbftConfig
    from repro.machine import Machine
    from repro.obs import Telemetry
    from repro.sparse.csr import CsrMatrix

#: Environment variable that overrides the *default* scheme selection.
SCHEME_ENV_VAR = "REPRO_SCHEME"

#: Scheme used when neither a name, the config, nor the environment selects one.
DEFAULT_SCHEME = "abft"

#: Schemes that ship with the library and can never be unregistered.
BUILTIN_SCHEMES = (
    "abft",
    "bisection",
    "checkpoint",
    "complete",
    "dense_check",
    "redundancy",
    "tmr",
    "vabft",
)

#: Scheme triple of the paper's correction comparison (Figure 6):
#: block-ABFT vs bisection partial recomputation vs complete recomputation.
DEFAULT_CORRECTION_SCHEMES = ("abft", "bisection", "complete")

#: Scheme triple of the paper's PCG case study (Figures 8-9).
DEFAULT_PCG_SCHEMES = ("abft", "bisection", "checkpoint")

class SchemeFactory(Protocol):
    """Builds a scheme instance bound to ``matrix``.

    Factories receive the shared execution context by keyword so every
    scheme runs kernel-for-kernel on the same machine model and telemetry
    stream; unknown extra keywords must be rejected, scheme-specific
    options (e.g. the checkpoint interval) accepted.
    """

    def __call__(
        self,
        matrix: "CsrMatrix",
        *,
        config: "AbftConfig",
        machine: "Machine",
        telemetry: "Telemetry",
        **options: object,
    ) -> ProtectionScheme: ...


#: Scheme factories by name.
SCHEME_REGISTRY: Registry[SchemeFactory] = Registry("scheme", builtins=BUILTIN_SCHEMES)

#: ``REPRO_SCHEME`` fills in only when no name was requested in code.
SCHEME_SELECTOR = Selector("scheme", SCHEME_ENV_VAR, SCHEME_REGISTRY, DEFAULT_SCHEME)


def register_scheme(
    name: str, factory: SchemeFactory, overwrite: bool = False
) -> SchemeFactory:
    """Register ``factory`` under ``name``; returns it for chaining."""
    return SCHEME_REGISTRY.register(factory, name, overwrite)


def unregister_scheme(name: str) -> None:
    """Remove a registered scheme (primarily for test isolation)."""
    SCHEME_REGISTRY.unregister(name)


def available_schemes() -> Tuple[str, ...]:
    """Registered scheme names, sorted."""
    return SCHEME_REGISTRY.available()


def canonical_scheme_name(name: str) -> str:
    """Validate that ``name`` is registered and return it."""
    return SCHEME_REGISTRY.canonical(name)


def get_scheme_factory(name: str) -> SchemeFactory:
    """Look up a scheme factory by name."""
    return SCHEME_REGISTRY.get(name)


def make_scheme(
    name: str,
    matrix: "CsrMatrix",
    *,
    config: Optional["AbftConfig"] = None,
    machine: Optional["Machine"] = None,
    telemetry: Optional["Telemetry"] = None,
    **options: object,
) -> ProtectionScheme:
    """Build the named scheme for ``matrix`` (explicit — no env override).

    ``config``/``machine``/``telemetry`` default to ``AbftConfig()``, a
    fresh :class:`~repro.machine.Machine`, and the telemetry the config
    resolves to; ``options`` are passed through to the factory.
    """
    factory = get_scheme_factory(name)
    if config is None:
        from repro.core.config import AbftConfig

        config = AbftConfig()
    if machine is None:
        from repro.machine import Machine

        machine = Machine()
    if telemetry is None:
        from repro.obs import resolve_telemetry

        telemetry = resolve_telemetry(config.telemetry)
    scheme = factory(
        matrix, config=config, machine=machine, telemetry=telemetry, **options
    )
    if not isinstance(scheme, ProtectionScheme):
        raise ConfigurationError(
            f"scheme factory {canonical_scheme_name(name)!r} produced "
            f"{type(scheme).__name__}, which does not satisfy ProtectionScheme"
        )
    return scheme


def resolve_scheme(
    matrix: "CsrMatrix",
    scheme: Union[str, ProtectionScheme, None] = None,
    *,
    config: Optional["AbftConfig"] = None,
    machine: Optional["Machine"] = None,
    telemetry: Optional["Telemetry"] = None,
    **options: object,
) -> ProtectionScheme:
    """Resolve a scheme selection to a concrete instance for ``matrix``.

    ``scheme`` may be a :class:`ProtectionScheme` (returned as-is), a
    registered name, or ``None`` — in which case ``REPRO_SCHEME``, then
    ``config.scheme``, then :data:`DEFAULT_SCHEME` decide.
    """
    if isinstance(scheme, ProtectionScheme) and not isinstance(scheme, str):
        return scheme
    scheme = SCHEME_SELECTOR.resolve(None if config is None else config.scheme, scheme)
    return make_scheme(
        scheme,
        matrix,
        config=config,
        machine=machine,
        telemetry=telemetry,
        **options,
    )
