"""One registry and one selector for every named choice in the library.

Five subsystems pick an implementation by name: protection schemes
(:mod:`repro.schemes`), plan backends (:mod:`repro.perf.backends`),
telemetry exporters (:mod:`repro.obs.exporters`), lint rules
(:mod:`repro.lint`) and sparse formats (:mod:`repro.sparse.formats`).
Each declares one :class:`Registry` — a fixed table of its built-ins —
where those built-ins live, and the four
behind an :class:`~repro.core.AbftConfig` field declare one
:class:`Selector`.
Everything else about names lives here.

Registry contract:

* every key is a non-empty string name, and the table is fixed when the
  registry is built: adding a built-in is one edit to its table;
* :meth:`Registry.canonical` maps an accepted spelling to its key or
  raises; :meth:`Registry.get` returns the entry, one dict access when
  given the key itself.

Selection rule (:class:`Selector`), first match wins:

1. an *explicit* value passed in code;
2. the selector's ``REPRO_*`` environment variable (an empty value is
   ignored);
3. the *configured* value, usually the :class:`~repro.core.AbftConfig`
   field named like the selector;
4. the selector's default.

Every failure raises :class:`~repro.errors.ConfigurationError` from one
of two templates — unknown name and wrong type — and a value that came
from the environment or a config field names its source.  Error text is
built only on failure.

This module imports only :mod:`repro.errors`: substrate packages
(:mod:`repro.sparse`) use it without importing :mod:`repro.core`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Generic, Mapping, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def _from(origin: str) -> str:
    return f" (from {origin})" if origin else ""


class Registry(Generic[T]):
    """A fixed table of entries of one kind, keyed by name.

    Args:
        kind: noun naming the entries in every error ("scheme").
        entries: the table, key -> entry, in the order errors list them.
        fold: names are folded to lower case without surrounding
            whitespace; otherwise they must match exactly.
    """

    def __init__(self, kind: str, entries: Mapping[str, T], *, fold: bool = False) -> None:
        self.kind = kind
        self._entries = dict(entries)
        self._fold = fold

    def available(self) -> Tuple[str, ...]:
        """Every key, sorted."""
        return tuple(sorted(self._entries))

    def canonical(self, name: object, origin: str = "") -> str:
        """The key ``name`` spells; ``origin`` names where it came from."""
        if not isinstance(name, str) or not name:
            got = repr(name) if isinstance(name, str) else type(name).__name__
            raise ConfigurationError(f"{self.kind}{_from(origin)} must be a name, got {got}")
        if self._fold:
            name = name.strip().lower()
        if name not in self._entries:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}{_from(origin)}; "
                f"expected one of {tuple(self._entries)}"
            )
        return name

    def get(self, name: object, origin: str = "") -> T:
        """The entry ``name`` (any accepted spelling) selects."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):
            return self._entries[self.canonical(name, origin)]


@dataclass(frozen=True)
class Selector(Generic[T]):
    """One named choice: explicit > ``env_var`` > configured > ``default``.

    Args:
        name: the :class:`~repro.core.AbftConfig` field the configured
            value comes from.
        env_var: environment variable overriding configured values.
        registry: validates and looks up the winning value.
        default: the value when nothing else selects one.
    """

    name: str
    env_var: str
    registry: Registry[T]
    default: str

    def pick(self, configured: object = None, explicit: object = None) -> Tuple[object, str]:
        """The winning raw value and its source: ``"explicit"``, ``"env"``,
        ``"configured"`` or ``"default"``."""
        if explicit is not None:
            return explicit, "explicit"
        env = os.environ.get(self.env_var)
        if env:
            return env, "env"
        if configured is not None:
            return configured, "configured"
        return self.default, "default"

    def resolve(self, configured: object = None, explicit: object = None) -> str:
        """The canonical name of the winning value."""
        value, source = self.pick(configured, explicit)
        return self.registry.canonical(value, self.env_var if source == "env" else "")

    def get(self, configured: object = None, explicit: object = None) -> T:
        """The registry entry of the winning value."""
        value, source = self.pick(configured, explicit)
        return self.registry.get(value, self.env_var if source == "env" else "")

    def check(self, value: object, owner: str) -> None:
        """Validate ``owner``'s configured value (``None`` selects nothing)."""
        if value is not None:
            self.registry.canonical(value, f"{owner}.{self.name}")


__all__ = ["Registry", "Selector"]
