"""One registry and one selector for every named choice in the library.

Six subsystems pick an implementation by name: protection schemes
(:mod:`repro.schemes`), plan backends (:mod:`repro.perf.backends`),
telemetry exporters (:mod:`repro.obs.exporters`), lint rules
(:mod:`repro.lint`), dtype policies (:mod:`repro.core.dtypes`) and
sparse formats (:mod:`repro.sparse.formats`).  Each declares one
:class:`Registry` — its entry check, its key function and its accepted
spellings — and the five behind an :class:`~repro.core.AbftConfig`
field declare one :class:`Selector`.  Everything else about names lives
here.

Registry contract:

* every key is a non-empty string name; a registry with a key function
  also accepts an entry wherever it accepts that entry's name.
* :meth:`Registry.register` refuses a key already taken unless
  ``overwrite=True``.  Built-in keys are sealed once registered: they
  can be neither replaced nor removed.
* :meth:`Registry.unregister` of a key that is not registered is a no-op.
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
of four templates — unknown, duplicate, built-in and wrong type — and a
value that came from the environment or a config field names its source.
Error text is built only on failure.

This module imports only :mod:`repro.errors`: substrate packages
(:mod:`repro.sparse`) use it without importing :mod:`repro.core`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generic, Iterable, Mapping, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def _wrong_type(subject: str, requirement: str, value: object) -> ConfigurationError:
    got = repr(value) if isinstance(value, str) else type(value).__name__
    return ConfigurationError(f"{subject} must {requirement}, got {got}")


def _from(origin: str) -> str:
    return f" (from {origin})" if origin else ""


class Registry(Generic[T]):
    """Entries of one kind, keyed by name, with sealed built-ins.

    Args:
        kind: noun naming the entries in every error ("scheme").
        builtins: keys that ship with the library.
        entry_type: class every entry must be an instance of; an
            instance also spells its own key.  ``None`` means entries are
            factories and must be callable.
        key: derives an entry's key when :meth:`register` gets no name.
        fold: names are folded to lower case without surrounding
            whitespace; otherwise they must match exactly.
        aliases: extra (folded) spellings mapped to a key.
    """

    def __init__(self, kind: str, *, builtins: Iterable[str] = (),
                 entry_type: Optional[type] = None, key: Optional[Callable[[T], str]] = None,
                 fold: bool = False, aliases: Optional[Mapping[str, str]] = None) -> None:
        self.kind = kind
        self.builtins = frozenset(builtins)
        self._entry_type = entry_type
        self._key = key
        self._fold = fold
        self._aliases = dict(aliases or {})
        self._entries: Dict[str, T] = {}

    def register(self, entry: T, name: Any = None, overwrite: bool = False) -> T:
        """Add ``entry`` under ``name`` (default: its key); returns it."""
        if self._entry_type is None:
            if not callable(entry):
                raise _wrong_type(f"{self.kind} factory", "be callable", entry)
        elif not isinstance(entry, self._entry_type):
            raise _wrong_type(f"{self.kind} entry", f"subclass {self._entry_type.__name__}", entry)
        key = self._key_of(entry if name is None else name)
        if key in self._entries:
            if key in self.builtins:
                raise self._sealed(key, "replaced")
            if not overwrite:
                raise ConfigurationError(f"{self.kind} {key!r} already registered")
        self._entries[key] = entry
        return entry

    def unregister(self, name: Any) -> None:
        """Remove a registered entry; unknown names are a no-op."""
        key = self._key_of(name)
        if key in self.builtins:
            raise self._sealed(key, "removed")
        self._entries.pop(key, None)

    def available(self) -> Tuple[str, ...]:
        """Registered keys, sorted."""
        return tuple(sorted(self._entries))

    def canonical(self, name: object, origin: str = "") -> str:
        """The key ``name`` spells; ``origin`` names where it came from."""
        key = self._key_of(name, origin)
        if key not in self._entries:
            raise ConfigurationError(
                f"unknown {self.kind} {key!r}{_from(origin)}; "
                f"expected one of {tuple(self._entries)}"
            )
        return key

    def get(self, name: object, origin: str = "") -> T:
        """The entry registered under ``name`` (any accepted spelling)."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):
            return self._entries[self.canonical(name, origin)]

    def _key_of(self, name: Any, origin: str = "") -> str:
        """Apply the accepted spellings to ``name`` without a lookup."""
        key, entry_type = self._key, self._entry_type
        if key is not None and entry_type is not None and isinstance(name, entry_type):
            name = key(name)  # an entry spells its own key
        if not isinstance(name, str) or not name:
            alternative = f" or {self._entry_type.__name__}" if self._entry_type else ""
            raise _wrong_type(f"{self.kind}{_from(origin)}", f"be a name{alternative}", name)
        if self._fold:
            name = name.strip().lower()
        return self._aliases.get(name, name)

    def _sealed(self, key: str, verb: str) -> ConfigurationError:
        return ConfigurationError(f"built-in {self.kind} {key!r} cannot be {verb}")


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
