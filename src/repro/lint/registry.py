"""Pluggable rule registry, one :class:`repro.registry.Registry`.

Rules are registered under their rule id; the engine runs every registered
rule unless the caller selects or ignores a subset.  Like every
registry's built-ins, the built-in rule pack cannot be unregistered — test
isolation removes only rules it added itself.
"""

from __future__ import annotations

from typing import Tuple

from repro.lint.rules.abft import ABFT_RULES
from repro.lint.rules.base import LintRule
from repro.registry import Registry

#: Rule ids that ship with the package and cannot be unregistered: the
#: ids of :data:`~repro.lint.rules.abft.ABFT_RULES`.  The retired ids
#: ABFT008-012 are not reused.
BUILTIN_RULES = tuple(rule.rule_id for rule in ABFT_RULES)

#: Lint rules by rule id.
RULE_REGISTRY: Registry[LintRule] = Registry(
    "lint rule", builtins=BUILTIN_RULES, entry_type=LintRule, key=lambda rule: rule.rule_id)


def register_rule(rule: LintRule, overwrite: bool = False) -> LintRule:
    """Register ``rule`` under ``rule.rule_id``; returns it for chaining."""
    return RULE_REGISTRY.register(rule, overwrite=overwrite)


def unregister_rule(rule_id: str) -> None:
    """Remove a registered rule (primarily for test isolation)."""
    RULE_REGISTRY.unregister(rule_id)


def available_rules() -> Tuple[str, ...]:
    """Registered rule ids, sorted."""
    return RULE_REGISTRY.available()


def get_rule(rule_id: str) -> LintRule:
    """Look up a rule by id."""
    return RULE_REGISTRY.get(rule_id)


def resolve_rules(
    select: Tuple[str, ...] | None = None, ignore: Tuple[str, ...] | None = None
) -> Tuple[LintRule, ...]:
    """Resolve a rule selection to concrete rule instances.

    ``select`` limits the run to the named rules (all registered rules if
    None); ``ignore`` then removes rules from that set.  Unknown ids in
    either tuple raise :class:`~repro.errors.ConfigurationError` — a typo
    in a CI configuration must fail loudly, not silently lint nothing.
    """
    for rule_id in (select or ()) + (ignore or ()):
        RULE_REGISTRY.canonical(rule_id)
    chosen = select if select else available_rules()
    ignored = set(ignore or ())
    return tuple(get_rule(rule_id) for rule_id in chosen if rule_id not in ignored)
