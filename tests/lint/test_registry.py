"""Rule-registry behavior (the :mod:`repro.registry` contract)."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    ABFT_RULES,
    BUILTIN_RULES,
    LintRule,
    available_rules,
    get_rule,
    register_rule,
    resolve_rules,
    unregister_rule,
)


class DummyRule(LintRule):
    rule_id = "TEST901"
    title = "dummy"
    rationale = "test-only"

    def check(self, module):
        return iter(())


@pytest.fixture
def dummy():
    rule = register_rule(DummyRule())
    yield rule
    unregister_rule("TEST901")


@pytest.mark.parametrize("rule", ABFT_RULES, ids=lambda rule: rule.rule_id)
def test_builtin_rule_is_registered(rule):
    assert rule.rule_id in BUILTIN_RULES
    assert get_rule(rule.rule_id) is rule
    assert rule.title and rule.rationale


def test_register_and_unregister_custom_rule(dummy):
    assert "TEST901" in available_rules()
    assert get_rule("TEST901") is dummy


def test_duplicate_registration_requires_overwrite(dummy):
    with pytest.raises(ConfigurationError):
        register_rule(DummyRule())
    replacement = register_rule(DummyRule(), overwrite=True)
    assert get_rule("TEST901") is replacement


@pytest.mark.parametrize("rule", ABFT_RULES, ids=lambda rule: rule.rule_id)
def test_builtin_rule_cannot_be_unregistered(rule):
    with pytest.raises(ConfigurationError):
        unregister_rule(rule.rule_id)
    assert get_rule(rule.rule_id) is rule


def test_non_rule_rejected():
    with pytest.raises(ConfigurationError):
        register_rule(object())  # type: ignore[arg-type]


def test_unknown_rule_lookup_raises():
    with pytest.raises(ConfigurationError):
        get_rule("NOPE999")


def test_resolve_rules_select_and_ignore():
    ids = [rule.rule_id for rule in resolve_rules(select=("ABFT003", "ABFT001"))]
    assert ids == ["ABFT003", "ABFT001"]
    ids = [rule.rule_id for rule in resolve_rules(ignore=("ABFT002",))]
    assert "ABFT002" not in ids and "ABFT001" in ids


def test_resolve_rules_rejects_unknown_ids():
    with pytest.raises(ConfigurationError):
        resolve_rules(select=("ABFT003", "TYPO001"))
    with pytest.raises(ConfigurationError):
        resolve_rules(ignore=("TYPO001",))
