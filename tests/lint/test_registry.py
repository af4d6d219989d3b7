"""The rule table (the :mod:`repro.registry` contract)."""

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    ABFT_RULES,
    BUILTIN_RULES,
    available_rules,
    get_rule,
    resolve_rules,
)


@pytest.mark.parametrize("rule", ABFT_RULES, ids=lambda rule: rule.rule_id)
def test_builtin_rule_is_registered(rule):
    assert rule.rule_id in BUILTIN_RULES
    assert get_rule(rule.rule_id) is rule
    assert rule.title and rule.rationale


def test_default_selection_is_the_whole_pack_in_id_order():
    assert available_rules() == BUILTIN_RULES
    assert resolve_rules() == ABFT_RULES


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
