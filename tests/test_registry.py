"""The generic Registry and Selector, and the six registries built on them.

A hypothesis state machine drives one Registry and its Selector against a
plain-dict model; a contract test runs the same assertions against every
registry the library declares; the last two tests pin where a bad
selection value says it came from.
"""

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.config import AbftConfig, selectors
from repro.core.dtypes import DTYPE_REGISTRY, DtypePolicy, resolve_dtype_name
from repro.errors import ConfigurationError
from repro.lint.registry import RULE_REGISTRY
from repro.lint.rules.base import LintRule
from repro.obs.exporters import EXPORTER_REGISTRY
from repro.obs.telemetry import resolve_telemetry
from repro.perf.backends import BACKEND_REGISTRY, resolve_backend_name
from repro.registry import Registry, Selector
from repro.schemes.registry import SCHEME_REGISTRY, resolve_scheme
from repro.sparse import random_spd
from repro.sparse.formats import FORMAT_REGISTRY, resolve_format_name

# ----------------------------------------------------------------------
# The primitives against a model
# ----------------------------------------------------------------------
ENV_VAR = "REGISTRY_TEST_SELECTION"
BUILTINS = ("alpha", "beta")
ALIASES = {"a": "alpha", "b": "beta"}
NAMES = ("alpha", "beta", "gamma", "delta", "a", "b")

#: A name as a caller may spell it: any case, padded with whitespace.
spellings = st.builds(
    lambda name, upper, pad: (" " * pad) + (name.upper() if upper else name) + (" " * pad),
    st.sampled_from(NAMES),
    st.booleans(),
    st.integers(0, 1),
)
maybe_spelling = st.none() | spellings


def fold(name):
    name = name.strip().lower()
    return ALIASES.get(name, name)


class RegistryMachine(RuleBasedStateMachine):
    """One folded, aliased Registry and its Selector versus a dict."""

    def __init__(self):
        super().__init__()
        self.registry = Registry("widget", builtins=BUILTINS, fold=True, aliases=ALIASES)
        self.selector = Selector("widget", ENV_VAR, self.registry, "alpha")
        self.model = {}
        for name in BUILTINS:
            self.model[name] = self.registry.register(self._factory(name), name)

    @staticmethod
    def _factory(name):
        return lambda: name

    @rule(name=spellings, overwrite=st.booleans())
    def register(self, name, overwrite):
        key = fold(name)
        entry = self._factory(key)
        if key in BUILTINS:
            with pytest.raises(ConfigurationError, match="built-in widget .* cannot be replaced"):
                self.registry.register(entry, name, overwrite=overwrite)
        elif key in self.model and not overwrite:
            with pytest.raises(ConfigurationError, match="already registered"):
                self.registry.register(entry, name)
        else:
            assert self.registry.register(entry, name, overwrite=overwrite) is entry
            self.model[key] = entry

    @rule(name=spellings)
    def unregister(self, name):
        key = fold(name)
        if key in BUILTINS:
            with pytest.raises(ConfigurationError, match="cannot be removed"):
                self.registry.unregister(name)
        else:
            self.registry.unregister(name)  # unknown names are a no-op
            self.model.pop(key, None)

    @rule(name=spellings)
    def look_up(self, name):
        key = fold(name)
        if key in self.model:
            assert self.registry.canonical(name) == key
            assert self.registry.get(name) is self.model[key]
        else:
            with pytest.raises(ConfigurationError, match="unknown widget .*expected one of"):
                self.registry.get(name)

    @rule(explicit=maybe_spelling, env=st.none() | st.just("") | spellings,
          configured=maybe_spelling)
    def select(self, explicit, env, configured):
        if env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = env
        if explicit is not None:
            winner, source = explicit, "explicit"
        elif env:  # an empty value is ignored
            winner, source = env, "env"
        elif configured is not None:
            winner, source = configured, "configured"
        else:
            winner, source = "alpha", "default"
        assert self.selector.pick(configured, explicit) == (winner, source)
        if fold(winner) in self.model:
            assert self.selector.resolve(configured, explicit) == fold(winner)
            assert self.selector.get(configured, explicit) is self.model[fold(winner)]
        else:
            origin = ENV_VAR if source == "env" else ""
            with pytest.raises(ConfigurationError, match=f"unknown widget.*{origin}"):
                self.selector.resolve(configured, explicit)

    @rule(value=st.sampled_from([42, ["alpha"], None, ""]))
    def reject_non_names(self, value):
        with pytest.raises(ConfigurationError, match="must be a name"):
            self.registry.canonical(value)

    @invariant()
    def available_matches_the_model(self):
        assert self.registry.available() == tuple(sorted(self.model))

    def teardown(self):
        os.environ.pop(ENV_VAR, None)


RegistryMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None
)
test_registry_and_selector_against_a_model = RegistryMachine.TestCase


# ----------------------------------------------------------------------
# The same contract for every declared registry
# ----------------------------------------------------------------------
class _ContractRule(LintRule):
    rule_id = "contract-test"

    def check(self, module):
        return iter(())


def _factory(*args, **kwargs):
    return None


#: registry -> (an entry for the custom key "contract-test", whether the
#: registry derives keys from entries).
DECLARED = {
    "schemes": (SCHEME_REGISTRY, _factory, False),
    "backends": (BACKEND_REGISTRY, _factory, False),
    "exporters": (EXPORTER_REGISTRY, _factory, False),
    "lint_rules": (RULE_REGISTRY, _ContractRule(), True),
    "dtypes": (DTYPE_REGISTRY, DtypePolicy("contract-test", "float64", "float64"), True),
    "formats": (FORMAT_REGISTRY, _factory, False),
}


@pytest.mark.parametrize("label", sorted(DECLARED))
def test_declared_registry_contract(label):
    registry, entry, keyed = DECLARED[label]
    name = None if keyed else "contract-test"
    key = "contract-test"

    assert registry.builtins <= set(registry.available())
    for builtin in registry.builtins:
        assert registry.canonical(builtin) == builtin
        with pytest.raises(ConfigurationError, match="built-in .* cannot be removed"):
            registry.unregister(builtin)
        with pytest.raises(ConfigurationError, match="built-in .* cannot be replaced"):
            registry.register(registry.get(builtin), None if keyed else builtin, overwrite=True)
    with pytest.raises(ConfigurationError, match=f"unknown {registry.kind}.*expected one of"):
        registry.get(key)
    with pytest.raises(ConfigurationError, match="must be a name"):
        registry.canonical(42)
    with pytest.raises(ConfigurationError, match="must"):
        registry.register(object(), name)

    registry.register(entry, name)
    try:
        assert registry.get(key) is entry
        assert key in registry.available()
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register(entry, name)
        assert registry.register(entry, name, overwrite=True) is entry
    finally:
        registry.unregister(key)
    assert key not in registry.available()
    registry.unregister(key)  # unknown names are a no-op


# ----------------------------------------------------------------------
# A bad selection value says where it came from
# ----------------------------------------------------------------------
_MATRIX = random_spd(16, 60, seed=1)

#: env var -> (resolution through the library's entry point, accepted names).
RESOLVERS = {
    "REPRO_OBS": (lambda: resolve_telemetry("off"), EXPORTER_REGISTRY.available()),
    "REPRO_SCHEME": (lambda: resolve_scheme(_MATRIX), SCHEME_REGISTRY.available()),
    "REPRO_PARALLEL": (lambda: resolve_backend_name("serial"), BACKEND_REGISTRY.available()),
    "REPRO_FORMAT": (lambda: resolve_format_name("csr"), FORMAT_REGISTRY.available()),
    "REPRO_DTYPE": (lambda: resolve_dtype_name("float64"), DTYPE_REGISTRY.available()),
}


def test_resolvers_cover_every_selector():
    assert set(RESOLVERS) == {selector.env_var for selector in selectors()}


@pytest.mark.parametrize("env_var", sorted(RESOLVERS))
def test_bad_env_value_names_the_variable_and_the_choices(env_var, monkeypatch):
    resolve, accepted = RESOLVERS[env_var]
    monkeypatch.setenv(env_var, "no-such-name")
    with pytest.raises(ConfigurationError) as info:
        resolve()
    message = str(info.value)
    assert env_var in message and "'no-such-name'" in message
    for name in accepted:
        assert repr(name) in message


@pytest.mark.parametrize("field", [selector.name for selector in selectors()])
def test_unhashable_config_value_names_the_field(field):
    with pytest.raises(ConfigurationError, match=f"AbftConfig.{field}.* must be a name"):
        AbftConfig(**{field: ["threads"]})
