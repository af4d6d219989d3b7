"""The generic Registry and Selector, and the five registries built on them.

A hypothesis state machine drives one fixed table and its Selector
against a plain-dict model; a contract test runs the same assertions
against every registry the library declares, for every built-in key; the
last two tests pin where a bad selection value says it came from.
"""

import os

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import AbftConfig, selectors
from repro.errors import ConfigurationError
from repro.lint.registry import BUILTIN_RULES, RULE_REGISTRY
from repro.obs.exporters import BUILTIN_EXPORTERS, EXPORTER_REGISTRY
from repro.obs.telemetry import resolve_telemetry
from repro.perf.backends import BACKEND_REGISTRY, BUILTIN_BACKENDS, resolve_backend_name
from repro.registry import Registry, Selector
from repro.schemes.registry import BUILTIN_SCHEMES, SCHEME_REGISTRY, resolve_scheme
from repro.sparse import random_spd
from repro.sparse.formats import FORMAT_NAMES, FORMAT_REGISTRY, resolve_format_name

# ----------------------------------------------------------------------
# The primitives against a model
# ----------------------------------------------------------------------
ENV_VAR = "REGISTRY_TEST_SELECTION"
KEYS = ("alpha", "beta", "gamma", "delta")

#: A name as a caller may spell it: any case, padded with whitespace.
spellings = st.builds(
    lambda name, upper, pad: (" " * pad) + (name.upper() if upper else name) + (" " * pad),
    st.sampled_from(KEYS),
    st.booleans(),
    st.integers(0, 1),
)
maybe_spelling = st.none() | spellings


def fold(name):
    return name.strip().lower()


class RegistryMachine(RuleBasedStateMachine):
    """One folded fixed table and its Selector versus a dict.

    The table is drawn once, so a spelling may name a key the table
    lacks, and the mapping the table was built from keeps changing
    after the build.
    """

    @initialize(keys=st.sets(st.sampled_from(KEYS), min_size=1))
    def build(self, keys):
        self.model = {key: object() for key in sorted(keys)}
        self.source = dict(self.model)
        self.registry = Registry("widget", self.source, fold=True)
        self.default = min(keys)
        self.selector = Selector("widget", ENV_VAR, self.registry, self.default)

    @rule(name=st.sampled_from(KEYS))
    def edit_the_source(self, name):
        if self.source.pop(name, None) is None:
            self.source[name] = object()

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
            winner, source = self.default, "default"
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
#: label -> (registry, its built-in keys, whether it folds names).
DECLARED = {
    "schemes": (SCHEME_REGISTRY, BUILTIN_SCHEMES, False),
    "backends": (BACKEND_REGISTRY, BUILTIN_BACKENDS, False),
    "exporters": (EXPORTER_REGISTRY, BUILTIN_EXPORTERS, False),
    "lint_rules": (RULE_REGISTRY, BUILTIN_RULES, False),
    "formats": (FORMAT_REGISTRY, FORMAT_NAMES, True),
}

#: (label, key): every built-in key of every table.
BUILTIN_KEYS = [(label, key) for label, (_, keys, _) in sorted(DECLARED.items()) for key in keys]


@pytest.mark.parametrize("label", sorted(DECLARED))
def test_declared_registry_contract(label):
    registry, keys, _ = DECLARED[label]

    assert registry.available() == tuple(sorted(keys))
    with pytest.raises(ConfigurationError, match=f"unknown {registry.kind}.*expected one of") as info:
        registry.get("contract-test")
    for key in keys:
        assert repr(key) in str(info.value)
    for value in (42, "", None):
        with pytest.raises(ConfigurationError, match="must be a name"):
            registry.canonical(value)


@pytest.mark.parametrize(
    "label, key", BUILTIN_KEYS, ids=[f"{label}-{key}" for label, key in BUILTIN_KEYS]
)
def test_declared_spelling_resolves(label, key):
    registry, _, folds = DECLARED[label]
    assert registry.canonical(key) == key
    padded = f" {key.upper()} "
    if folds:
        assert registry.canonical(padded) == key
        assert registry.get(padded) is registry.get(key)
    else:
        with pytest.raises(ConfigurationError, match=f"unknown {registry.kind}"):
            registry.canonical(padded)


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
