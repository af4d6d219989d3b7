"""The scheme table: built-ins, selection and the factory contract."""

import numpy as np
import pytest

from repro.core.config import AbftConfig
from repro.errors import ConfigurationError
from repro.machine import Machine
from repro.schemes import (
    BUILTIN_SCHEMES,
    DEFAULT_SCHEME,
    SCHEME_ENV_VAR,
    ProtectedSpmvResult,
    ProtectionScheme,
    available_schemes,
    canonical_scheme_name,
    get_scheme_factory,
    make_scheme,
    resolve_scheme,
)
from repro.sparse import random_spd


@pytest.fixture(scope="module")
def matrix():
    return random_spd(48, 400, seed=3)


def test_builtins_are_registered():
    assert set(BUILTIN_SCHEMES) <= set(available_schemes())


def test_every_builtin_resolves_to_a_protection_scheme(matrix):
    for name in BUILTIN_SCHEMES:
        scheme = make_scheme(name, matrix)
        assert isinstance(scheme, ProtectionScheme)
        assert scheme.matrix is matrix
        assert scheme.name == name


def test_every_builtin_returns_unified_result(matrix):
    b = np.random.default_rng(5).standard_normal(matrix.n_cols)
    for name in BUILTIN_SCHEMES:
        result = make_scheme(name, matrix).multiply(b)
        assert isinstance(result, ProtectedSpmvResult)
        assert result.clean
        np.testing.assert_allclose(result.value, matrix.matvec(b))


def test_only_registered_names_resolve(matrix):
    # One spelling per scheme: these names are not registered.
    for name in BUILTIN_SCHEMES:
        assert canonical_scheme_name(name) == name
    for historic in ("ours", "block", "partial", "partial-recomputation", "dense", "dwc"):
        with pytest.raises(ConfigurationError, match="expected one of"):
            make_scheme(historic, matrix)


def test_unknown_scheme_raises():
    with pytest.raises(ConfigurationError):
        canonical_scheme_name("bogus")
    with pytest.raises(ConfigurationError):
        get_scheme_factory("bogus")


def test_unknown_factory_options_rejected(matrix):
    for name in BUILTIN_SCHEMES:
        with pytest.raises(ConfigurationError):
            make_scheme(name, matrix, not_an_option=1)


def test_resolve_scheme_passes_instances_through(matrix, monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, "tmr")
    instance = make_scheme("complete", matrix)
    assert resolve_scheme(matrix, instance) is instance


def test_resolve_scheme_defaults(matrix, monkeypatch):
    monkeypatch.delenv(SCHEME_ENV_VAR, raising=False)
    assert resolve_scheme(matrix).name == DEFAULT_SCHEME


def test_resolve_scheme_honors_config(matrix, monkeypatch):
    monkeypatch.delenv(SCHEME_ENV_VAR, raising=False)
    config = AbftConfig(scheme="dense_check")
    assert resolve_scheme(matrix, config=config).name == "dense_check"


def test_env_overrides_defaulted_selection_only(matrix, monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, "tmr")
    # Defaulted selection (None) follows the environment...
    assert resolve_scheme(matrix).name == "tmr"
    assert resolve_scheme(matrix, config=AbftConfig(scheme="complete")).name == "tmr"
    # ...but an explicit name always wins.
    assert resolve_scheme(matrix, "bisection").name == "bisection"
    assert make_scheme("bisection", matrix).name == "bisection"


def test_config_rejects_unknown_scheme():
    with pytest.raises(ConfigurationError):
        AbftConfig(scheme="bogus")


def test_make_scheme_uses_shared_machine(matrix):
    machine = Machine()
    scheme = make_scheme("complete", matrix, machine=machine)
    assert scheme.machine is machine


@pytest.mark.parametrize(
    "name, option, value",
    [("vabft", "min_samples", 2.5), ("bisection", "early_stop_fraction", 1)],
    ids=["vabft-min_samples", "bisection-early_stop_fraction"],
)
def test_factory_rejects_a_mistyped_option(name, option, value):
    with pytest.raises(ConfigurationError, match=f"{option} must be an? (int|float)"):
        make_scheme(name, random_spd(16, 60, seed=2), **{option: value})
