"""Scheme-registry contract (mirrors the kernel-registry behavior)."""

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
    register_scheme,
    resolve_scheme,
    unregister_scheme,
)
from repro.sparse import random_spd


@pytest.fixture(scope="module")
def matrix():
    return random_spd(48, 400, seed=3)


class _StubScheme:
    """Minimal object satisfying the ProtectionScheme protocol."""

    name = "stub"

    def __init__(self, matrix, telemetry):
        self.matrix = matrix
        self.telemetry = telemetry

    def multiply(self, b, tamper=None, meter=None):
        return ProtectedSpmvResult(
            value=self.matrix.matvec(b),
            detections=(False,),
            corrections=(),
            rounds=0,
            seconds=0.0,
            flops=0.0,
            exhausted=False,
        )

    def detection_graph(self):
        from repro.machine import TaskGraph

        return TaskGraph()


def _stub_factory(matrix, *, config, machine, telemetry, **options):
    if options:
        raise ConfigurationError(f"unknown options {sorted(options)}")
    return _StubScheme(matrix, telemetry)


@pytest.fixture
def stub():
    register_scheme("stub", _stub_factory)
    yield
    unregister_scheme("stub")


def test_builtins_are_registered():
    assert set(BUILTIN_SCHEMES) <= set(available_schemes())


def test_builtins_cannot_be_unregistered():
    with pytest.raises(ConfigurationError):
        unregister_scheme("abft")
    assert "abft" in available_schemes()


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


def test_duplicate_registration_requires_overwrite(stub):
    with pytest.raises(ConfigurationError):
        register_scheme("stub", _stub_factory)
    register_scheme("stub", _stub_factory, overwrite=True)


def test_registered_scheme_resolves(stub, matrix):
    scheme = make_scheme("stub", matrix)
    assert isinstance(scheme, _StubScheme)
    assert scheme.multiply(np.ones(matrix.n_cols)).clean


def test_non_scheme_factory_product_rejected(matrix):
    register_scheme("broken", lambda m, **kw: object())
    try:
        with pytest.raises(ConfigurationError):
            make_scheme("broken", matrix)
    finally:
        unregister_scheme("broken")


def test_unknown_factory_options_rejected(matrix):
    for name in BUILTIN_SCHEMES:
        with pytest.raises(ConfigurationError):
            make_scheme(name, matrix, not_an_option=1)


def test_resolve_scheme_passes_instances_through(stub, matrix):
    instance = make_scheme("stub", matrix)
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
