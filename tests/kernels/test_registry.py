"""Registry, dispatch-order and configuration tests for repro.kernels."""

import numpy as np
import pytest

from repro.core import ChecksumMatrix, make_weights
from repro.core.blocking import BlockPartition
from repro.core.config import AbftConfig
from repro.errors import ConfigurationError
from repro.kernels import (
    BUILTIN_KERNELS,
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    KernelSet,
    available_kernels,
    get_kernels,
    register_kernels,
    resolve_kernels,
    unregister_kernels,
    validate_blocks,
)
from repro.kernels.naive import NaiveKernels
from repro.sparse import random_spd


@pytest.fixture(autouse=True)
def _clean_kernel_env(monkeypatch):
    """Dispatch-order tests need a known baseline: no ambient override."""
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)


def test_builtins_registered():
    names = available_kernels()
    for builtin in BUILTIN_KERNELS:
        assert builtin in names
    assert BUILTIN_KERNELS == ("naive", "vectorized")
    assert DEFAULT_KERNEL in names


def test_get_kernels_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown kernel set"):
        get_kernels("does-not-exist")


def test_resolve_default_and_names():
    assert resolve_kernels().name == DEFAULT_KERNEL
    assert resolve_kernels("naive").name == "naive"
    assert resolve_kernels("vectorized").name == "vectorized"


def test_resolve_rejects_non_string_non_kernelset():
    with pytest.raises(ConfigurationError, match="name or KernelSet"):
        resolve_kernels(42)


def test_resolve_instance_passthrough():
    impl = NaiveKernels()
    assert resolve_kernels(impl) is impl


def test_env_override_beats_name(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
    assert resolve_kernels("vectorized").name == "naive"
    assert resolve_kernels().name == "naive"


def test_env_override_never_beats_instance(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
    impl = resolve_kernels(get_kernels("vectorized"))
    assert impl.name == "vectorized"


def test_env_override_invalid_name(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "bogus")
    with pytest.raises(ConfigurationError, match="unknown kernel set"):
        resolve_kernels("vectorized")


def test_env_override_applies_to_checksum_dispatch(monkeypatch):
    matrix = random_spd(20, 90, seed=3)
    checksum = ChecksumMatrix.build(matrix, 4)
    assert checksum.kernel_name == DEFAULT_KERNEL
    monkeypatch.setenv(KERNEL_ENV_VAR, "naive")
    # The env override wins at evaluation time too.
    assert checksum._kernels().name == "naive"


def test_abft_config_accepts_registered_kernels():
    for name in available_kernels():
        assert AbftConfig(kernel=name).kernel == name


def test_abft_config_rejects_unknown_kernel(monkeypatch):
    with pytest.raises(ConfigurationError, match="unknown kernel"):
        AbftConfig(kernel="nope")
    # Threading is a plan backend, not a kernel set: "parallel" is unknown
    # and the error names the sets that exist.
    remaining = r"'parallel'.*\('naive', 'vectorized'\)"
    with pytest.raises(ConfigurationError, match=remaining):
        AbftConfig(kernel="parallel")
    monkeypatch.setenv(KERNEL_ENV_VAR, "parallel")
    with pytest.raises(ConfigurationError, match=remaining):
        resolve_kernels("vectorized")


class _StubKernels(NaiveKernels):
    name = "stub-kernels"


def test_register_custom_kernels_roundtrip():
    impl = _StubKernels()
    register_kernels(impl)
    try:
        assert "stub-kernels" in available_kernels()
        assert get_kernels("stub-kernels") is impl
        assert resolve_kernels("stub-kernels") is impl
        assert AbftConfig(kernel="stub-kernels").kernel == "stub-kernels"
    finally:
        unregister_kernels("stub-kernels")
    assert "stub-kernels" not in available_kernels()


def test_register_duplicate_requires_overwrite():
    impl = _StubKernels()
    register_kernels(impl)
    try:
        with pytest.raises(ConfigurationError, match="already registered"):
            register_kernels(_StubKernels())
        replacement = _StubKernels()
        assert register_kernels(replacement, overwrite=True) is replacement
        assert get_kernels("stub-kernels") is replacement
    finally:
        unregister_kernels("stub-kernels")


def test_register_rejects_non_kernelset():
    with pytest.raises(ConfigurationError, match="must subclass KernelSet"):
        register_kernels(object())


def test_builtin_kernels_cannot_be_unregistered():
    for name in BUILTIN_KERNELS:
        with pytest.raises(ConfigurationError, match="cannot be removed"):
            unregister_kernels(name)


def test_unregister_unknown_is_noop():
    unregister_kernels("never-registered")


def test_kernelset_is_abstract():
    with pytest.raises(TypeError):
        KernelSet()


def test_validate_blocks_rejects_float_dtype():
    with pytest.raises(ConfigurationError, match="must be integers"):
        validate_blocks(np.array([0.0, 1.0]), 4)


def test_validate_blocks_rejects_out_of_range():
    with pytest.raises(ConfigurationError, match="out of range"):
        validate_blocks(np.array([0, 4]), 4)
    with pytest.raises(ConfigurationError, match="out of range"):
        validate_blocks(np.array([-1]), 4)


def test_validate_blocks_accepts_empty_and_valid():
    assert validate_blocks(np.empty(0), 4).size == 0
    out = validate_blocks(np.array([3, 0], dtype=np.int32), 4)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [3, 0])


def test_make_weights_linear_dispatches_by_name():
    partition = BlockPartition(10, 4)
    for name in ("naive", "vectorized"):
        w = make_weights("linear", partition, kernel=name)
        np.testing.assert_array_equal(w, [1, 2, 3, 4, 1, 2, 3, 4, 1, 2])


def test_checksum_remembers_build_kernel():
    matrix = random_spd(16, 60, seed=4)
    for name in ("naive", "vectorized"):
        checksum = ChecksumMatrix.build(matrix, 4, kernel=name)
        assert checksum.kernel_name == name
        assert checksum._kernels().name == name
