"""End-to-end precision modes: float32 storage and ``REPRO_SCHEME``.

The whole protected pipeline (scheme registry -> detector -> correction,
planned and unplanned) on float32 storage and under the ``vabft`` scheme
selected via ``REPRO_SCHEME``.
"""

import numpy as np
import pytest

from repro.core import AbftConfig
from repro.schemes import SCHEME_ENV_VAR, resolve_scheme
from repro.sparse import random_spd


def one_shot_burst(index=13, magnitude=1e4):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            data[index] += magnitude
            state["armed"] = False

    return hook


def test_repro_scheme_env_selects_vabft(monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, "vabft")
    matrix = random_spd(48, 400, seed=5)
    scheme = resolve_scheme(matrix, config=AbftConfig(block_size=8))
    assert scheme.name == "vabft"
    b = np.random.default_rng(1).standard_normal(48)
    result = scheme.multiply(b, tamper=one_shot_burst())
    assert any(result.detections)
    np.testing.assert_array_equal(result.value, matrix.matvec(b))


@pytest.mark.parametrize("scheme_name", ["abft", "vabft"])
def test_planned_float32_matches_unplanned(scheme_name, monkeypatch):
    monkeypatch.setenv(SCHEME_ENV_VAR, scheme_name)
    matrix = random_spd(64, 520, seed=9, dtype=np.float32)
    b = np.random.default_rng(3).standard_normal(64).astype(np.float32)
    config = AbftConfig(block_size=16)
    direct = resolve_scheme(matrix, config=config)
    planned_host = resolve_scheme(matrix, config=config)
    expected = direct.multiply(b.copy())
    # Bit-identity with the unplanned multiply is the CSR contract; pin
    # the format against a REPRO_FORMAT override.
    plan = planned_host.planned(n_shards=2, sparse_format="csr")
    got = plan.multiply(b.copy())
    np.testing.assert_array_equal(got.value, expected.value)
    assert got.value.dtype == np.float32
