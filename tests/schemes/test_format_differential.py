"""The scheme × format differential matrix.

Two contracts, one per execution path:

* **Unplanned multiplies are format-blind.** Every registered scheme
  resolves its numerics on the CSR matrix regardless of ``REPRO_FORMAT``
  — a format override must not move a single bit of any scheme's value,
  detections, corrections or simulated cost.  (Formats engage on planned
  paths only; this is what keeps the golden snapshots stable.)

* **Planned ABFT multiplies are bound-level equivalent across formats.**
  The planned operator run on BSR storage must agree with the CSR
  reference within the paper's rounding regime (the storage formats
  re-associate the row sums), with identical detection/correction
  bookkeeping — and bit-for-bit when the requested format resolves back
  to CSR.
"""

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.machine import Machine
from repro.schemes import BUILTIN_SCHEMES, make_scheme
from repro.sparse import FORMAT_ENV_VAR, BUILTIN_FORMATS, random_spd

N, NNZ, MATRIX_SEED, RHS_SEED = 96, 900, 7, 123
BLOCK_SIZE = 16
FORMATS = BUILTIN_FORMATS + ("auto",)


@pytest.fixture(scope="module")
def corpus():
    matrix = random_spd(N, NNZ, seed=MATRIX_SEED)
    b = np.random.default_rng(RHS_SEED).standard_normal(N)
    return matrix, b


def one_shot_burst(index=33, magnitude=1e4):
    state = {"armed": True}

    def hook(stage, data, work):
        if stage == "result" and state["armed"]:
            data[index] += magnitude
            state["armed"] = False

    return hook


def _run_scheme(corpus, name, tampered):
    matrix, b = corpus
    scheme = make_scheme(
        name, matrix, config=AbftConfig(block_size=BLOCK_SIZE), machine=Machine()
    )
    tamper = one_shot_burst() if tampered else None
    return scheme.multiply(b.copy(), tamper=tamper)


@pytest.mark.parametrize("sparse_format", FORMATS)
@pytest.mark.parametrize("scenario", ("clean", "burst"))
@pytest.mark.parametrize("name", BUILTIN_SCHEMES)
def test_unplanned_schemes_ignore_format_override(
    corpus, monkeypatch, name, scenario, sparse_format
):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    reference = _run_scheme(corpus, name, scenario == "burst")
    monkeypatch.setenv(FORMAT_ENV_VAR, sparse_format)
    result = _run_scheme(corpus, name, scenario == "burst")
    np.testing.assert_array_equal(result.value, reference.value)
    assert result.detections == reference.detections
    assert result.corrections == reference.corrections
    assert result.rounds == reference.rounds
    assert result.seconds == reference.seconds
    assert result.flops == reference.flops


@pytest.mark.parametrize("sparse_format", FORMATS)
@pytest.mark.parametrize("scenario", ("clean", "burst"))
def test_planned_abft_matches_csr_across_formats(
    corpus, monkeypatch, scenario, sparse_format
):
    matrix, b = corpus
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    config = AbftConfig(block_size=BLOCK_SIZE)

    def run(fmt):
        op = FaultTolerantSpMV(matrix, config=config, machine=Machine())
        tamper = one_shot_burst() if scenario == "burst" else None
        return op.planned(sparse_format=fmt).multiply(b.copy(), tamper=tamper)

    reference = run("csr")
    ref_value = reference.value.copy()
    result = run(sparse_format)
    # Detection/correction bookkeeping is format-invariant.
    assert result.detections == reference.detections
    assert result.corrections == reference.corrections
    assert result.rounds == reference.rounds
    assert result.exhausted == reference.exhausted
    if sparse_format in ("csr", "auto"):
        # auto keeps CSR on this unstructured corpus: exact equality.
        np.testing.assert_array_equal(result.value, ref_value)
    else:
        # BSR re-associates row sums: bound-level, never exact.
        np.testing.assert_allclose(result.value, ref_value, rtol=1e-12)
