"""Tests for the format registry, resolution order and auto-selection.

The heuristic thresholds asserted here (BSR_MIN_FILL, the candidate
tile edges) are part of the documented contract in
``repro.sparse.formats`` — a threshold change must update both.
"""

import re
import time

import numpy as np
import pytest

from repro.core import AbftConfig, FaultTolerantSpMV
from repro.errors import ConfigurationError
from repro.perf import ProtectedPlan
from repro.sparse import (
    BSR_BLOCK_CANDIDATES,
    BSR_MIN_FILL,
    FORMAT_ENV_VAR,
    BsrMatrix,
    CooMatrix,
    CsrMatrix,
    SparseFormat,
    available_formats,
    banded_spd,
    block_stencil_spd,
    bsr_fill_ratio,
    build_format,
    canonical_format_name,
    probe_block_shape,
    random_spd,
    resolve_format_name,
    select_format,
    suite_matrix,
)


# ----------------------------------------------------------------------
# Names and resolution order
# ----------------------------------------------------------------------
def test_canonical_format_name():
    assert canonical_format_name("csr") == "csr"
    assert canonical_format_name(" BSR ") == "bsr"
    assert canonical_format_name("auto") == "auto"
    with pytest.raises(ConfigurationError, match="unknown sparse format"):
        canonical_format_name("coo")
    with pytest.raises(ConfigurationError, match="must be a name"):
        canonical_format_name(42)


def test_available_formats_sorted():
    assert available_formats() == ("auto", "bsr", "csr")


def test_ell_is_rejected_naming_the_remaining_formats(monkeypatch):
    remaining = "('csr', 'bsr', 'auto')"
    with pytest.raises(ConfigurationError, match="'ell'.*" + re.escape(remaining)):
        AbftConfig(sparse_format="ell")
    monkeypatch.setenv(FORMAT_ENV_VAR, "ell")
    with pytest.raises(ConfigurationError, match="'ell'.*" + re.escape(remaining)):
        resolve_format_name(configured="csr")


def test_resolution_order(monkeypatch):
    monkeypatch.delenv(FORMAT_ENV_VAR, raising=False)
    assert resolve_format_name() == "csr"
    assert resolve_format_name(configured="bsr") == "bsr"
    monkeypatch.setenv(FORMAT_ENV_VAR, "csr")
    assert resolve_format_name(configured="bsr") == "csr"  # env beats configured
    assert resolve_format_name(configured="bsr", explicit="auto") == "auto"  # explicit beats env
    monkeypatch.setenv(FORMAT_ENV_VAR, "bogus")
    with pytest.raises(ConfigurationError, match="unknown sparse format"):
        resolve_format_name()


def test_all_formats_satisfy_the_protocol():
    csr = random_spd(20, 80, seed=1)
    for matrix in (csr, BsrMatrix.from_csr(csr, 4)):
        assert isinstance(matrix, SparseFormat)
        assert matrix.to_csr() == csr


# ----------------------------------------------------------------------
# Structural probes
# ----------------------------------------------------------------------
def test_bsr_fill_ratio_matches_materialized_fill():
    csr = random_spd(96, 900, seed=7)
    for edge in (4, 8, 16):
        assert bsr_fill_ratio(csr, edge) == pytest.approx(
            BsrMatrix.from_csr(csr, edge).fill_ratio
        )


def test_probe_block_shape_ties_break_toward_larger_edge():
    dense = CooMatrix.from_dense(np.ones((16, 16))).to_csr()
    shape, fill = probe_block_shape(dense)
    assert fill == 1.0
    assert shape == (16, 16)  # both candidates reach 1.0; larger wins


def test_probe_block_shape_prefers_the_denser_edge():
    csr = block_stencil_spd(36, 8, seed=2)
    shape, fill = probe_block_shape(csr)
    assert shape == (8, 8) and fill == 1.0


# ----------------------------------------------------------------------
# build_format / select_format
# ----------------------------------------------------------------------
def test_build_format():
    csr = random_spd(24, 100, seed=3)
    assert build_format(csr, "csr") is csr
    assert isinstance(build_format(csr, "bsr"), BsrMatrix)
    assert build_format(csr, "bsr", block_shape=4).block_shape == (4, 4)
    with pytest.raises(ConfigurationError, match="not a storage format"):
        build_format(csr, "auto")


def test_select_format_honors_explicit_requests():
    csr = random_spd(24, 100, seed=4)
    for name, cls in (("csr", CsrMatrix), ("bsr", BsrMatrix)):
        choice, matrix = select_format(csr, name)
        assert choice.format == name and choice.requested == name
        assert choice.reason == "requested explicitly"
        assert isinstance(matrix, cls)


def test_auto_picks_bsr_on_block_structured_matrix():
    csr = block_stencil_spd(36, 8, seed=5)
    choice, matrix = select_format(csr, "auto")
    assert choice.format == "bsr"
    assert isinstance(matrix, BsrMatrix)
    assert choice.fill_ratio >= BSR_MIN_FILL
    assert choice.block_shape in {(e, e) for e in BSR_BLOCK_CANDIDATES}
    assert "fill" in choice.reason


def test_auto_keeps_csr_on_regular_rows():
    # Near-regular row lengths are no reason to leave CSR: only BSR fill is.
    csr = banded_spd(120, half_bandwidth=4, seed=6)
    assert bsr_fill_ratio(csr, 8) < BSR_MIN_FILL  # BSR leg really rejected
    choice, matrix = select_format(csr, "auto")
    assert choice.format == "csr"
    assert matrix is csr
    assert "fill" in choice.reason and "safe default" in choice.reason


def test_auto_resolves_bcsstk13_to_csr():
    # Near-regular rows but low tile fill: CSR is the faster format here.
    csr = suite_matrix("bcsstk13")
    choice, matrix = select_format(csr, "auto")
    assert choice.format == "csr"
    assert matrix is csr


def test_auto_falls_back_to_csr_on_hostile_matrix():
    csr = random_spd(256, 2500, seed=21)  # unstructured scatter
    choice, matrix = select_format(csr, "auto")
    assert choice.format == "csr"
    assert matrix is csr


def test_auto_on_empty_matrix():
    csr = CooMatrix.from_entries((8, 8), []).to_csr()
    choice, matrix = select_format(csr, "auto")
    assert choice.format == "csr"
    assert "empty matrix" in choice.reason


def test_auto_never_reads_the_clock(monkeypatch):
    # Above 200k nnz, where plans used to time BSR against CSR: the auto
    # choice is a pure function of the matrix, so two plans built for it
    # always run the same format.
    csr = block_stencil_spd(700, 8, seed=8)
    assert csr.nnz >= 200_000
    operator = FaultTolerantSpMV(csr)

    def no_clock():
        raise AssertionError("auto format selection read the clock")

    monkeypatch.setattr(time, "perf_counter", no_clock)
    first, _ = select_format(csr, "auto")
    second, _ = select_format(csr, "auto")
    plan = ProtectedPlan(operator, parallel="serial", sparse_format="auto")
    assert first == second == plan.format_choice
    assert first.format == "bsr"
