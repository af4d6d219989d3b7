"""The kernel-set interface, its block-id check, and the two config
fields that name the library's one kernel set."""

import numpy as np
import pytest

from repro.core.config import AbftConfig
from repro.errors import ConfigurationError, ShapeMismatchError
from repro.kernels import KernelSet, validate_blocks
from repro.kernels.vectorized import VectorizedKernels
from repro.solvers.ft_pcg import FtPcgOptions
from repro.sparse import random_spd


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


def test_validate_blocks_rejects_2d_ids():
    with pytest.raises(ConfigurationError, match="1-D"):
        validate_blocks(np.array([[0, 1]]), 4)
    with pytest.raises(ConfigurationError, match="1-D"):
        validate_blocks(np.zeros((1, 1, 1), dtype=np.int64), 4)


def test_validate_blocks_reads_a_0d_id_as_one_block():
    out = validate_blocks(np.array(3), 4)
    assert out.shape == (1,) and out.dtype == np.int64
    assert out[0] == 3


def test_validate_blocks_accepts_empty_and_valid():
    assert validate_blocks(np.empty(0), 4).size == 0
    out = validate_blocks(np.array([3, 0], dtype=np.int32), 4)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [3, 0])


@pytest.mark.parametrize("owner", [AbftConfig, FtPcgOptions], ids=lambda cls: cls.__name__)
def test_kernel_field_accepts_only_the_library_set(owner):
    assert owner().kernel == owner(kernel="vectorized").kernel == "vectorized"
    for value in ("naive", "parallel", None):
        with pytest.raises(ConfigurationError, match=f"{owner.__name__}.kernel"):
            owner(kernel=value)


@pytest.mark.parametrize("rows", [[3], list(range(40))], ids=["sliced", "gathered"])
def test_row_checksums_reject_a_wrong_operand_shape(rows):
    matrix = random_spd(40, 300, seed=2)
    with pytest.raises(ShapeMismatchError, match=r"operand has shape \(41,\)"):
        VectorizedKernels().row_checksums(matrix, np.array(rows), np.ones(41))
