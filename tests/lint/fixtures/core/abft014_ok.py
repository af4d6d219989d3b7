"""Fixture: named dtypes in function bodies are fine."""

import numpy as np

ACCUMULATION_DTYPE = np.dtype(np.float64)

#: Raw literals at module level define the named constants themselves.
MACHINE_EPSILON = np.float64(2.0) ** -53


def accumulate(values):
    return values.astype(ACCUMULATION_DTYPE)


def allocate(n, matrix):
    return np.zeros(n, dtype=matrix.data.dtype)


def index_array(n):
    return np.arange(n, dtype=np.int64)
