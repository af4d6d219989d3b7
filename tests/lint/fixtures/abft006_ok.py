"""Fixture: selector parameters with a validation-error path."""

from repro.core import make_bound
from repro.sparse import canonical_format_name
from repro.sparse.formats import FORMAT_SELECTOR


def make_detector(matrix, kind="block"):
    if kind not in ("block", "dense"):
        raise ValueError(f"unknown detector kind {kind!r}")
    return (kind, matrix)


def delegated(checksum, kind="sparse"):
    return make_bound(kind, checksum)


def stage_matrix(matrix, sparse_format="csr"):
    name = canonical_format_name(sparse_format)
    return (name, matrix)


def _private_helper(matrix, kind="block"):
    return (kind, matrix)


def typed_selector(matrix, mode: int = 0):
    return (mode, matrix)


def resolve_format(matrix, sparse_format="csr"):
    name = FORMAT_SELECTOR.resolve(sparse_format)
    return (name, matrix)
