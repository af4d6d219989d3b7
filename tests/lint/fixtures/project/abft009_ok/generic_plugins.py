"""Generic-registry registration in a plain module (ABFT009 stays quiet)."""

from generic_registry import SCHEME_REGISTRY


class SparseScheme:
    pass


SCHEME_REGISTRY.register(SparseScheme, "sparse")  # ok: parent-only module
