"""Fixture: public selector-taking functions with no validation path."""

from repro.sparse.formats import FORMAT_SELECTOR


def make_detector(matrix, kind="block"):  # MARK:ABFT006
    if kind == "block":
        return ("block", matrix)
    return ("dense", matrix)


def pick_scheme(matrix, scheme: str = "abft"):  # MARK:ABFT006
    return {"abft": matrix, "dense": None}.get(scheme)


def stage_matrix(matrix, sparse_format="csr"):  # MARK:ABFT006
    if sparse_format == "bsr":
        return ("bsr", matrix)
    return ("csr", matrix)  # unknown names silently fall through to CSR


def pick_format(matrix, sparse_format="csr"):  # MARK:ABFT006
    # A selector's pick() returns the raw winning value: nothing validated.
    name, _ = FORMAT_SELECTOR.pick(sparse_format)
    return (name, matrix)
