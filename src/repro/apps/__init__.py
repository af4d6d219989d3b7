"""Protected applications built on the core scheme (paper Section III-E).

The application's inner loop multiplies a fixed sparse matrix every step,
the data-reuse pattern under which the checksum-matrix setup amortizes:
:func:`power_iteration` / :func:`pagerank` — graph analytics.
"""

from repro.apps.power import (
    PowerIterationResult,
    build_link_matrix,
    pagerank,
    power_iteration,
)

__all__ = [
    "power_iteration",
    "pagerank",
    "build_link_matrix",
    "PowerIterationResult",
]
