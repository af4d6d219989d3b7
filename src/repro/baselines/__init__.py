"""Related-work fault-tolerance baselines the paper compares against.

All of them register with :mod:`repro.schemes` and share its driver
contract (injected kernels/telemetry, unified result type):

* :class:`DenseCheckSpMV` — detection-only dense ABFT check of [30], [31]
  (``dense_check``);
* :class:`CompleteRecomputationSpMV` — dense check + full recomputation
  [31] (``complete``);
* :class:`PartialRecomputationSpMV` — dense check + iterative bisection
  localization (40 % early stop) + range recomputation [30]
  (``bisection``);
* :class:`CheckpointSpMV` / :class:`CheckpointStore` — dense check with
  checkpoint/rollback recovery (``checkpoint``);
* :class:`DwcSpMV` / :class:`TmrSpMV` — duplication with comparison and
  triple modular redundancy (``redundancy`` / ``tmr``).
"""

from repro.baselines.bisection import (
    DEFAULT_EARLY_STOP,
    BisectionLocalizer,
    LocalizationOutcome,
    PartialRecomputationSpMV,
)
from repro.baselines.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    CheckpointSpMV,
    CheckpointStore,
)
from repro.baselines.complete import CompleteRecomputationSpMV
from repro.baselines.dense_check import DenseCheckReport, DenseCheckSpMV, DenseChecksum
from repro.baselines.redundancy import DwcSpMV, TmrSpMV
from repro.baselines.scheme import BaselineContext, SpmvScheme

__all__ = [
    "BaselineContext",
    "SpmvScheme",
    "DenseChecksum",
    "DenseCheckReport",
    "DenseCheckSpMV",
    "CompleteRecomputationSpMV",
    "PartialRecomputationSpMV",
    "BisectionLocalizer",
    "LocalizationOutcome",
    "DEFAULT_EARLY_STOP",
    "CheckpointSpMV",
    "CheckpointStore",
    "DwcSpMV",
    "TmrSpMV",
    "DEFAULT_CHECKPOINT_INTERVAL",
]
