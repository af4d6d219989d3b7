"""The unified result type shared by every protection scheme.

Every scheme reports boolean per-check detections and row-range
corrections, and schemes that localize to blocks (the paper's)
additionally fill the block-id fields, so campaigns comparing schemes
never need to know which one they are holding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class ProtectedSpmvResult:
    """Outcome of one protected multiply, for any scheme.

    Attributes:
        value: the (possibly corrected) result vector.
        detections: per check, True if the check fired — index 0 is the
            initial detection, later entries are re-verifications after
            each correction round.
        corrections: row ranges ``(start, stop)`` that were recomputed, in
            correction order (complete recomputation reports the full
            range; block schemes report each corrected block's range).
        rounds: correction rounds performed.
        seconds: simulated time charged for this multiply.
        flops: arithmetic operations charged for this multiply.
        exhausted: True if the check still failed when the round budget ran
            out (or the scheme detects but cannot correct — e.g. the
            checkpoint baseline, which signals its caller to roll back).
        detected_blocks: per check, the flagged block indices — only block
            schemes fill this; range/scalar schemes leave it empty.
        corrected_blocks: sorted distinct block ids that were recomputed —
            only block schemes fill this.
    """

    value: np.ndarray
    detections: Tuple[bool, ...]
    corrections: Tuple[Tuple[int, int], ...]
    rounds: int
    seconds: float
    flops: float
    exhausted: bool
    detected_blocks: Tuple[Tuple[int, ...], ...] = ()
    corrected_blocks: Tuple[int, ...] = ()

    @property
    def clean(self) -> bool:
        """True when the initial check passed (vacuously for no checks).

        An empty ``detections`` tuple means the scheme ran no check at
        all; that multiply is clean by definition rather than an
        ``IndexError``.
        """
        return not self.detections or not self.detections[0]

    @property
    def detected(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-check flagged block tuples (same as :attr:`detected_blocks`)."""
        return self.detected_blocks
