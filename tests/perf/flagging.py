"""A bound that flags one block at its first check, for correction tests."""

import numpy as np


class FirstCheckFlagsBlockOne:
    """An analytical bound without ``beta_coefficients``, so the plan
    evaluates ``thresholds`` at every check.  The first check reads -1
    for block 1, which flags it; every later check reads the true bound."""

    def __init__(self, bound):
        self._bound = bound
        self._checks = 0

    def thresholds(self, beta, blocks=None):
        thresholds = self._bound.thresholds(beta, blocks)
        self._checks += 1
        if self._checks == 1:
            ids = np.arange(thresholds.size) if blocks is None else np.asarray(blocks)
            thresholds[ids == 1] = -1.0
        return thresholds
