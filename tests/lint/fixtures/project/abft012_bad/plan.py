"""Allocation reachable from plan execution (ABFT012 must fire)."""

import numpy as np


class SpmvPlan:
    def __init__(self, n):
        self.out = np.zeros(n)

    def execute(self, x):
        return accumulate(x, self.out)


def accumulate(x, out):
    scratch = np.zeros(len(x))  # MARK:ABFT012
    history = []  # MARK:ABFT012
    history.append(scratch)
    out[0] = scratch[0]
    return out


class ProtectedPlan:
    def __init__(self, n):
        self.thresholds = np.zeros(n)

    def _detect(self, beta):
        margins = np.zeros(3)  # MARK:ABFT012
        margins[0] = beta
        return margins
