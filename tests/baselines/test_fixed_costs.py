"""Every related-work scheme builds its detection graph once.

A scheme's detection graph is fixed per matrix, so the scheme builds it
at construction, and each multiply charges it through
``Machine.makespan``'s memo.  Over repeated clean multiplies no scheme
builds a task graph or runs the scheduler, and each multiply charges
exactly the detection graph's scheduled makespan and work.
"""

import numpy as np
import pytest

from repro.baselines import DenseChecksum
from repro.core.config import AbftConfig
from repro.machine import Machine, TaskGraph
from repro.schemes import make_scheme
from repro.sparse import random_spd

RELATED_WORK = ("bisection", "checkpoint", "complete", "dense_check", "redundancy", "tmr")


@pytest.mark.parametrize("name", RELATED_WORK)
def test_clean_multiplies_reuse_the_fixed_detection_graph(monkeypatch, name):
    matrix = random_spd(300, 3000, seed=5)
    b = np.random.default_rng(5).standard_normal(matrix.n_cols)
    scheme = make_scheme(name, matrix, config=AbftConfig(), machine=Machine())
    graph = scheme.detection_graph()
    expected = (Machine().schedule(graph).makespan, graph.total_work())
    scheme.multiply(b)

    calls = []
    for owner, attr in (
        (TaskGraph, "add"),
        (Machine, "schedule"),
        (DenseChecksum, "detection_graph"),
        (type(scheme), "detection_graph"),
    ):
        original = getattr(owner, attr)

        def counted(*args, _original=original, _attr=attr, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    for _ in range(3):
        result = scheme.multiply(b)
        assert result.clean
        assert (result.seconds, result.flops) == expected
    assert calls == []
