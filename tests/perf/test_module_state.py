"""The ``threads`` path writes no module-level state.

A threaded plan runs ``FusedShardBuffers.detect_shard`` on pool threads,
one task per shard.  Everything those tasks write must belong to the
plan: a module-level counter or cache written there is shared by every
plan in the process, and concurrent shards race on it without a lock.

The check runs in a fresh interpreter, so no other test's imports or
patches leak in.  It builds a 3-shard ``threads`` plan, starts its
thread pool, snapshots the top-level names of every imported ``repro``
module (containers by shallow copy, scalars by value, every other object
by identity), runs three multiplies and prints every name that changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import collections
import copy
import json
import sys

import numpy as np

from repro.core import FaultTolerantSpMV
from repro.perf import ProtectedPlan
from repro.perf.backends import get_executor
from repro.sparse import random_spd

SCALARS = (bool, int, float, complex, str, bytes, type(None))
CONTAINERS = (dict, list, set, collections.deque)


def modules():
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "repro" or name.startswith("repro.")
    }


# Every module-level name: its value, plus a shallow copy of a container.
# Holding the values keeps them alive, so no identity is reused.
def snapshot():
    return {
        f"{name}.{attr}": (value, copy.copy(value) if isinstance(value, CONTAINERS) else None)
        for name, module in modules().items()
        for attr, value in vars(module).items()
    }


# Scalars compare by value, other objects by identity, and containers
# also by their items, each item by identity.
def same(before, after):
    (old, old_items), (new, new_items) = before, after
    if isinstance(old, SCALARS):
        return type(old) is type(new) and (old is new or old == new)
    if old is not new:
        return False
    if old_items is None:
        return True
    if len(old_items) != len(new_items):
        return False
    if isinstance(old_items, dict):
        return all(key in new_items and new_items[key] is item for key, item in old_items.items())
    if isinstance(old_items, set):
        return old_items == new_items
    return all(x is y for x, y in zip(old_items, new_items))


operator = FaultTolerantSpMV(random_spd(3000, 24000, seed=7), block_size=64)
plan = ProtectedPlan(operator, n_shards=3, parallel="threads", sparse_format=sys.argv[1])
assert plan.spmv.n_shards == 3, plan.spmv.n_shards
get_executor(plan.spmv.n_shards)
b = np.random.default_rng(7).standard_normal(3000)

before = snapshot()
for _ in range(3):
    plan.multiply(b)
after = snapshot()
changed = sorted(
    key for key in before.keys() | after.keys()
    if key not in before or key not in after or not same(before[key], after[key])
)
print(json.dumps({"modules": sorted(modules()), "changed": changed}))
"""


@pytest.mark.parametrize("sparse_format", ["csr", "bsr"])
def test_threaded_multiplies_leave_module_state_unchanged(sparse_format):
    # The plan pins its backend and format; no ambient REPRO_* selector
    # (telemetry included) may change what runs.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    process = subprocess.run(
        [sys.executable, "-c", SCRIPT, sparse_format],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    report = json.loads(process.stdout.splitlines()[-1])
    assert {"repro.perf.plan", "repro.perf.backends"} <= set(report["modules"])
    assert report["changed"] == []
