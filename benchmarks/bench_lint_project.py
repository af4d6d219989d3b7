"""Cold vs. incremental project-analysis time for reprolint.

The project engine's promise is that a warm run — content hashes
unchanged, cache intact — skips parsing and summary extraction for every
file and only re-links.  This harness times three scenarios over the
repo's own ``src/`` tree:

* ``cold``        — empty cache: every file parsed and summarized;
* ``warm``        — second run over the same tree: every file a cache hit;
* ``incremental`` — one leaf file's content changed: that file plus its
  reverse-import dependents re-analyzed, the rest served from cache.

Assertions are about *work*, not wall-clock (CI boxes are noisy): the
warm run must re-analyze zero files and the incremental run strictly
fewer than the cold run.  The JSON written to
``results/BENCH_lint_project.json`` additionally records the timings so
future engine changes have a perf trajectory to compare against.
"""

import shutil
import time
from pathlib import Path

from benchmarks.conftest import bench_env, write_json, write_result
from repro.lint import analyze_project

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
REPEATS = 3

#: The leaf edited for the incremental scenario (imported by the plan
#: module, so its dependents — not the whole tree — must re-analyze).
EDIT_TARGET = Path("repro") / "perf" / "sharding.py"


def _timed_run(tree: Path, cache: Path):
    start = time.perf_counter()
    result = analyze_project([tree], cache_path=cache, base=tree.parent)
    elapsed = time.perf_counter() - start
    return result, elapsed


def test_cold_vs_incremental_analysis(tmp_path):
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree)
    cache = tmp_path / ".reprolint-cache.json"

    scenarios = {}

    cold_times = []
    for repeat in range(REPEATS):
        if cache.exists():
            cache.unlink()
        result, elapsed = _timed_run(tree, cache)
        cold_times.append(elapsed)
    scenarios["cold"] = {
        "seconds": min(cold_times),
        "files_checked": result.files_checked,
        "cache_hits": result.cache_hits,
        "reanalyzed": result.reanalyzed,
    }
    assert result.cache_hits == 0
    assert result.reanalyzed == result.files_checked

    warm_times = []
    for repeat in range(REPEATS):
        result, elapsed = _timed_run(tree, cache)
        warm_times.append(elapsed)
    scenarios["warm"] = {
        "seconds": min(warm_times),
        "files_checked": result.files_checked,
        "cache_hits": result.cache_hits,
        "reanalyzed": result.reanalyzed,
    }
    assert result.reanalyzed == 0
    assert result.cache_hits == result.files_checked

    target = tree / EDIT_TARGET
    incremental_times = []
    for repeat in range(REPEATS):
        target.write_text(
            target.read_text(encoding="utf-8") + f"\n# edit {repeat}\n",
            encoding="utf-8",
        )
        result, elapsed = _timed_run(tree, cache)
        incremental_times.append(elapsed)
    scenarios["incremental"] = {
        "seconds": min(incremental_times),
        "files_checked": result.files_checked,
        "cache_hits": result.cache_hits,
        "reanalyzed": result.reanalyzed,
        "edited": EDIT_TARGET.as_posix(),
    }
    assert 0 < result.reanalyzed < result.files_checked
    assert result.cache_hits + result.reanalyzed == result.files_checked

    payload = {
        "benchmark": "lint_project",
        "config": {"repeats": REPEATS, "tree": "src"},
        "env": bench_env(),
        "scenarios": scenarios,
        "asserted": {
            "warm_reanalyzes_nothing": True,
            "incremental_reanalyzes_subset": True,
        },
    }
    write_json("lint_project", payload)

    lines = ["scenario      seconds  files  hits  reanalyzed"]
    for name, stats in scenarios.items():
        lines.append(
            f"{name:<12} {stats['seconds']:>8.3f}  {stats['files_checked']:>5}"
            f"  {stats['cache_hits']:>4}  {stats['reanalyzed']:>10}"
        )
    write_result("bench_lint_project", "\n".join(lines))
