"""A smoke run of the whole ledger against its declaration."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import cli, compare
from benchmarks.ledger.metrics import END_TO_END, PER_LAYER
from benchmarks.ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger")
    with pytest.MonkeyPatch.context() as patch:
        for name in cli.repro_variables():
            patch.delenv(name)
        status = cli.main(["--smoke", "--seed", "0", "--out", str(out)])
    return status, out, json.loads((out / "BENCH_ledger.json").read_text())


def test_declaration_matches_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in DECLARED["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert DECLARED["end_to_end"] == [m._asdict() for m in END_TO_END]
    assert DECLARED["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert DECLARED["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert DECLARED["run_seconds"] == cli.RUN_SECONDS


def test_smoke_run_emits_exactly_the_declared_names(smoke):
    status, out, ledger = smoke
    assert status == 0
    assert sorted(ledger["workloads"]) == sorted(w["name"] for w in DECLARED["workloads"])
    for entry in ledger["workloads"].values():
        assert set(entry["untraced"]["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
        assert set(entry["traced"]["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
        assert entry["traced"]["identity_broken"] == 0
    assert sorted(p.name for p in out.glob("spans-*.jsonl")) == sorted(
        f"spans-{name}.jsonl" for name in WORKLOADS
    )


@pytest.mark.parametrize("workload", ["suite", "fem_f32", "faults"])
def test_every_visible_fault_is_corrected(smoke, workload):
    _, _, ledger = smoke
    for mode in ("untraced", "traced"):
        record = ledger["workloads"][workload][mode]
        assert record["attempted"] > 0
        assert record["failed_frac"] == 0.0
        assert record["correct"]


def test_repro_variables_are_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FORMAT", "bsr")
    assert cli.main(["--smoke"]) == 2
    assert "REPRO_FORMAT" in capsys.readouterr().err


def test_compare_passes_a_file_against_itself_and_fails_a_shift(smoke, tmp_path, capsys):
    _, out, ledger = smoke
    path = out / "BENCH_ledger.json"
    assert compare.main([str(path), str(path)]) == 0
    ledger["workloads"]["suite"]["untraced"]["metrics"]["overhead_p50"] *= 1.5
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(ledger))
    assert compare.main([str(path), str(shifted)]) == 1
    assert "FAIL suite" in capsys.readouterr().out


def test_run_without_the_library_fails_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "ledger"
    shutil.copytree(ROOT / "benchmarks" / "ledger", bench, ignore=shutil.ignore_patterns(".cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", "suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
