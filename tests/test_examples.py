"""Smoke tests: the fast examples and the tutorial must run end to end."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
TUTORIAL = ROOT / "docs" / "tutorial.md"


def _run(name: str, timeout: int = 240) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    return process.stdout


def test_quickstart_example():
    out = _run("quickstart.py")
    assert "result verified: bit-identical" in out


def test_block_size_tuning_example():
    out = _run("block_size_tuning.py")
    assert "optimal block sizes" in out


@pytest.mark.parametrize(
    "name, marker",
    [
        ("pagerank.py", "protected after late strike"),
        ("fault_model_study.py", "exponent"),
    ],
)
def test_heavier_examples(name, marker):
    assert marker in _run(name)


def test_tutorial_runs():
    # Later snippets reuse earlier names, so the blocks run in order in
    # one script, i.e. one namespace.
    blocks = re.findall(r"^```python\n(.*?)^```", TUTORIAL.read_text(), re.M | re.S)
    assert blocks, "no python blocks found in docs/tutorial.md"
    process = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert process.returncode == 0, process.stderr[-2000:]
