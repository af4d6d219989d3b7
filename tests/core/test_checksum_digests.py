"""The checksum matrices of the four PCG matrices match the committed digests.

``tools/checksum_digests.py --check`` diffs all 243 digests (the 25
Table I matrices and the two ``fem_f32`` matrices); this test recomputes
the 36 of ``nos3``, ``bcsstk21``, ``bcsstk11`` and ``ex3``, which generate
in a fraction of a second.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
PCG_MATRICES = ("nos3", "bcsstk21", "bcsstk11", "ex3")


def _tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import checksum_digests
    finally:
        sys.path.pop(0)
    return checksum_digests


def test_pcg_matrix_digests_match_the_golden_file():
    tool = _tool()
    golden = json.loads(tool.GOLDEN.read_text())
    assert len(golden) == len(tool.MATRIX_NAMES) * 9 == 243
    records = tool.digests(PCG_MATRICES)
    assert len(records) == 36
    assert tool.differences(records, golden) == []


def test_check_mode_reports_a_changed_digest(tmp_path, capsys, monkeypatch):
    tool = _tool()
    golden = json.loads(tool.GOLDEN.read_text())
    golden["nos3/32/linear"]["sha256"] = "0" * 64
    changed = tmp_path / "digests.json"
    changed.write_text(json.dumps(golden))
    monkeypatch.setattr(tool, "GOLDEN", changed)
    monkeypatch.setattr(tool, "MATRIX_NAMES", ("nos3",))
    assert tool.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "nos3/32/linear" in out and "8 of 9 digests match" in out
