"""tools/code_lines.py counts only the lines that hold code."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


def join(*parts):
    """Function docstring."""
    # a comment-only line
    return os.path.join(
        *parts,
    )
'''


def test_counts_code_lines_only():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from code_lines import count_code_lines
    finally:
        sys.path.pop(0)
    # import, def, and the three lines of the multi-line return call.
    assert count_code_lines(SOURCE) == 5
