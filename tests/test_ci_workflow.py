"""CI runs a tier-1 leg for every built-in scheme and non-default format.

Adding a built-in is one edit to its table; these tests make that edit
add its CI leg too.  The workflow is read as text, because the ``test``
extra installs no YAML parser.
"""

import re
from pathlib import Path

from repro.schemes import BUILTIN_SCHEMES
from repro.sparse.formats import DEFAULT_FORMAT, FORMAT_NAMES

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"


def matrix_axis(name):
    """The values of the one ``<name>: [...]`` matrix axis of the workflow."""
    axes = re.findall(rf"^ +{re.escape(name)}: \[([^\]]*)\]$", WORKFLOW.read_text(), re.M)
    assert len(axes) == 1, axes
    return [value.strip().strip("'\"") for value in axes[0].split(",")]


def test_every_builtin_scheme_has_a_ci_leg():
    assert matrix_axis("scheme") == list(BUILTIN_SCHEMES)


def test_every_non_default_format_has_a_ci_leg():
    assert matrix_axis("sparse-format") == [
        name for name in FORMAT_NAMES if name != DEFAULT_FORMAT
    ]
