"""CI runs a tier-1 leg for every built-in scheme and non-default format,
and sets no ``REPRO_*`` variable the code does not read.

Adding a built-in is one edit to its table; these tests make that edit
add its CI leg too, and deleting a variable fail until its legs go.  The
workflow is read as text, because the ``test`` extra installs no YAML
parser.
"""

import re
from pathlib import Path

from repro.core.config import selectors
from repro.obs.exporters import OBS_PATH_ENV_VAR
from repro.schemes import BUILTIN_SCHEMES
from repro.sparse.formats import DEFAULT_FORMAT, FORMAT_NAMES

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"


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


def variables_read():
    """Every ``REPRO_*`` variable the code reads: each selector's, the
    JSONL exporter's path, and the benchmarks' ``os.environ.get`` reads."""
    names = {selector.env_var for selector in selectors()} | {OBS_PATH_ENV_VAR}
    for bench in (ROOT / "benchmarks").glob("*.py"):
        names.update(re.findall(r'os\.environ\.get\("(REPRO_\w+)"', bench.read_text()))
    return names


def test_every_variable_ci_sets_is_read():
    set_by_ci = set(re.findall(r"\b(REPRO_\w+)=", WORKFLOW.read_text()))
    assert set_by_ci, "the workflow sets no REPRO_* variable"
    assert set_by_ci <= variables_read(), sorted(set_by_ci - variables_read())
