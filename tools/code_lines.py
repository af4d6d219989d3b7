"""Count code-only lines of Python sources.

A line counts when it holds at least one token that is not a comment, a
docstring or whitespace: blank lines, comment-only lines and docstring
lines are left out, and every line of a multi-line statement that carries
a token counts.  Docstrings are the leading string literal of a module,
class or function body.  Prints one ``count path`` line per file and the
total for all paths given (directories are walked for ``*.py``):

    python tools/code_lines.py src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, List, Set, Tuple

#: Token types that never make a line count.
_SKIPPED = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
    }
)

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            end = first.end_lineno or first.lineno
            lines.update(range(first.lineno, end + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a code token."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIPPED or token.start[0] in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _python_files(paths: Iterable[str]) -> Iterator[Path]:
    for name in paths:
        path = Path(name)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv: List[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts: List[Tuple[int, Path]] = [
        (count_code_lines(path.read_text(encoding="utf-8")), path)
        for path in _python_files(argv)
    ]
    for count, path in counts:
        print(f"{count:7d} {path}")
    print(f"{sum(count for count, _ in counts):7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
