"""Rule interface and shared AST helpers for reprolint."""

from __future__ import annotations

import abc
import ast
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from repro.lint.findings import Finding


class ModuleContext:
    """Everything a rule may inspect about one source file.

    Attributes:
        path: filesystem path of the module.
        display_path: POSIX-style path used in findings (relative to the
            lint root when one is given).
        tree: the parsed :class:`ast.Module`.
        source: full source text.
        lines: source split into lines (no terminators).
    """

    def __init__(
        self,
        path: Path,
        tree: ast.Module,
        source: str,
        display_path: Optional[str] = None,
    ) -> None:
        self.path = path
        self.display_path = display_path or path.as_posix()
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()

    def snippet(self, line: int) -> str:
        """Stripped source text of a 1-based line (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s position."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.display_path,
            line=line,
            column=column,
            rule=rule,
            message=message,
            snippet=self.snippet(line),
        )

    def functions(self) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
        """Yield ``(function_node, ancestor_stack)`` for every function.

        The stack holds the enclosing ``ClassDef``/function nodes, outermost
        first — rules use it to tell methods from free functions.
        """
        stack: List[ast.AST] = []

        def walk(node: ast.AST) -> Iterator[Tuple[ast.AST, List[ast.AST]]]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, list(stack)
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    stack.append(child)
                    yield from walk(child)
                    stack.pop()
                else:
                    yield from walk(child)

        yield from walk(self.tree)


class LintRule(abc.ABC):
    """One static check over a parsed module.

    Subclasses define the identifying metadata and implement :meth:`check`;
    instances are stateless and shared across files.
    """

    #: Rule identifier, e.g. ``"ABFT003"``; registry key.
    rule_id: str = "ABFT000"

    #: One-line summary shown by ``--list-rules`` and in SARIF metadata.
    title: str = ""

    #: Which protocol invariant of the paper the rule protects (docs/SARIF).
    rationale: str = ""

    @abc.abstractmethod
    def check(self, module: ModuleContext) -> Iterator[Finding]:
        """Yield a finding for every violation in ``module``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LintRule {self.rule_id}>"


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """Textual dotted name of a Name/Attribute chain (``"np.add.reduceat"``).

    Chains that pass through calls or subscripts collapse those hops to
    ``()``/``[]`` markers; anything unresolvable yields ``""``.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            break
        elif isinstance(node, ast.Call):
            parts.append("()")
            node = node.func
        elif isinstance(node, ast.Subscript):
            parts.append("[]")
            node = node.value
        else:
            return ""
    return ".".join(reversed(parts))


def terminal_name(node: ast.AST) -> str:
    """Last identifier of a Name/Attribute chain (``a.b.c`` -> ``"c"``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def registry_method(node: ast.Call) -> str:
    """Method name of a call on a :mod:`repro.registry` object, else ``""``.

    Registries and selectors are module constants named ``*_REGISTRY``
    and ``*_SELECTOR``: ``SCHEME_REGISTRY.get(name)`` yields ``"get"``,
    ``os.environ.get(name)`` yields ``""``.
    """
    func = node.func
    if isinstance(func, ast.Attribute) and terminal_name(func.value).lower().endswith(
        ("registry", "selector")
    ):
        return func.attr
    return ""


def call_names(body: List[ast.stmt]) -> set[str]:
    """Terminal names of every call made anywhere inside ``body``.

    A method call on a registry or selector (:func:`registry_method`) is
    also reported as ``"registry.<method>"``.
    """
    names: set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name:
                    names.add(name)
                if registry_method(node):
                    names.add(f"registry.{name}")
    return names


def contains_raise(body: List[ast.stmt]) -> bool:
    """True when any statement in ``body`` (recursively) raises."""
    return any(
        isinstance(node, ast.Raise) for stmt in body for node in ast.walk(stmt)
    )
