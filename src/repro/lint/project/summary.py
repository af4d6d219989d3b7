"""Per-file fact extraction for project-wide analysis.

One pass over a module's AST produces a **summary**: a plain
JSON-serializable dict holding everything the cross-module rules need —
imports, classes with attribute types, functions with their call sites,
protected-matrix mutations, allocation sites, module-state writes, and
the callables handed to thread pools.

Summaries are deliberately *syntactic*: extraction looks at one file in
isolation and never consults another module, which makes the result a
pure function of the file's content — the property the incremental cache
(:mod:`repro.lint.project.cache`) relies on.  All cross-module meaning
(resolving a call to the function it names, following a re-export to
its defining module) is added later by the linker
(:mod:`repro.lint.project.graph`).
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.lint.rules.abft import PROTECTED_ATTRS, REFRESH_CALLS
from repro.lint.rules.base import dotted_name, terminal_name

#: Call names that hand a callable to a thread-execution primitive.
THREAD_SPAWN_CALLS = frozenset({"submit", "Thread", "map"})

#: NumPy calls that always materialize a fresh array.
NP_ALLOCATORS = frozenset(
    {
        "empty", "zeros", "ones", "full", "arange", "array", "copy",
        "empty_like", "zeros_like", "ones_like", "full_like",
        "concatenate", "stack", "hstack", "vstack", "tile", "repeat",
    }
)

#: Builtin constructors that materialize a fresh container.
CONTAINER_CONSTRUCTORS = frozenset({"list", "dict", "set"})

#: Mutating container methods (writes to shared module-level state).
STATE_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "add", "update", "pop", "popitem", "clear",
        "discard", "remove", "setdefault", "insert",
    }
)

#: Module-level constructors marking a binding as mutable shared state.
MUTABLE_STATE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "WeakSet",
     "WeakValueDictionary", "deque", "Counter"}
)

Summary = Dict[str, Any]


def _annotation_name(node: Optional[ast.expr]) -> str:
    """Terminal class name of an annotation (handles string annotations,
    ``Optional[X]``/quoted forward refs); ``""`` when unresolvable."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.strip().strip("'\"")
        return text.rsplit(".", 1)[-1] if text.isidentifier() or "." in text else ""
    if isinstance(node, ast.Subscript):  # Optional[X], quoted or not
        return _annotation_name(node.slice)
    name = terminal_name(node)
    return name


def _call_descriptor(node: ast.Call) -> Optional[Dict[str, Any]]:
    """Classify a call's receiver shape for later resolution."""
    func = node.func
    if isinstance(func, ast.Name):
        return {"kind": "name", "name": func.id, "line": node.lineno,
                "col": node.col_offset + 1}
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return {"kind": "self", "method": func.attr,
                        "line": node.lineno, "col": node.col_offset + 1}
            return {"kind": "var", "var": base.id, "method": func.attr,
                    "line": node.lineno, "col": node.col_offset + 1}
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return {"kind": "self_attr", "attr": base.attr, "method": func.attr,
                    "line": node.lineno, "col": node.col_offset + 1}
        dotted = dotted_name(func)
        if dotted:
            return {"kind": "dotted", "dotted": dotted,
                    "name": terminal_name(func),
                    "line": node.lineno, "col": node.col_offset + 1}
    return None


def _ref_descriptor(node: ast.expr) -> Optional[Dict[str, Any]]:
    """Classify a bare callable reference (a function passed as a value)."""
    if isinstance(node, ast.Name):
        return {"kind": "name", "name": node.id}
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                return {"kind": "self", "method": node.attr}
            return {"kind": "var", "var": base.id, "method": node.attr}
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            return {"kind": "self_attr", "attr": base.attr, "method": node.attr}
    return None


class _FunctionFacts:
    """Mutable accumulator for one function's facts."""

    def __init__(
        self,
        name: str,
        class_name: Optional[str],
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.node = node
        self.calls: List[Dict[str, Any]] = []
        self.callable_refs: List[Dict[str, Any]] = []
        self.param_types: Dict[str, str] = {}
        self.local_types: Dict[str, str] = {}
        self.local_calls: Dict[str, str] = {}
        self.returns_ctor: Optional[str] = None
        self.returned_names: Set[str] = set()
        self.refreshes = False
        self.mutations: List[Dict[str, Any]] = []
        self.allocations: List[Dict[str, Any]] = []
        self.state_writes: List[Dict[str, Any]] = []
        self.local_names: Set[str] = set()
        self.global_names: Set[str] = set()

    def to_dict(self) -> Dict[str, Any]:
        mutations = []
        for m in self.mutations:
            base_kind = m["base_kind"]
            escapes = base_kind in ("param", "self", "self_attr") or (
                base_kind == "local" and m["base"] in self.returned_names
            )
            mutations.append({**m, "escapes": escapes})
        return {
            "name": self.name,
            "class": self.class_name,
            "line": getattr(self.node, "lineno", 0),
            "calls": self.calls,
            "callable_refs": self.callable_refs,
            "param_types": self.param_types,
            "local_types": self.local_types,
            "local_calls": self.local_calls,
            "returns_ctor": self.returns_ctor,
            "refreshes": self.refreshes,
            "mutations": mutations,
            "allocations": self.allocations,
            "state_writes": self.state_writes,
        }


class _SummaryExtractor(ast.NodeVisitor):
    """One-pass walker building the module summary."""

    def __init__(self, module_name: str) -> None:
        self.module_name = module_name
        self.imports: Dict[str, str] = {}
        self.module_deps: Set[str] = set()
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.module_facts = _FunctionFacts("<module>", None, ast.FunctionDef())
        self.module_state: Set[str] = set()
        self.module_locks: Set[str] = set()
        self._class_stack: List[str] = []
        self._function_stack: List[_FunctionFacts] = []
        self._with_guards: List[str] = []

    # ------------------------------------------------------------------
    # Imports
    # ------------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.imports[local] = target
            self.module_deps.add(alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            # Relative imports: resolve against this module's package.
            package = self.module_name.rsplit(".", node.level or 1)[0] if node.level else ""
            base = ".".join(p for p in (package, node.module or "") if p)
        else:
            base = node.module
        if base:
            self.module_deps.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.imports[local] = f"{base}.{alias.name}"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._class_stack or self._function_stack:
            self.generic_visit(node)
            return
        self.classes[node.name] = {
            "line": node.lineno,
            "bases": [terminal_name(b) for b in node.bases if terminal_name(b)],
            "methods": {},
            "attr_types": {},
        }
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _enter_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        class_name = self._class_stack[-1] if self._class_stack else None
        if self._function_stack:
            # Nested helpers fold their facts into the enclosing function.
            self.generic_visit(node)
            return
        facts = _FunctionFacts(node.name, class_name, node)
        args = node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            facts.local_names.add(arg.arg)
            ann = _annotation_name(arg.annotation)
            if ann:
                facts.param_types[arg.arg] = ann
        self._function_stack.append(facts)
        self.generic_visit(node)
        self._function_stack.pop()
        qual = f"{class_name}.{node.name}" if class_name else node.name
        self.functions[qual] = facts.to_dict()
        if class_name:
            self.classes[class_name]["methods"][node.name] = qual

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    @property
    def _facts(self) -> _FunctionFacts:
        return self._function_stack[-1] if self._function_stack else self.module_facts

    def visit_Global(self, node: ast.Global) -> None:
        self._facts.global_names.update(node.names)

    def visit_Return(self, node: ast.Return) -> None:
        facts = self._facts
        if isinstance(node.value, ast.Name):
            facts.returned_names.add(node.value.id)
        elif isinstance(node.value, ast.Call):
            name = terminal_name(node.value.func)
            if name and name[:1].isupper():
                facts.returns_ctor = name
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        guards = [
            dotted_name(item.context_expr.func)
            or terminal_name(item.context_expr.func)
            if isinstance(item.context_expr, ast.Call)
            else dotted_name(item.context_expr) or terminal_name(item.context_expr)
            for item in node.items
        ]
        self._with_guards.extend(g for g in guards if g)
        for item in node.items:
            self.visit(item.context_expr)
        for stmt in node.body:
            self.visit(stmt)
        for g in guards:
            if g:
                self._with_guards.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_assignment(node.targets, node.value)
        for target in node.targets:
            self._record_mutation(target, node)
            self._record_state_subscript_write(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assignment([node.target], node.value)
        self._record_mutation(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_mutation(node.target, node)
        self._record_state_subscript_write(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_state_subscript_write(target, node, op="del")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        facts = self._facts
        desc = _call_descriptor(node)
        if desc is not None:
            facts.calls.append(desc)
        name = terminal_name(node.func)
        dotted = dotted_name(node.func)
        if name in REFRESH_CALLS:
            facts.refreshes = True
        self._record_allocation(node, name, dotted, facts)
        self._record_spawn(node, name, facts)
        self._record_state_method_write(node, name, facts)
        self.generic_visit(node)

    def visit_List(self, node: ast.List) -> None:
        self._record_display(node, "list display")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._record_display(node, "dict display")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._record_display(node, "set display")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._record_display(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._record_display(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._record_display(node, "dict comprehension")
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # Fact recorders
    # ------------------------------------------------------------------
    def _record_display(self, node: ast.expr, what: str) -> None:
        if self._function_stack:
            self._facts.allocations.append(
                {"line": node.lineno, "col": node.col_offset + 1, "what": what}
            )

    def _record_allocation(
        self, node: ast.Call, name: str, dotted: str, facts: _FunctionFacts
    ) -> None:
        if not self._function_stack:
            return
        root = dotted.split(".", 1)[0] if dotted else ""
        if root in ("np", "numpy") and name in NP_ALLOCATORS:
            facts.allocations.append(
                {"line": node.lineno, "col": node.col_offset + 1,
                 "what": f"{dotted}(...)"}
            )
        elif isinstance(node.func, ast.Name) and name in CONTAINER_CONSTRUCTORS:
            facts.allocations.append(
                {"line": node.lineno, "col": node.col_offset + 1,
                 "what": f"{name}(...)"}
            )

    def _record_spawn(self, node: ast.Call, name: str, facts: _FunctionFacts) -> None:
        if name not in THREAD_SPAWN_CALLS:
            return
        candidates: List[ast.expr] = list(node.args)
        candidates.extend(kw.value for kw in node.keywords if kw.arg == "target")
        for candidate in candidates:
            ref = _ref_descriptor(candidate)
            if ref is not None:
                facts.callable_refs.append({**ref, "line": node.lineno})

    def _record_assignment(self, targets: List[ast.expr], value: ast.expr) -> None:
        facts = self._facts
        simple = [t for t in targets if isinstance(t, ast.Name)]
        for target in simple:
            facts.local_names.add(target.id)
        if not isinstance(value, ast.Call):
            if not self._function_stack and not self._class_stack and simple:
                if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                      ast.ListComp, ast.SetComp)):
                    self.module_state.update(t.id for t in simple)
            return
        ctor = terminal_name(value.func)
        dotted = dotted_name(value.func)
        if not self._function_stack and not self._class_stack and simple:
            # Module level: classify mutable-state and lock bindings.
            if ctor in MUTABLE_STATE_CONSTRUCTORS:
                self.module_state.update(t.id for t in simple)
            elif ctor in ("Lock", "RLock", "Condition", "Semaphore"):
                self.module_locks.update(t.id for t in simple)
            return
        if not self._function_stack:
            return
        for target in simple:
            if ctor and ctor[:1].isupper() and isinstance(
                value.func, (ast.Name, ast.Attribute)
            ):
                facts.local_types[target.id] = ctor
            elif isinstance(value.func, ast.Name):
                facts.local_calls[target.id] = ctor
        # Class-body attribute typing: self.X = Ctor(...) / self.X = param
        if self._class_stack and targets:
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr_types = self.classes[self._class_stack[-1]]["attr_types"]
                    if ctor and ctor[:1].isupper():
                        attr_types.setdefault(target.attr, ctor)

    def _record_mutation(self, target: ast.expr, node: ast.stmt) -> None:
        inner = target
        if isinstance(inner, ast.Subscript):
            inner = inner.value
        if not isinstance(inner, ast.Attribute) or inner.attr not in PROTECTED_ATTRS:
            return
        base = inner.value
        if isinstance(base, ast.Name):
            if base.id == "self":
                # Unlike ABFT001 we *record* self.data stores: project mode
                # can tell construction from escaping mutation via callers.
                base_kind, base_name = "self", "self"
            else:
                facts = self._facts
                base_kind = (
                    "param" if base.id in facts.param_types
                    or base.id in self._param_names()
                    else "local"
                )
                base_name = base.id
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
        ):
            base_kind = "self_attr"
            base_name = dotted_name(base)
        else:
            base_kind = "other"
            base_name = dotted_name(base)
        self._facts.mutations.append(
            {
                "line": node.lineno,
                "col": node.col_offset + 1,
                "target": dotted_name(inner),
                "base": base_name,
                "base_kind": base_kind,
            }
        )

    def _param_names(self) -> Set[str]:
        if not self._function_stack:
            return set()
        args = self._function_stack[-1].node.args
        return {a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]}

    def _record_state_subscript_write(
        self, target: ast.expr, node: ast.stmt, op: str = "store"
    ) -> None:
        if not isinstance(target, ast.Subscript):
            return
        base = target.value
        if not isinstance(base, ast.Name):
            return
        facts = self._facts
        if self._function_stack and base.id in facts.local_names and (
            base.id not in facts.global_names
        ):
            return
        facts.state_writes.append(
            {
                "line": node.lineno,
                "col": node.col_offset + 1,
                "name": base.id,
                "op": op,
                "guards": list(self._with_guards),
            }
        )

    def _record_state_method_write(
        self, node: ast.Call, name: str, facts: _FunctionFacts
    ) -> None:
        if name not in STATE_MUTATOR_METHODS:
            return
        func = node.func
        if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Name):
            return
        base = func.value.id
        if self._function_stack and base in facts.local_names and (
            base not in facts.global_names
        ):
            return
        facts.state_writes.append(
            {
                "line": node.lineno,
                "col": node.col_offset + 1,
                "name": base,
                "op": name,
                "guards": list(self._with_guards),
            }
        )


def extract_summary(module_name: str, tree: ast.Module) -> Summary:
    """Build the JSON-serializable summary of one parsed module."""
    extractor = _SummaryExtractor(module_name)
    extractor.visit(tree)
    module_facts = extractor.module_facts.to_dict()
    return {
        "module": module_name,
        "imports": extractor.imports,
        "module_deps": sorted(extractor.module_deps),
        "classes": extractor.classes,
        "functions": extractor.functions,
        "module_level": {
            "mutable_state": sorted(extractor.module_state),
            "locks": sorted(extractor.module_locks),
            "calls": module_facts["calls"],
            "callable_refs": module_facts["callable_refs"],
        },
    }
