"""Cross-module linking: symbol table, call graph, and reachability.

:class:`ProjectContext` takes the per-file summaries produced by
:mod:`repro.lint.project.summary` and gives project rules the linked
view: resolve a call site to the function it names (following imports,
re-exports, ``self`` dispatch, and attribute/local types), walk callers
and callees, compute which functions are spawned onto threads, and run
the checksum-refresh fixpoint.

Resolution is deliberately *bounded*: it tracks only the type evidence
the summaries record (constructor assignments, annotations, return-ctor
inference) and returns nothing rather than guess.  Rules built on top
therefore under-approximate the call graph — they may miss exotic
dispatch, but what they do resolve is trustworthy enough to gate CI on.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.lint.findings import Finding

#: A function's project-wide identity: ``(module name, qualname)`` where
#: qualname is ``"func"`` or ``"Class.method"``.
FuncId = Tuple[str, str]

#: A class's project-wide identity: ``(module name, class name)``.
ClassId = Tuple[str, str]

#: Resolution result: ``(kind, module, name)`` with kind in
#: ``{"module", "class", "func"}``.
Symbol = Tuple[str, str, str]

#: Synthetic function summary used when resolving module-level call sites.
_MODULE_SCOPE: Dict[str, Any] = {
    "class": None,
    "param_types": {},
    "local_types": {},
    "local_calls": {},
}


class ModuleRecord:
    """One analyzed file: its summary plus lazily-loaded source lines.

    Warm (cache-hit) files are never re-parsed; their source is read back
    only if a finding needs a snippet or a suppression check.
    """

    def __init__(
        self,
        name: str,
        path: Path,
        display_path: str,
        summary: Dict[str, Any],
        from_cache: bool = False,
    ) -> None:
        self.name = name
        self.path = path
        self.display_path = display_path
        self.summary = summary
        self.from_cache = from_cache
        self._lines: Optional[List[str]] = None

    def lines(self) -> List[str]:
        """Source lines, read lazily (empty when the file vanished)."""
        if self._lines is None:
            try:
                self._lines = self.path.read_text(encoding="utf-8").splitlines()
            except (OSError, UnicodeDecodeError):
                self._lines = []
        return self._lines

    def snippet(self, line: int) -> str:
        """Stripped source text of a 1-based line (empty when out of range)."""
        lines = self.lines()
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""


class ProjectContext:
    """The linked whole-project view handed to :class:`ProjectRule`\\ s."""

    def __init__(self, records: Dict[str, ModuleRecord]) -> None:
        self.records = records
        self.functions: Dict[FuncId, Dict[str, Any]] = {}
        self.classes: Dict[ClassId, Dict[str, Any]] = {}
        self._class_index: Dict[str, List[ClassId]] = {}
        for name, record in records.items():
            for qual, fn in record.summary["functions"].items():
                self.functions[(name, qual)] = fn
            for cls, info in record.summary["classes"].items():
                self.classes[(name, cls)] = info
                self._class_index.setdefault(cls, []).append((name, cls))
        self._callee_cache: Dict[FuncId, FrozenSet[FuncId]] = {}
        self._callers: Optional[Dict[FuncId, Set[FuncId]]] = None
        self._refreshing: Optional[FrozenSet[FuncId]] = None
        self._spawns: Optional[List[Dict[str, Any]]] = None

    # ------------------------------------------------------------------
    # Symbol resolution
    # ------------------------------------------------------------------
    def resolve_symbol(
        self, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[Symbol]:
        """Resolve an absolute dotted path to a module, class, or function.

        Follows re-exports: ``repro.perf.SpmvPlan`` resolves through
        ``repro/perf/__init__.py``'s import table to the defining module.
        """
        seen = _seen if _seen is not None else set()
        if dotted in seen:
            return None
        seen.add(dotted)
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.records:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", prefix, "")
            if len(rest) == 1:
                name = rest[0]
                if (prefix, name) in self.functions:
                    return ("func", prefix, name)
                if (prefix, name) in self.classes:
                    return ("class", prefix, name)
                target = self.records[prefix].summary["imports"].get(name)
                if target:
                    return self.resolve_symbol(target, seen)
                return None
            if len(rest) == 2:
                cls, method = rest
                if (prefix, cls) in self.classes:
                    fid = self.method_on_class((prefix, cls), method)
                    if fid is not None:
                        return ("func", fid[0], fid[1])
                    return None
                target = self.records[prefix].summary["imports"].get(cls)
                if target:
                    return self.resolve_symbol(f"{target}.{method}", seen)
            return None
        return None

    def lookup_class(self, module: str, name: str) -> Optional[ClassId]:
        """Find the class ``name`` names inside ``module``'s scope.

        Tries the module's own classes, then its import table, then —
        as a last resort — a project-unique class of that name.
        """
        if (module, name) in self.classes:
            return (module, name)
        record = self.records.get(module)
        if record is not None:
            target = record.summary["imports"].get(name)
            if target:
                resolved = self.resolve_symbol(target)
                if resolved is not None and resolved[0] == "class":
                    return (resolved[1], resolved[2])
        candidates = self._class_index.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def method_on_class(self, cid: ClassId, method_name: str) -> Optional[FuncId]:
        """Resolve a method on a class, walking base classes in MRO-ish order."""
        seen: Set[ClassId] = set()
        queue: List[ClassId] = [cid]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            qual = info["methods"].get(method_name)
            if qual is not None:
                return (current[0], qual)
            for base in info["bases"]:
                resolved = self.lookup_class(current[0], base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def attr_type(self, cid: ClassId, attr: str) -> Optional[str]:
        """Recorded type of ``self.<attr>`` on ``cid`` (base classes merged)."""
        seen: Set[ClassId] = set()
        queue: List[ClassId] = [cid]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            tname = info["attr_types"].get(attr)
            if tname:
                return str(tname)
            for base in info["bases"]:
                resolved = self.lookup_class(current[0], base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _var_type(self, module: str, fn: Dict[str, Any], var: str) -> Optional[str]:
        """Class name a local/parameter holds, if the summary recorded one."""
        tname = fn["local_types"].get(var) or fn["param_types"].get(var)
        if tname:
            return str(tname)
        callee_name = fn["local_calls"].get(var)
        if callee_name:
            callee = self.resolve_call(
                module, fn, {"kind": "name", "name": callee_name}
            )
            if callee is not None:
                ctor = self.functions[callee].get("returns_ctor")
                if ctor:
                    return str(ctor)
        return None

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, module: str, fn: Dict[str, Any], desc: Dict[str, Any]
    ) -> Optional[FuncId]:
        """Resolve one recorded call/reference descriptor to a function id."""
        kind = desc["kind"]
        if kind == "name":
            name = desc["name"]
            if (module, name) in self.functions:
                return (module, name)
            if (module, name) in self.classes:
                return self.method_on_class((module, name), "__init__")
            record = self.records.get(module)
            target = record.summary["imports"].get(name) if record else None
            if target:
                resolved = self.resolve_symbol(target)
                if resolved is not None:
                    if resolved[0] == "func":
                        return (resolved[1], resolved[2])
                    if resolved[0] == "class":
                        return self.method_on_class(
                            (resolved[1], resolved[2]), "__init__"
                        )
            return None
        if kind == "self":
            cls = fn.get("class")
            if cls:
                return self.method_on_class((module, cls), desc["method"])
            return None
        if kind == "self_attr":
            cls = fn.get("class")
            if not cls:
                return None
            tname = self.attr_type((module, cls), desc["attr"])
            if not tname:
                return None
            cid = self.lookup_class(module, tname)
            if cid is None:
                return None
            return self.method_on_class(cid, desc["method"])
        if kind == "var":
            tname = self._var_type(module, fn, desc["var"])
            if not tname:
                return None
            cid = self.lookup_class(module, tname)
            if cid is None:
                return None
            return self.method_on_class(cid, desc["method"])
        if kind == "dotted":
            first, _, rest = desc["dotted"].partition(".")
            record = self.records.get(module)
            target = record.summary["imports"].get(first) if record else None
            if target and rest and "()" not in rest and "[]" not in rest:
                resolved = self.resolve_symbol(f"{target}.{rest}")
                if resolved is not None and resolved[0] == "func":
                    return (resolved[1], resolved[2])
            return None
        return None

    def callees(self, fid: FuncId) -> FrozenSet[FuncId]:
        """Resolved direct callees of a function (cached)."""
        if fid not in self._callee_cache:
            module, _ = fid
            fn = self.functions[fid]
            out: Set[FuncId] = set()
            for desc in fn["calls"]:
                resolved = self.resolve_call(module, fn, desc)
                if resolved is not None:
                    out.add(resolved)
            self._callee_cache[fid] = frozenset(out)
        return self._callee_cache[fid]

    def callers(self) -> Dict[FuncId, Set[FuncId]]:
        """Inverted call graph: function -> set of direct callers."""
        if self._callers is None:
            inverted: Dict[FuncId, Set[FuncId]] = {}
            for fid in self.functions:
                for callee in self.callees(fid):
                    inverted.setdefault(callee, set()).add(fid)
            self._callers = inverted
        return self._callers

    def reachable(self, roots: Iterable[FuncId]) -> Set[FuncId]:
        """Every function reachable from ``roots`` via resolved calls."""
        seen: Set[FuncId] = set()
        queue = [fid for fid in roots if fid in self.functions]
        while queue:
            fid = queue.pop()
            if fid in seen:
                continue
            seen.add(fid)
            queue.extend(self.callees(fid))
        return seen

    # ------------------------------------------------------------------
    # Derived facts
    # ------------------------------------------------------------------
    def spawn_targets(self) -> List[Dict[str, Any]]:
        """Functions handed to thread primitives, with spawn sites.

        Each entry: ``{"fid": FuncId, "site_module": str, "site_line": int}``.
        """
        if self._spawns is not None:
            return self._spawns
        spawns: List[Dict[str, Any]] = []
        for name, record in self.records.items():
            scopes: List[Tuple[Dict[str, Any], List[Dict[str, Any]]]] = [
                (fn, fn["callable_refs"])
                for fn in record.summary["functions"].values()
            ]
            scopes.append(
                (_MODULE_SCOPE, record.summary["module_level"]["callable_refs"])
            )
            for fn, refs in scopes:
                for ref in refs:
                    fid = self.resolve_call(name, fn, ref)
                    if fid is not None:
                        spawns.append(
                            {
                                "fid": fid,
                                "site_module": name,
                                "site_line": ref.get("line", 0),
                            }
                        )
        self._spawns = spawns
        return spawns

    def spawn_roots(self) -> Set[FuncId]:
        """Spawn-target function ids."""
        return {s["fid"] for s in self.spawn_targets()}

    def refreshing_functions(self) -> FrozenSet[FuncId]:
        """Fixpoint of functions that refresh checksums (directly or via calls)."""
        if self._refreshing is not None:
            return self._refreshing
        refreshing = {
            fid for fid, fn in self.functions.items() if fn["refreshes"]
        }
        changed = True
        while changed:
            changed = False
            for fid in self.functions:
                if fid in refreshing:
                    continue
                if any(callee in refreshing for callee in self.callees(fid)):
                    refreshing.add(fid)
                    changed = True
        self._refreshing = frozenset(refreshing)
        return self._refreshing

    # ------------------------------------------------------------------
    # Finding construction
    # ------------------------------------------------------------------
    def iter_functions(self) -> Iterator[Tuple[FuncId, Dict[str, Any]]]:
        """Every function in the project, as ``(fid, summary)`` pairs."""
        yield from self.functions.items()

    def display_path(self, module: str) -> str:
        """Report path of a module (falls back to the module name)."""
        record = self.records.get(module)
        return record.display_path if record is not None else module

    def finding(
        self,
        module: str,
        rule: str,
        line: int,
        column: int,
        message: str,
        evidence_modules: Iterable[str] = (),
    ) -> Finding:
        """Build a project finding anchored in ``module``.

        ``evidence_modules`` name the other modules the finding's logic
        depends on; their display paths become :attr:`Finding.related`
        and enter the fingerprint.
        """
        record = self.records[module]
        related = tuple(
            sorted(
                {
                    self.display_path(m)
                    for m in evidence_modules
                    if m != module and m in self.records
                }
            )
        )
        return Finding(
            path=record.display_path,
            line=line,
            column=column,
            rule=rule,
            message=message,
            snippet=record.snippet(line),
            related=related,
        )
