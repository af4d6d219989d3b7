"""The built-in ABFT rule pack (ABFT001-ABFT007, ABFT013, ABFT014).

Each rule statically enforces one protocol invariant of the block-ABFT
scheme (Schoell et al., DSN 2016) that the runtime cannot check for
itself; ``docs/static_analysis.md`` gives the paper-grounded rationale for
every rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import (
    LintRule,
    ModuleContext,
    call_names,
    contains_raise,
    dotted_name,
    terminal_name,
)

#: Attributes whose mutation invalidates a protected matrix's checksums.
PROTECTED_ATTRS = frozenset({"data", "indices", "indptr"})

#: Calls that rebuild or refresh checksums after a mutation (ABFT001).
REFRESH_CALLS = frozenset(
    {"_refresh_operand_checksums", "build", "encode", "with_data", "refresh"}
)

#: Order-sensitive floating-point reductions (ABFT002).
REDUCTION_CALLS = frozenset(
    {"np.sum", "np.nansum", "np.add.reduceat", "np.cumsum", "np.dot",
     "np.matmul", "np.einsum", "math.fsum"}
)

#: Functions in ``kernels/base.py`` sanctioned to own the reduction order.
SANCTIONED_REDUCERS = frozenset({"segment_sums", "flat_segment_indices"})

#: Identifier fragments marking float quantities that must never be
#: compared exactly (ABFT003).
FLOAT_SENSITIVE_NAME = re.compile(
    r"(syndrome|threshold|bound|resid|norm|beta|tol|eps)", re.IGNORECASE
)

#: Narrow dtypes a silent ``astype`` must not downcast to (ABFT004).
NARROW_DTYPES = frozenset({"float32", "float16", "half", "single"})

#: Spellings of the accumulation dtype a hot path must not hardcode
#: (ABFT014) — the dtype policy owns them.
FLOAT64_LITERALS = frozenset({"np.float64", "numpy.float64", "float64"})

#: Parameter names that select a configuration variant and therefore need
#: a validation-error path (ABFT006).
SELECTOR_PARAMS = frozenset(
    {"kind", "weight_kind", "bound_kind", "mode", "scheme", "strategy", "method",
     "detector", "sparse_format"}
)

#: Calls accepted as delegated validation of a selector (ABFT006).  The
#: ``registry.*`` entries are the methods of a :mod:`repro.registry`
#: registry or selector that raise on a bad name (``pick`` validates
#: nothing).
VALIDATOR_CALLS = frozenset(
    {"make_weights", "make_bound", "validate_blocks", "AbftConfig",
     "make_scheme", "resolve_scheme", "canonical_scheme_name",
     "canonical_format_name", "resolve_format_name", "select_format",
     "build_format", "registry.available", "registry.canonical", "registry.check",
     "registry.get", "registry.resolve"}
)

#: Protection-scheme classes that must be built through the
#: :mod:`repro.schemes` registry outside the registry itself (ABFT007).
SCHEME_CLASSES = frozenset(
    {"DenseCheckSpMV", "CheckpointSpMV", "CompleteRecomputationSpMV",
     "PartialRecomputationSpMV", "DwcSpMV", "TmrSpMV"}
)


def _enclosing_function(
    stack: List[ast.AST],
) -> Optional[ast.AST]:
    for node in reversed(stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


class ChecksumRefreshRule(LintRule):
    """ABFT001: protected-matrix internals mutated without a checksum refresh."""

    rule_id = "ABFT001"
    title = "mutation of matrix internals without checksum refresh"
    rationale = (
        "DSN'16 Section III-B derives the invariant t1 = t2 from checksums "
        "encoded over A's current values; mutating data/indices/indptr "
        "without rebuilding C makes every later detection meaningless."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        rule = self
        findings: List[Finding] = []
        refresh_cache: dict[int, bool] = {}

        def refreshes(function: Optional[ast.AST]) -> bool:
            """Does the mutation's enclosing function also rebuild checksums?"""
            if function is None:
                return False  # module-level mutations have no refresh scope
            cached = refresh_cache.get(id(function))
            if cached is None:
                assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                cached = bool(call_names(function.body) & REFRESH_CALLS)
                refresh_cache[id(function)] = cached
            return cached

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.stack: List[ast.AST] = []

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                self.stack.append(node)
                self.generic_visit(node)
                self.stack.pop()

            def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
                self.stack.append(node)
                self.generic_visit(node)
                self.stack.pop()

            def _report(self, node: ast.AST, target: ast.expr) -> None:
                if refreshes(self.stack[-1] if self.stack else None):
                    return
                findings.append(
                    module.finding(
                        rule.rule_id,
                        node,
                        f"assignment to "
                        f"'{dotted_name(target) or terminal_name(target)}' "
                        "mutates protected matrix internals without a checksum "
                        "refresh (call ChecksumMatrix.build / "
                        "_refresh_operand_checksums, or use with_data)",
                    )
                )

            def visit_Assign(self, node: ast.Assign) -> None:
                for t in node.targets:
                    attr = rule._protected_attribute(t)
                    if attr is not None:
                        self._report(node, attr)
                        break
                self.generic_visit(node)

            def visit_AugAssign(self, node: ast.AugAssign) -> None:
                attr = rule._protected_attribute(node.target)
                if attr is not None:
                    self._report(node, attr)
                self.generic_visit(node)

        Visitor().visit(module.tree)
        yield from findings

    @staticmethod
    def _protected_attribute(target: ast.expr) -> Optional[ast.expr]:
        """Return the mutated ``X.data``-style attribute, if any.

        Matches direct stores (``m.data = ...``), element stores
        (``m.data[i] = ...``) and slices; plain ``self.data = ...`` in
        constructors is the object laying out its own storage, not a
        mutation of someone else's protected operand, and is skipped.
        """
        node = target
        if isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute) or node.attr not in PROTECTED_ATTRS:
            return None
        base = node.value
        if isinstance(base, ast.Name) and base.id == "self":
            return None
        return node


class ReductionOrderRule(LintRule):
    """ABFT002: order-sensitive reductions in kernels outside sanctioned helpers."""

    rule_id = "ABFT002"
    title = "order-sensitive float reduction outside sanctioned kernel helpers"
    rationale = (
        "PR 1's differential contract requires bit-identical per-row "
        "reduction order across kernel sets; a stray np.sum/reduceat in a "
        "kernel changes summation order and silently breaks bit-level "
        "equivalence between implementations."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.display_path.replace("\\", "/").split("/")
        if "kernels" not in parts:
            return
        sanctioned_spans = self._sanctioned_spans(module)
        for node in ast.walk(module.tree):
            name = ""
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name not in REDUCTION_CALLS and terminal_name(node.func) != "sum":
                    continue
                if name not in REDUCTION_CALLS:
                    name = f"{dotted_name(node.func) or terminal_name(node.func)}"
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                name = "@ (matrix product)"
            else:
                continue
            if self._within(sanctioned_spans, getattr(node, "lineno", 0)):
                continue
            yield module.finding(
                self.rule_id,
                node,
                f"order-sensitive reduction '{name}' in a kernel module; use "
                "the sanctioned helpers (segment_sums/flat_segment_indices) "
                "or suppress with the reduction-order contract as reason",
            )

    @staticmethod
    def _sanctioned_spans(module: ModuleContext) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for function, _stack in module.functions():
            assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            if function.name in SANCTIONED_REDUCERS:
                end = getattr(function, "end_lineno", function.lineno)
                spans.append((function.lineno, end or function.lineno))
        return spans

    @staticmethod
    def _within(spans: List[Tuple[int, int]], line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in spans)


class ExactFloatCompareRule(LintRule):
    """ABFT003: exact float equality on syndromes, bounds, or residuals."""

    rule_id = "ABFT003"
    title = "exact float equality on syndrome/bound/residual quantities"
    rationale = (
        "DSN'16 Section III-C: checksum invariants over floats never hold "
        "exactly; detection must compare |t1-t2| against the analytical "
        "bound.  == on such quantities either never fires (silent coverage "
        "loss, cf. V-ABFT) or fires on rounding noise."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._exempt(left) or self._exempt(right):
                    continue
                if self._float_literal(left) or self._float_literal(right):
                    reason = "compares against a float literal"
                elif self._sensitive(left) or self._sensitive(right):
                    reason = "names a rounding-sensitive quantity"
                else:
                    continue
                yield module.finding(
                    self.rule_id,
                    node,
                    f"exact float comparison ({reason}); compare against the "
                    "rounding-error bound (or np.isclose) instead of ==/!=",
                )
                break

    @staticmethod
    def _float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(node.value, float)

    @staticmethod
    def _sensitive(node: ast.expr) -> bool:
        name = terminal_name(node)
        return bool(name and FLOAT_SENSITIVE_NAME.search(name))

    @staticmethod
    def _exempt(node: ast.expr) -> bool:
        """Comparisons against None/bools/strings are not float equality."""
        return isinstance(node, ast.Constant) and (
            node.value is None or isinstance(node.value, (bool, str))
        )


class DtypeDowncastRule(LintRule):
    """ABFT004: silent float32/float16 downcasts."""

    rule_id = "ABFT004"
    title = "silent dtype downcast below float64"
    rationale = (
        "The bounds assume the unit roundoff of the *declared* storage "
        "dtype (Section III-C derives eps_M = 2^-53 for float64); a "
        "downcast outside the dtype policy inflates rounding error past "
        "the modeled epsilon, so real errors hide inside the threshold.  "
        "Narrow storage is supported — but only routed through "
        "repro.core.dtypes (DtypePolicy / coerce_array), which keeps the "
        "epsilon model and the telemetry record in sync with the data."
    )

    #: The dtype-policy module — the one sanctioned home of narrow-dtype
    #: construction (builtin policies, quantizers, coerce_array).
    POLICY_MODULE = ("core", "dtypes.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = tuple(module.display_path.replace("\\", "/").split("/"))
        if parts[-2:] == self.POLICY_MODULE:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) == "astype" and node.args:
                dtype = self._narrow_dtype(node.args[0])
                if dtype:
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"astype({dtype}) silently downcasts below float64; "
                        "route narrow storage through the dtype policy "
                        "(repro.core.dtypes coerce_array / DtypePolicy) so "
                        "the epsilon model follows, or suppress with an "
                        "explicit opt-in reason",
                    )
                    continue
            dotted = dotted_name(node.func)
            if dotted in ("np.float32", "np.float16", "numpy.float32", "numpy.float16"):
                yield module.finding(
                    self.rule_id,
                    node,
                    f"{dotted}(...) constructs a sub-float64 value on the "
                    "checksum path; use the dtype policy or opt in "
                    "explicitly",
                )
                continue
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype = self._narrow_dtype(keyword.value)
                    if dtype:
                        yield module.finding(
                            self.rule_id,
                            node,
                            f"dtype={dtype} silently downcasts below float64",
                        )

    @staticmethod
    def _narrow_dtype(node: ast.expr) -> str:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value if node.value in NARROW_DTYPES else ""
        name = terminal_name(node)
        return name if name in NARROW_DTYPES else ""


class Float64LiteralRule(LintRule):
    """ABFT014: raw np.float64 coercions in core/kernels hot paths."""

    rule_id = "ABFT014"
    title = "hardcoded float64 coercion in a dtype-generic hot path"
    rationale = (
        "Since the dtype-generic refactor the core and kernel hot paths "
        "carry the matrix storage dtype and accumulate in "
        "ACCUMULATION_DTYPE; a raw np.float64 in a function body silently "
        "widens float32/bfloat16 pipelines back to double — hiding the "
        "precision the experiment was supposed to measure — and pins the "
        "accumulation side in scattered literals instead of the one "
        "policy-owned constant."
    )

    #: The dtype-policy module defines the float64 policy itself.
    POLICY_MODULE = ("core", "dtypes.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = tuple(module.display_path.replace("\\", "/").split("/"))
        if "core" not in parts and "kernels" not in parts:
            return
        if parts[-2:] == self.POLICY_MODULE:
            return
        for function, _stack in module.functions():
            assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                label = self._float64_coercion(node)
                if label:
                    yield module.finding(
                        self.rule_id,
                        node,
                        f"{label} hardcodes float64 in a hot-path function; "
                        "use ACCUMULATION_DTYPE (kernels/base.py) for "
                        "checksum accumulators, the matrix storage dtype "
                        "for data buffers, or the resolved DtypePolicy — "
                        "module-level constants are the place for raw "
                        "float64 literals",
                    )

    @staticmethod
    def _float64_coercion(node: ast.Call) -> str:
        """Return a display label when ``node`` coerces via a raw float64
        literal (``astype(np.float64)``, ``dtype=np.float64``,
        ``np.float64(...)`` and their string spellings)."""

        def is_float64(expr: ast.expr) -> str:
            if isinstance(expr, ast.Constant) and expr.value == "float64":
                return '"float64"'
            name = dotted_name(expr) or terminal_name(expr)
            return name if name in FLOAT64_LITERALS else ""

        if terminal_name(node.func) == "astype" and node.args:
            spelled = is_float64(node.args[0])
            if spelled:
                return f"astype({spelled})"
        dotted = dotted_name(node.func)
        if dotted in ("np.float64", "numpy.float64"):
            return f"{dotted}(...)"
        for keyword in node.keywords:
            if keyword.arg == "dtype":
                spelled = is_float64(keyword.value)
                if spelled:
                    return f"dtype={spelled}"
        return ""


class BroadExceptRule(LintRule):
    """ABFT005: broad except handlers that swallow fault-injection errors."""

    rule_id = "ABFT005"
    title = "broad except swallows fault-injection failures"
    rationale = (
        "Fault campaigns (cf. Fasi et al. on PCG under faults) rely on "
        "InjectionError and friends propagating; a broad except that does "
        "not re-raise turns an injection bug into a silently-clean trial "
        "and corrupts every coverage statistic computed from it."
    )

    #: Exception names considered catch-alls.
    BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if contains_raise(node.body):
                continue  # cleanup-and-reraise is the sanctioned pattern
            label = "bare except" if node.type is None else (
                f"except {dotted_name(node.type) or 'Exception'}"
            )
            yield module.finding(
                self.rule_id,
                node,
                f"{label} swallows errors without re-raising; catch the "
                "specific ReproError subclass or re-raise after cleanup",
            )

    def _is_broad(self, type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(element) for element in type_node.elts)
        return terminal_name(type_node) in self.BROAD


class MissingValidationRule(LintRule):
    """ABFT006: public selector-taking APIs without a validation-error path."""

    rule_id = "ABFT006"
    title = "public API selector parameter without validation-error path"
    rationale = (
        "Every configuration fork in the scheme (bound kind, weight kind, "
        "storage format) changes what the detector guarantees; a selector that "
        "silently ignores unknown values runs the wrong protection without "
        "telling anyone — the repo-wide contract is ConfigurationError."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for function, stack in module.functions():
            assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            if function.name.startswith("_"):
                continue
            if _enclosing_function(stack) is not None:
                continue  # nested helpers are not public API
            selectors = self._selector_params(function)
            if not selectors:
                continue
            if contains_raise(function.body):
                continue
            if call_names(function.body) & VALIDATOR_CALLS:
                continue
            names = ", ".join(sorted(selectors))
            yield module.finding(
                self.rule_id,
                function,
                f"public function '{function.name}' takes selector "
                f"parameter(s) {names} but has no validation-error path "
                "(raise ConfigurationError on unknown values or delegate "
                "to a validating helper)",
            )

    @staticmethod
    def _selector_params(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> List[str]:
        selectors: List[str] = []
        args = function.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.arg not in SELECTOR_PARAMS:
                continue
            annotation = arg.annotation
            if annotation is not None and terminal_name(annotation) not in ("str", ""):
                continue  # non-string selectors are validated by type
            selectors.append(arg.arg)
        return selectors


class SchemeConstructionRule(LintRule):
    """ABFT007: scheme classes constructed outside the scheme registry."""

    rule_id = "ABFT007"
    title = "direct construction of a protection-scheme class outside repro.schemes"
    rationale = (
        "The repro.schemes registry is the one place that wires kernels, "
        "telemetry, and AbftConfig into a protection scheme; a direct "
        "constructor call bypasses alias resolution, the REPRO_SCHEME "
        "override, and kernel/telemetry injection, so such code silently "
        "diverges from registry-selected runs of the same experiment."
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        parts = module.display_path.replace("\\", "/").split("/")
        if "schemes" in parts or "tests" in parts:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            if name not in SCHEME_CLASSES:
                continue
            yield module.finding(
                self.rule_id,
                node,
                f"direct construction of scheme class '{name}'; resolve it "
                "through the repro.schemes registry (make_scheme / "
                "resolve_scheme) so aliases, REPRO_SCHEME, and "
                "kernel/telemetry injection apply",
            )


class TelemetryGuardRule(LintRule):
    """ABFT013: telemetry writes on hot paths outside the enabled guard."""

    rule_id = "ABFT013"
    title = "telemetry write outside an `if telemetry.enabled` guard"
    rationale = (
        "The observability contract (bench_obs_overhead.py) promises the "
        "disabled path costs one attribute read; an unguarded "
        "count/observe/gauge still builds the event dict, reads the clock "
        "and takes the instrument lock even when telemetry is off, so "
        "every unguarded write erodes the <= 3% off-mode bound."
    )

    #: Telemetry facade methods that build events (span() returns a
    #: reusable null object when disabled, so it needs no guard).
    WRITE_METHODS = frozenset({"count", "gauge", "observe", "observe_many"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        yield from self._scan_suite(module, module.tree.body, guarded=False)

    # -- traversal ---------------------------------------------------------
    def _scan_suite(
        self, module: ModuleContext, body: List[ast.stmt], guarded: bool
    ) -> Iterator[Finding]:
        guarded_rest = guarded
        for stmt in body:
            if isinstance(stmt, ast.If) and _mentions_enabled(stmt.test):
                # Both branches of an enabled-test are considered guarded
                # (the else branch of `if not tel.enabled: return` style
                # tests is the enabled path).
                yield from self._scan_suite(module, stmt.body, guarded=True)
                yield from self._scan_suite(module, stmt.orelse, guarded=True)
                if any(
                    isinstance(s, (ast.Return, ast.Raise, ast.Continue, ast.Break))
                    for s in stmt.body
                ):
                    guarded_rest = True  # early-return guard covers the rest
                continue
            if not guarded_rest:
                for call in self._header_calls(stmt):
                    method = self._unguarded_write(call)
                    if method:
                        yield module.finding(
                            self.rule_id,
                            call,
                            f"telemetry write '{method}' outside an "
                            "`if telemetry.enabled:` guard; the disabled hot "
                            "path must cost one attribute read — guard the "
                            "write or suppress with a reason",
                        )
            yield from self._scan_children(module, stmt, guarded_rest)

    def _scan_children(
        self, module: ModuleContext, stmt: ast.stmt, guarded: bool
    ) -> Iterator[Finding]:
        # A nested function does not run where it is defined, so it never
        # inherits the enclosing guard.
        nested_scope = isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        for field in ("body", "orelse", "finalbody"):
            children = getattr(stmt, field, None)
            if children and isinstance(children[0], ast.stmt):
                yield from self._scan_suite(
                    module, children, guarded=False if nested_scope else guarded
                )
        for handler in getattr(stmt, "handlers", ()):  # try/except
            yield from self._scan_suite(module, handler.body, guarded)

    def _header_calls(self, stmt: ast.stmt) -> List[ast.Call]:
        """Calls owned by the statement itself, not its nested suites."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return []
        if isinstance(stmt, (ast.If, ast.While)):
            exprs: List[ast.expr] = [stmt.test]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            exprs = [stmt.iter]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            exprs = [item.context_expr for item in stmt.items]
        elif isinstance(stmt, ast.Try):
            return []
        else:
            exprs = [stmt]  # leaf statement: walk it whole
        calls: List[ast.Call] = []
        for expr in exprs:
            calls.extend(
                node for node in ast.walk(expr) if isinstance(node, ast.Call)
            )
        return calls

    def _unguarded_write(self, call: ast.Call) -> str:
        if not isinstance(call.func, ast.Attribute):
            return ""
        method = call.func.attr
        if method not in self.WRITE_METHODS:
            return ""
        receiver = dotted_name(call.func.value) or terminal_name(call.func.value)
        if not receiver:
            return ""
        last = receiver.split(".")[-1]
        if last == "tel" or last.endswith("telemetry"):
            return f"{receiver}.{method}"
        return ""


def _mentions_enabled(test: ast.expr) -> bool:
    """Does a test expression read some ``.enabled`` attribute?"""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        for node in ast.walk(test)
    )


#: The rule pack, in id order (the table of :mod:`repro.lint.registry`).
ABFT_RULES: Tuple[LintRule, ...] = (
    ChecksumRefreshRule(),
    ReductionOrderRule(),
    ExactFloatCompareRule(),
    DtypeDowncastRule(),
    BroadExceptRule(),
    MissingValidationRule(),
    SchemeConstructionRule(),
    TelemetryGuardRule(),
    Float64LiteralRule(),
)
