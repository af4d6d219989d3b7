"""The project-wide ABFT rule pack (ABFT008-ABFT012).

These rules consume the linked :class:`~repro.lint.project.graph.ProjectContext`
rather than a single module: each one enforces a cross-module protocol
invariant of the parallel ABFT runtime that per-file rules (ABFT001-007)
are structurally blind to — arena lifecycle discipline across the
process-worker boundary, registry immutability after fork, checksum
freshness across call boundaries, lock discipline on shared module
state, and the zero-allocation contract of the steady-state plan path.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.graph import FuncId, ProjectContext
from repro.lint.rules.abft import REFRESH_CALLS
from repro.lint.rules.base import ProjectRule

#: Functions allowed to write protected storage without a refresh: the
#: refresh implementations themselves plus object construction.
_REFRESH_SCOPES = REFRESH_CALLS | {"__init__", "__post_init__"}

#: Qualnames rooting the steady-state (detect) hot path.  The
#: tracemalloc-pinned zero-allocation contract from the planned-SpMV PR
#: covers exactly the functions reachable from these.
HOT_PATH_ROOTS = frozenset(
    {
        "ProtectedPlan.execute",
        "ProtectedPlan._detect_shard",
        "SpmvPlan.execute",
        "SpmvPlan.execute_shard",
        "FusedShardBuffers.detect_shard",
        "FusedShardBuffers.compare_range",
    }
)


def _arena_evidence(project: ProjectContext, module: str) -> List[str]:
    """Module defining the ``Arena`` class, as finding evidence."""
    cid = project.lookup_class(module, "Arena")
    return [cid[0]] if cid is not None else []


class ArenaProtocolRule(ProjectRule):
    """ABFT008: arena buffers written outside the worker protocol or after close."""

    rule_id = "ABFT008"
    title = "shared-memory arena buffer written outside the worker protocol"
    rationale = (
        "The processes backend publishes shard results through shm Arena "
        "views under a ring-generation protocol; a write from outside a "
        "worker entry point (or the owning backend) bypasses publication "
        "ordering, and any use after close() touches unmapped memory — "
        "both corrupt the t1/t2 comparison the detector trusts."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        workers = project.reachable(project.spawn_roots("process"))
        for fid, fn in project.iter_functions():
            module, _ = fid
            events: List[Dict[str, Any]] = fn["arena_events"]
            if not events:
                continue
            closes: Dict[str, int] = {}
            created: Set[str] = set()
            for event in events:
                if event["op"] in ("create", "attach") and event["var"]:
                    created.add(event["var"])
                if event["op"] == "close":
                    closes.setdefault(event["var"], event["line"])
            for event in events:
                var = event["var"]
                closed_at = closes.get(var)
                if (
                    event["op"] in ("view_write", "array")
                    and closed_at is not None
                    and event["line"] > closed_at
                ):
                    yield project.finding(
                        module, self.rule_id, event["line"], event["col"],
                        f"arena '{var}' used after close() on line {closed_at}; "
                        "views into a closed arena are unmapped shared memory",
                        evidence_modules=_arena_evidence(project, module),
                    )
                    continue
                if event["op"] != "view_write":
                    continue
                if var in created or fid in workers:
                    continue
                if self._owns_arena(project, fid):
                    continue
                yield project.finding(
                    module, self.rule_id, event["line"], event["col"],
                    f"write to a view of arena '{var}' outside the worker "
                    "protocol: the function neither owns the arena nor is "
                    "reachable from a process worker entry point, so the "
                    "write bypasses ring-generation publication",
                    evidence_modules=_arena_evidence(project, module),
                )

    @staticmethod
    def _owns_arena(project: ProjectContext, fid: FuncId) -> bool:
        cls = project.functions[fid].get("class")
        if not cls:
            return False
        info = project.classes.get((fid[0], cls))
        return info is not None and "Arena" in info["attr_types"].values()


class RegistryMutationRule(ProjectRule):
    """ABFT009: registry mutation reachable from worker entry points."""

    rule_id = "ABFT009"
    title = "registry mutation reachable from a worker/fork entry point"
    rationale = (
        "Kernel/scheme/backend/exporter registries are wired once in the "
        "parent; a register/unregister call that runs inside a spawned "
        "worker (or at import time of the worker's module, which every "
        "spawned process re-executes) forks the registry state per "
        "process, so detect and correct silently run different code."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        spawns = [s for s in project.spawn_targets() if s["spawn"] == "process"]
        workers = project.reachable(s["fid"] for s in spawns)
        worker_modules = {s["fid"][0] for s in spawns} | {
            s["site_module"] for s in spawns
        }
        site_modules = sorted({s["site_module"] for s in spawns})
        for fid in sorted(workers):
            fn = project.functions[fid]
            for call in fn["registry_calls"]:
                yield project.finding(
                    fid[0], self.rule_id, call["line"], call["col"],
                    f"'{call['name']}' mutates a runtime registry and is "
                    "reachable from a process worker entry point; registries "
                    "must be frozen before workers spawn",
                    evidence_modules=site_modules,
                )
        for module in sorted(worker_modules):
            record = project.records.get(module)
            if record is None:
                continue
            for call in record.summary["module_level"]["registry_calls"]:
                yield project.finding(
                    module, self.rule_id, call["line"], call["col"],
                    f"import-time '{call['name']}' in a module that defines "
                    "or spawns process workers: every spawned process "
                    "re-imports this module and re-mutates the registry",
                    evidence_modules=site_modules,
                )


class ChecksumEscapeRule(ProjectRule):
    """ABFT010: self-mutation of protected storage escaping without refresh."""

    rule_id = "ABFT010"
    title = "protected-storage mutation escapes callers without checksum refresh"
    rationale = (
        "ABFT001 deliberately skips self.data stores — locally they are "
        "indistinguishable from a constructor laying out storage.  "
        "Project-wide they are not: a method that mutates its own "
        "data/indices/indptr and returns to a caller that never refreshes "
        "leaves checksums encoding the pre-mutation matrix, so t1 = t2 "
        "holds for values the operand no longer contains."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        refreshing = project.refreshing_functions()
        callers = project.callers()
        for fid, fn in project.iter_functions():
            if fn["name"] in _REFRESH_SCOPES:
                continue
            mutations = [
                m
                for m in fn["mutations"]
                if m["escapes"] and m["base_kind"] == "self"
            ]
            if not mutations or fid in refreshing:
                continue
            bad_callers = sorted(
                c for c in callers.get(fid, set()) if c not in refreshing
            )
            if not bad_callers:
                continue
            caller_names = ", ".join(f"{m}:{q}" for m, q in bad_callers[:3])
            for mutation in mutations:
                yield project.finding(
                    fid[0], self.rule_id, mutation["line"], mutation["col"],
                    f"'{fid[1]}' mutates protected storage "
                    f"'{mutation['target']}' and neither it nor its "
                    f"caller(s) ({caller_names}) refresh checksums on any "
                    "path; stale checksums make later detection meaningless",
                    evidence_modules=[c[0] for c in bad_callers],
                )


class SharedStateRaceRule(ProjectRule):
    """ABFT011: unsynchronized writes to shared state on concurrent paths."""

    rule_id = "ABFT011"
    title = "unsynchronized write to module state on a concurrent backend path"
    rationale = (
        "The threads and processes backends both drive shard work "
        "concurrently; a write to module-level mutable state from a "
        "function running on those paths without a lock is a data race, "
        "and a racy detector violates the assumption (cf. the "
        "verification-interval analyses in PAPERS.md) that silent-error "
        "checks are themselves deterministic."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        thread_side = project.reachable(project.spawn_roots("thread"))
        process_side = project.reachable(project.spawn_roots("process"))
        spawn_sites = {
            kind: sorted(
                {
                    s["site_module"]
                    for s in project.spawn_targets()
                    if s["spawn"] == kind
                }
            )
            for kind in ("thread", "process")
        }
        for fid, fn in project.iter_functions():
            on_thread = fid in thread_side
            on_process = fid in process_side
            if not (on_thread or on_process):
                continue
            module = fid[0]
            state = set(
                project.records[module].summary["module_level"]["mutable_state"]
            )
            for write in fn["state_writes"]:
                if write["name"] not in state:
                    continue
                if any("lock" in guard.lower() for guard in write["guards"]):
                    continue
                paths = [
                    kind
                    for kind, hit in (
                        ("thread", on_thread), ("process", on_process)
                    )
                    if hit
                ]
                evidence = sorted(
                    {m for kind in paths for m in spawn_sites[kind]}
                )
                yield project.finding(
                    module, self.rule_id, write["line"], write["col"],
                    f"write to module-level mutable state '{write['name']}' "
                    f"({write['op']}) without holding a lock, in a function "
                    f"reachable from the {' and '.join(paths)} backend "
                    "path(s); guard it with a module lock",
                    evidence_modules=evidence,
                )


class HotPathAllocationRule(ProjectRule):
    """ABFT012: allocation inside the steady-state plan hot path."""

    rule_id = "ABFT012"
    title = "allocation in a steady-state plan hot path"
    rationale = (
        "The planned-SpMV design pins the detect path to zero "
        "steady-state allocations (tracemalloc-verified at runtime); a "
        "new np.* array or container build in any function reachable "
        "from plan execution re-introduces allocator jitter and defeats "
        "the amortization argument the plan API exists for."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        roots = [fid for fid in project.functions if fid[1] in HOT_PATH_ROOTS]
        per_root: Dict[FuncId, Set[FuncId]] = {
            root: self._prune_reachable(project, root) for root in roots
        }
        hot: Set[FuncId] = set()
        for reached in per_root.values():
            hot |= reached
        for fid in sorted(hot):
            fn = project.functions[fid]
            for alloc in fn["allocations"]:
                evidence = sorted(
                    {
                        root[0]
                        for root, reached in per_root.items()
                        if fid in reached
                    }
                )
                yield project.finding(
                    fid[0], self.rule_id, alloc["line"], alloc["col"],
                    f"allocation ({alloc['what']}) in '{fid[1]}', reachable "
                    "from the steady-state plan hot path; preallocate in "
                    "the plan and reuse buffers (zero-allocation contract)",
                    evidence_modules=evidence,
                )

    @staticmethod
    def _prune_reachable(project: ProjectContext, root: FuncId) -> Set[FuncId]:
        """Hot-path closure of one root.

        Traversal prunes correction functions (``correct_blocks`` and
        friends allocate by design — correction is the rare path) and
        telemetry modules (spans are diagnostic no-ops unless enabled).
        """
        seen: Set[FuncId] = set()
        queue = [root]
        while queue:
            fid = queue.pop()
            if fid in seen:
                continue
            if "correct" in fid[1].lower() or "telemetry" in fid[0]:
                continue
            seen.add(fid)
            queue.extend(project.callees(fid))
        return seen


#: The project rule pack, in id order (registered by :mod:`repro.lint`).
PROJECT_RULES: Tuple[ProjectRule, ...] = (
    ArenaProtocolRule(),
    RegistryMutationRule(),
    ChecksumEscapeRule(),
    SharedStateRaceRule(),
    HotPathAllocationRule(),
)
