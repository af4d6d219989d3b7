"""The project-wide ABFT rule pack (ABFT010-ABFT012).

These rules consume the linked :class:`~repro.lint.project.graph.ProjectContext`
rather than a single module: each one enforces a cross-module protocol
invariant of the ABFT runtime that per-file rules (ABFT001-007) are
structurally blind to — checksum freshness across call boundaries, lock
discipline on shared module state, and the zero-allocation contract of
the steady-state plan path.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set, Tuple

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
        "ProtectedPlan._detect",
        "ProtectedPlan._detect_fused",
        "ProtectedPlan._detect_shard",
        "SpmvPlan.execute",
        "SpmvPlan.execute_shard",
        "FusedShardBuffers.detect_shard",
        "FusedShardBuffers.compare_range",
    }
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
        "The threads backend drives shard work concurrently; a write to "
        "module-level mutable state from a function running on that path "
        "without a lock is a data race, and a racy detector violates the "
        "assumption (cf. the verification-interval analyses in PAPERS.md) "
        "that silent-error checks are themselves deterministic."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        concurrent = project.reachable(project.spawn_roots())
        spawn_sites = sorted({s["site_module"] for s in project.spawn_targets()})
        for fid, fn in project.iter_functions():
            if fid not in concurrent:
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
                yield project.finding(
                    module, self.rule_id, write["line"], write["col"],
                    f"write to module-level mutable state '{write['name']}' "
                    f"({write['op']}) without holding a lock, in a function "
                    "reachable from the thread backend path; guard it with "
                    "a module lock",
                    evidence_modules=spawn_sites,
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
    ChecksumEscapeRule(),
    SharedStateRaceRule(),
    HotPathAllocationRule(),
)
