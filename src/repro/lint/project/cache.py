"""Content-hash incremental cache for project summaries.

The cache maps each file's display path to ``(sha256, module name,
summary)``.  A warm run reuses a cached summary — skipping the parse and
extraction — only when the file's content hash is unchanged **and** the
module is not a transitive reverse-import dependent of any changed file.
Dependents are re-extracted even though extraction is per-file pure; the
conservative policy keeps the cache safe if extraction ever grows
context-sensitive, and it is the contract CI's warm-run assertion pins.

The cache file (``.reprolint-cache.json``) is a build artifact, never
committed; a version bump or any decoding problem silently invalidates
it — a stale or corrupt cache must cost a re-analysis, not a crash.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple

#: Bump when the summary shape changes; old caches are discarded wholesale.
CACHE_VERSION = 4

#: Default cache filename, created next to the analysis root.
CACHE_FILENAME = ".reprolint-cache.json"


def file_digest(raw: bytes) -> str:
    """Content hash of one file's raw bytes."""
    return hashlib.sha256(raw).hexdigest()


class SummaryCache:
    """Load/store per-file summaries keyed by display path + content hash."""

    def __init__(self, entries: Optional[Dict[str, Dict[str, Any]]] = None) -> None:
        self._entries: Dict[str, Dict[str, Any]] = entries or {}

    @classmethod
    def load(cls, path: Optional[Path]) -> "SummaryCache":
        """Read a cache file; any problem yields an empty (cold) cache."""
        if path is None or not path.is_file():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return cls()
        if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
            return cls()
        files = payload.get("files")
        if not isinstance(files, dict):
            return cls()
        entries: Dict[str, Dict[str, Any]] = {}
        for display, entry in files.items():
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("sha256"), str)
                and isinstance(entry.get("module"), str)
                and isinstance(entry.get("summary"), dict)
            ):
                entries[display] = entry
        return cls(entries)

    def lookup(self, display_path: str, digest: str) -> Optional[Dict[str, Any]]:
        """Cached ``{"module", "summary"}`` when the content hash matches."""
        entry = self._entries.get(display_path)
        if entry is not None and entry["sha256"] == digest:
            return entry
        return None

    def store(
        self, display_path: str, digest: str, module: str, summary: Dict[str, Any]
    ) -> None:
        """Record one file's summary under its current content hash."""
        self._entries[display_path] = {
            "sha256": digest,
            "module": module,
            "summary": summary,
        }

    def prune(self, keep: Iterable[str]) -> None:
        """Drop entries for files no longer present in the tree."""
        alive = set(keep)
        for display in list(self._entries):
            if display not in alive:
                del self._entries[display]

    def save(self, path: Path) -> None:
        """Write the cache; IO failures are swallowed (cache is best-effort)."""
        payload = {"version": CACHE_VERSION, "files": self._entries}
        try:
            path.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
        except OSError:
            pass


def reverse_dependents(
    module_deps: Mapping[str, Iterable[str]], changed: Set[str]
) -> Set[str]:
    """Transitive reverse-import closure of ``changed``.

    ``module_deps`` maps module -> modules it imports (project modules
    only).  Returns every module that imports a changed module, directly
    or through intermediaries — the set that must be re-analyzed even
    when its own content hash is unchanged.  ``changed`` itself is not
    included unless some changed module also imports another.
    """
    importers: Dict[str, Set[str]] = {}
    for module, deps in module_deps.items():
        for dep in deps:
            importers.setdefault(dep, set()).add(module)
    dependents: Set[str] = set()
    queue = list(changed)
    while queue:
        module = queue.pop()
        for importer in importers.get(module, ()):
            if importer not in dependents and importer not in changed:
                dependents.add(importer)
                queue.append(importer)
    return dependents


def match_prefixes(deps: Iterable[str], known_modules: Set[str]) -> Set[str]:
    """Map recorded import targets onto project modules.

    An import of ``repro.perf.plan.ProtectedPlan`` (``from ... import``
    records the full dotted target) must count as a dependency on
    ``repro.perf.plan``; the longest known-module prefix wins.
    """
    out: Set[str] = set()
    for dep in deps:
        parts = dep.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in known_modules:
                out.add(prefix)
                break
    return out


def plan_reuse(
    hashes: Mapping[str, Tuple[str, str]],
    cache: SummaryCache,
    summaries_deps: Mapping[str, Iterable[str]],
) -> Tuple[Set[str], Set[str]]:
    """Split files into (cache hits, must re-analyze) display-path sets.

    Args:
        hashes: display path -> ``(digest, module name)`` for every file
            in this run.
        cache: the loaded cache.
        summaries_deps: module -> imported project modules, covering both
            cached and freshly-extracted summaries.

    Returns:
        ``(hits, stale)`` — ``stale`` is changed files plus transitive
        reverse-import dependents of changed modules.
    """
    changed_modules: Set[str] = set()
    changed_files: Set[str] = set()
    for display, (digest, module) in hashes.items():
        if cache.lookup(display, digest) is None:
            changed_files.add(display)
            changed_modules.add(module)
    dependents = reverse_dependents(summaries_deps, changed_modules)
    stale = set(changed_files)
    for display, (_digest, module) in hashes.items():
        if module in dependents:
            stale.add(display)
    hits = set(hashes) - stale
    return hits, stale
