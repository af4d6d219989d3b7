"""Finding records and stable fingerprints.

A :class:`Finding` pins one rule violation to a ``file:line:column``
position.  Findings also carry a *fingerprint* — a content hash over the
rule id, the file path, and the offending source line (plus an ordinal for
repeated identical lines) — deliberately excluding line numbers, so a
committed baseline survives unrelated edits that shift code up or down.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source position.

    Attributes:
        path: file path (POSIX separators, relative to the lint root).
        line: 1-based line of the offending node.
        column: 1-based column of the offending node.
        rule: rule identifier (``"ABFT003"``).
        message: human-readable description of the violation.
        snippet: the stripped source line, used for fingerprinting and
            for context in reports.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str
    snippet: str = field(default="", compare=False)

    def location(self) -> str:
        """``path:line:column`` (the clickable prefix of text reports)."""
        return f"{self.path}:{self.line}:{self.column}"


def fingerprint(finding: Finding, ordinal: int = 0) -> str:
    """Line-number-independent identity hash of a finding.

    ``ordinal`` disambiguates several identical violations (same rule,
    file, and source text) so a baseline tracks *how many* are accepted.
    """
    payload = f"{finding.rule}|{finding.path}|{finding.snippet}|{ordinal}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:20]


def fingerprint_all(findings: Iterable[Finding]) -> List[Tuple[Finding, str]]:
    """Pair every finding with its fingerprint, assigning ordinals.

    Findings are processed in order; the n-th occurrence of an identical
    (rule, path, snippet) triple gets ordinal n-1, making
    fingerprints unique within one run.
    """
    seen: Dict[Tuple[str, str, str], int] = {}
    out: List[Tuple[Finding, str]] = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet)
        ordinal = seen.get(key, 0)
        seen[key] = ordinal + 1
        out.append((finding, fingerprint(finding, ordinal)))
    return out
