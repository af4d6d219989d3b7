"""Finding reporters: human text, machine JSON, and SARIF 2.1.0.

The SARIF output targets the subset GitHub code scanning ingests: one run,
one driver, rule metadata with help text, and per-result partial
fingerprints (reprolint's line-independent hashes).
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError
from repro.lint.findings import Finding, fingerprint_all
from repro.lint.registry import available_rules, get_rule

#: Reporter names accepted by the CLI.
FORMATS = ("text", "json", "sarif")

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
TOOL_NAME = "reprolint"
TOOL_VERSION = "2.0.0"


def render_text(
    findings: Sequence[Finding],
    known: Sequence[Finding] = (),
    files_checked: int = 0,
    suppressed: int = 0,
) -> str:
    """The default terminal report: one line per finding plus a summary."""
    lines: List[str] = []
    for finding in findings:
        lines.append(f"{finding.location()}: {finding.rule} {finding.message}")
    for finding in known:
        lines.append(
            f"{finding.location()}: {finding.rule} [baseline] {finding.message}"
        )
    summary = (
        f"{len(findings)} new finding(s), {len(known)} baselined, "
        f"{suppressed} suppressed across {files_checked} file(s)"
    )
    lines.append(summary)
    return "\n".join(lines) + "\n"


def render_json(
    findings: Sequence[Finding],
    known: Sequence[Finding] = (),
    files_checked: int = 0,
    suppressed: int = 0,
) -> str:
    """Machine-readable report (stable key order)."""

    def encode(finding: Finding, print_: str, baselined: bool) -> Dict[str, object]:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "line": finding.line,
            "column": finding.column,
            "message": finding.message,
            "snippet": finding.snippet,
            "fingerprint": print_,
            "baselined": baselined,
        }

    payload = {
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "files_checked": files_checked,
        "suppressed": suppressed,
        "findings": [
            *(encode(f, p, False) for f, p in fingerprint_all(findings)),
            *(encode(f, p, True) for f, p in fingerprint_all(known)),
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sarif_rules(rule_ids: Sequence[str]) -> List[Dict[str, object]]:
    descriptors: List[Dict[str, object]] = []
    for rule_id in rule_ids:
        try:
            rule = get_rule(rule_id)
            title, rationale = rule.title, rule.rationale
        except ConfigurationError:
            # Synthetic rules (parse/ingest diagnostics) have no registry entry.
            title, rationale = "file does not parse", ""
        descriptors.append(
            {
                "id": rule_id,
                "shortDescription": {"text": title or rule_id},
                "help": {"text": rationale or title or rule_id},
                "defaultConfiguration": {"level": "error"},
            }
        )
    return descriptors


def render_sarif(
    findings: Sequence[Finding],
    known: Sequence[Finding] = (),
    files_checked: int = 0,
    suppressed: int = 0,
) -> str:
    """SARIF 2.1.0 report; baselined findings carry level ``note``."""
    rule_ids = sorted(
        set(available_rules())
        | {f.rule for f in findings}
        | {f.rule for f in known}
    )
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}

    def result(finding: Finding, print_: str, baselined: bool) -> Dict[str, object]:
        return {
            "ruleId": finding.rule,
            "ruleIndex": rule_index[finding.rule],
            "level": "note" if baselined else "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.column,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reprolint/v1": print_},
        }

    document = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": TOOL_NAME,
                        "version": TOOL_VERSION,
                        "informationUri": "https://example.invalid/reprolint",
                        "rules": _sarif_rules(rule_ids),
                    }
                },
                "results": [
                    *(result(f, p, False) for f, p in fingerprint_all(findings)),
                    *(result(f, p, True) for f, p in fingerprint_all(known)),
                ],
            }
        ],
    }
    return json.dumps(document, indent=2) + "\n"


#: Reporter dispatch used by the CLI.
RENDERERS = {"text": render_text, "json": render_json, "sarif": render_sarif}


def render(
    format_name: str,
    findings: Sequence[Finding],
    known: Sequence[Finding] = (),
    files_checked: int = 0,
    suppressed: int = 0,
) -> str:
    """Render with the named reporter.

    Raises:
        ConfigurationError: unknown format names.
    """
    try:
        renderer = RENDERERS[format_name]
    except KeyError:
        raise ConfigurationError(
            f"unknown report format {format_name!r}; expected one of {FORMATS}"
        ) from None
    return renderer(
        findings, known=known, files_checked=files_checked, suppressed=suppressed
    )
