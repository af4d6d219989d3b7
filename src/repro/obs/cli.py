"""Command-line entry point: ``python -m repro.obs <command>``.

Commands:

* ``summarize <events.jsonl>`` — render a JSONL event log (written by the
  ``"jsonl"`` exporter, usually via ``REPRO_OBS=jsonl``) as the
  human-readable protocol summary (``--json`` emits the machine-readable
  aggregate instead);
* ``report <events.jsonl> [...]`` — markdown campaign report, one
  section per log (``--output`` writes to a file);
* ``exporters`` — list the exporter names.

Corrupt or truncated JSONL lines (crashed writers, torn appends) are
skipped with a counted warning on stderr — the log of a crashed run is
exactly the one worth reading.

Exit codes:

* 0 — output rendered (possibly with skipped-line warnings);
* 2 — usage or input errors (missing file).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.exporters import available_exporters
from repro.obs.report import render_report
from repro.obs.summary import (
    EventSummary,
    aggregate_events,
    load_events,
    render_summary,
    summary_as_dict,
)

EXIT_OK = 0
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="ABFT protocol telemetry tools",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="render a JSONL event log as a text summary"
    )
    summarize.add_argument("events", help="path to the events.jsonl file")
    summarize.add_argument(
        "--width", type=int, default=48, help="bar width of the span breakdown"
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregate as JSON instead of text",
    )

    report = commands.add_parser(
        "report", help="render a markdown campaign report"
    )
    report.add_argument(
        "events", nargs="+", help="event logs, one report section each"
    )
    report.add_argument(
        "--output", help="write the report here instead of stdout"
    )

    commands.add_parser("exporters", help="list the exporter names")
    return parser


def _load(path: str) -> Tuple[List[dict], int]:
    """Non-strict load with the skipped-line warning on stderr."""
    events, skipped = load_events(path)
    if skipped:
        print(
            f"warning: {path}: skipped {skipped} corrupt line(s)",
            file=sys.stderr,
        )
    return events, skipped


def _summaries(paths: Sequence[str]) -> List[Tuple[str, EventSummary]]:
    sections = []
    for path in paths:
        events, skipped = _load(path)
        summary = aggregate_events(events)
        summary.skipped_lines = skipped
        sections.append((Path(path).name, summary))
    return sections


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "exporters":
        for name in available_exporters():
            print(name)
        return EXIT_OK
    try:
        if args.command == "summarize":
            events, skipped = _load(args.events)
            if args.json:
                summary = aggregate_events(events)
                summary.skipped_lines = skipped
                print(json.dumps(summary_as_dict(summary), indent=2))
            else:
                print(render_summary(events, width=args.width, skipped=skipped))
        elif args.command == "report":
            text = render_report(_summaries(args.events))
            if args.output:
                Path(args.output).write_text(text, encoding="utf-8")
            else:
                print(text, end="")
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # e.g. `... summarize log | head`
        return EXIT_OK
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
