"""Summary aggregation: batched histograms, tolerant loading, JSON view."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    aggregate_events,
    load_events,
    read_events,
    summary_as_dict,
)


def test_batched_hist_events_aggregate_all_values():
    events = [
        {"type": "hist", "name": "m", "values": [0.1, 0.2], "attrs": {}},
        {"type": "hist", "name": "m", "value": 0.3, "attrs": {}},
    ]
    summary = aggregate_events(events)
    assert summary.histogram_values["m"] == [0.1, 0.2, 0.3]


# ----------------------------------------------------------------------
# load_events
# ----------------------------------------------------------------------
def test_load_events_skips_and_counts_corrupt_lines(tmp_path):
    log = tmp_path / "events.jsonl"
    log.write_text(
        '{"type": "counter", "name": "c", "value": 1.0}\n'
        "garbage\n"
        '{"type": "counter", "name": "c", "va'  # torn mid-line
    )
    events, skipped = load_events(log)
    assert len(events) == 1 and skipped == 2
    with pytest.raises(ConfigurationError, match="not a JSON event"):
        read_events(log)


def test_load_events_missing_file_always_raises(tmp_path):
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_events(tmp_path / "nope.jsonl")


# ----------------------------------------------------------------------
# summary_as_dict
# ----------------------------------------------------------------------
def test_summary_as_dict_round_trips_through_json():
    import json

    events = [
        {"type": "counter", "name": "abft.checks", "value": 2.0, "attrs": {}},
        {"type": "hist", "name": "m", "values": [0.1, 0.9], "attrs": {}},
        {"type": "span", "name": "s", "start": 0.0, "end": 0.5, "depth": 0},
    ]
    summary = aggregate_events(events)
    summary.skipped_lines = 1
    payload = json.loads(json.dumps(summary_as_dict(summary)))
    assert payload["skipped_lines"] == 1
    assert payload["counters"]["abft.checks"] == 2.0
    assert payload["histogram_values"]["m"]["count"] == 2
    assert payload["spans"]["s"]["total"] == 0.5
