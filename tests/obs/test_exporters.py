"""Exporter behavior and the exporter table."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    BUILTIN_EXPORTERS,
    EVENTS_DROPPED_COUNTER,
    InMemoryExporter,
    JsonlExporter,
    NullExporter,
    RingBufferExporter,
    available_exporters,
    make_exporter,
)


def test_builtins_are_available():
    names = available_exporters()
    for builtin in BUILTIN_EXPORTERS:
        assert builtin in names


def test_make_exporter_instantiates_builtins():
    assert isinstance(make_exporter("off"), NullExporter)
    assert isinstance(make_exporter("memory"), InMemoryExporter)
    assert isinstance(make_exporter("jsonl"), JsonlExporter)
    assert isinstance(make_exporter("ring"), RingBufferExporter)


def test_make_exporter_unknown_name():
    with pytest.raises(ConfigurationError, match="unknown exporter"):
        make_exporter("nope")


def test_in_memory_exporter_buffers_and_clears():
    exporter = InMemoryExporter()
    exporter.emit({"type": "counter", "name": "a"})
    assert len(exporter.events) == 1
    exporter.clear()
    assert exporter.events == []


def test_jsonl_exporter_writes_one_object_per_line(tmp_path):
    path = tmp_path / "events.jsonl"
    exporter = JsonlExporter(path)
    assert not path.exists()  # opening is lazy
    exporter.emit({"type": "counter", "name": "a", "value": 1.0})
    exporter.emit({"type": "gauge", "name": "b", "value": 2.5})
    exporter.close()
    lines = path.read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == ["a", "b"]
    exporter.close()  # closing twice is tolerated


def test_jsonl_exporter_reads_path_from_environment(tmp_path, monkeypatch):
    target = tmp_path / "env-events.jsonl"
    monkeypatch.setenv("REPRO_OBS_PATH", str(target))
    exporter = JsonlExporter()
    exporter.emit({"type": "counter", "name": "a", "value": 1.0})
    exporter.close()
    assert target.exists()


def test_jsonl_exporter_batches_until_flush_threshold(tmp_path):
    path = tmp_path / "batched.jsonl"
    exporter = JsonlExporter(path, flush_every=3)
    exporter.emit({"type": "counter", "name": "a", "value": 1.0})
    exporter.emit({"type": "counter", "name": "b", "value": 1.0})
    assert not path.exists()  # below the batch threshold, nothing written
    exporter.emit({"type": "counter", "name": "c", "value": 1.0})
    assert len(path.read_text().splitlines()) == 3  # threshold writes
    exporter.emit({"type": "counter", "name": "d", "value": 1.0})
    assert len(path.read_text().splitlines()) == 3  # partial batch pends
    exporter.flush()
    assert len(path.read_text().splitlines()) == 4  # flush persists the tail
    exporter.close()


def test_jsonl_exporter_emit_batch_is_one_write(tmp_path):
    path = tmp_path / "batch.jsonl"
    exporter = JsonlExporter(path)
    exporter.emit_batch(
        [{"type": "counter", "name": f"n{i}", "value": 1.0} for i in range(5)]
    )
    lines = path.read_text().splitlines()
    assert [json.loads(line)["name"] for line in lines] == [
        "n0", "n1", "n2", "n3", "n4"
    ]
    exporter.close()


def test_jsonl_exporter_rejects_bad_flush_every(tmp_path):
    with pytest.raises(ConfigurationError, match="flush_every"):
        JsonlExporter(tmp_path / "x.jsonl", flush_every=0)


def test_ring_exporter_batches_into_sink():
    sink = InMemoryExporter()
    ring = RingBufferExporter(sink=sink, flush_every=3, background=False)
    ring.emit({"type": "counter", "name": "a"})
    ring.emit({"type": "counter", "name": "b"})
    assert sink.events == []  # below the batch threshold
    ring.emit({"type": "counter", "name": "c"})
    assert [e["name"] for e in sink.events] == ["a", "b", "c"]
    ring.emit({"type": "counter", "name": "d"})
    ring.flush()
    assert [e["name"] for e in sink.events] == ["a", "b", "c", "d"]
    assert ring.events_dropped == 0


def test_ring_exporter_background_writer_streams_in_order():
    sink = InMemoryExporter()
    ring = RingBufferExporter(sink=sink, flush_every=4)
    names = [f"n{i}" for i in range(11)]
    for name in names:
        ring.emit({"type": "counter", "name": name})
    ring.flush()  # waits for the writer to drain, then flushes the tail
    assert [e["name"] for e in sink.events] == names  # strict FIFO order
    assert ring.events_dropped == 0
    ring.close()
    ring.close()  # second close is tolerated


def test_ring_exporter_flight_recorder_drops_oldest():
    ring = RingBufferExporter(capacity=3)
    for index in range(5):
        ring.emit({"type": "counter", "name": f"n{index}"})
    assert ring.events_dropped == 2
    drained = ring.drain()
    # The drop report leads, then the newest `capacity` events.
    assert drained[0]["name"] == EVENTS_DROPPED_COUNTER
    assert drained[0]["value"] == 2.0
    assert [e["name"] for e in drained[1:]] == ["n2", "n3", "n4"]
    # A second drain reports nothing new.
    assert ring.drain() == []


def test_ring_exporter_close_flushes_and_closes_sink(tmp_path):
    path = tmp_path / "ring.jsonl"
    ring = RingBufferExporter(sink=JsonlExporter(path), flush_every=100)
    ring.emit({"type": "counter", "name": "tail", "value": 1.0})
    assert not path.exists()
    ring.close()
    assert json.loads(path.read_text().splitlines()[0])["name"] == "tail"


def test_ring_exporter_validates_parameters():
    with pytest.raises(ConfigurationError, match="capacity"):
        RingBufferExporter(capacity=0)
    with pytest.raises(ConfigurationError, match="flush_every"):
        RingBufferExporter(flush_every=0)

