"""Unit tests for the trace recorder."""

from repro.obs import TraceRecorder


class TestTraceRecorder:
    def test_record_and_count(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "wnic.transition", {"state": "sleep"})
        recorder.record(1.0, "wnic.transition", {"state": "idle"})
        recorder.record(2.0, "packet.rx", {"size": 100})
        assert len(recorder) == 3
        assert recorder.count("wnic.transition") == 2

    def test_prefix_query(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "wnic.transition", {})
        recorder.record(1.0, "wnic.power", {})
        recorder.record(2.0, "packet.rx", {})
        assert recorder.count("wnic.") == 2

    def test_records_preserve_fields(self):
        recorder = TraceRecorder()
        recorder.record(5.0, "x", {"a": 1, "b": "two"})
        [row] = recorder.query("x")
        assert row.time == 5.0
        assert row.fields == {"a": 1, "b": "two"}
