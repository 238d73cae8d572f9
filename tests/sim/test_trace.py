"""Unit tests for the trace recorder."""

from repro.obs import TraceRecorder


class TestTraceRecorder:
    def test_record_and_count(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "wnic.transition", state="sleep")
        recorder.record(1.0, "wnic.transition", state="idle")
        recorder.record(2.0, "packet.rx", size=100)
        assert len(recorder) == 3
        assert recorder.count("wnic.transition") == 2

    def test_prefix_query(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "wnic.transition")
        recorder.record(1.0, "wnic.power")
        recorder.record(2.0, "packet.rx")
        assert recorder.count("wnic.") == 2

    def test_time_window_query(self):
        recorder = TraceRecorder()
        for t in (0.0, 1.0, 2.0, 3.0):
            recorder.record(t, "tick")
        rows = list(recorder.query(since=1.0, until=3.0))
        assert [r.time for r in rows] == [1.0, 2.0]

    def test_predicate_query(self):
        recorder = TraceRecorder()
        recorder.record(0.0, "packet.rx", size=10)
        recorder.record(1.0, "packet.rx", size=2000)
        big = list(recorder.query("packet.rx", predicate=lambda r: r.fields["size"] > 100))
        assert len(big) == 1
        assert big[0].fields["size"] == 2000

    def test_records_preserve_fields(self):
        recorder = TraceRecorder()
        row = recorder.record(5.0, "x", a=1, b="two")
        assert row.time == 5.0
        assert row.fields == {"a": 1, "b": "two"}
