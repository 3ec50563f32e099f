"""Span-tracer tests: recording, nesting, Chrome-trace export."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.tracer import SpanTracer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


class TestSpans:
    def test_begin_end_stamps_clock(self, tracer, clock):
        """Spans carry the caller's time, not the tracer's clock (a
        fleet's nodes share one tracer, each on its own clock)."""
        clock.t = 99.0
        span = tracer.begin("exec", 10.0, process="p", track=1, kernel="NN")
        assert span.open
        tracer.end(span, 42.0, done=True)
        assert span.start_us == 10.0
        assert span.end_us == 42.0
        assert span.duration_us == 32.0
        assert span.args == {"kernel": "NN", "done": True}

    def test_double_end_rejected(self, tracer):
        span = tracer.begin("s", 0.0)
        tracer.end(span, 1.0)
        with pytest.raises(ObservabilityError):
            tracer.end(span, 2.0)

    def test_backwards_end_rejected(self, tracer, clock):
        span = tracer.begin("s", 100.0)
        with pytest.raises(ObservabilityError):
            tracer.end(span, 50.0)

    def test_open_span_duration_rejected(self, tracer):
        span = tracer.begin("s", 0.0)
        with pytest.raises(ObservabilityError):
            _ = span.duration_us

    def test_complete_retrospective(self, tracer):
        span = tracer.complete("old", 5.0, 9.0)
        assert not span.open
        assert span.duration_us == 4.0
        with pytest.raises(ObservabilityError):
            tracer.complete("bad", 9.0, 5.0)

    def test_close_open_truncates(self, tracer, clock):
        a = tracer.begin("a", 1.0)
        b = tracer.begin("b", 1.0)
        tracer.end(b, 1.0)
        clock.t = 7.0
        assert tracer.close_open() == 1
        assert a.end_us == 7.0
        assert a.args["truncated"] is True
        assert tracer.open_spans() == []

    def test_containment_query(self, tracer, clock):
        outer = tracer.begin("inv", 0.0, track=3)
        inner = tracer.begin("drain", 2.0, track=3)
        other_lane = tracer.begin("drain", 2.0, track=4)
        tracer.end(inner, 5.0)
        tracer.end(other_lane, 5.0)
        tracer.end(outer, 10.0)
        assert tracer.spans_in(outer) == [inner]
        assert tracer.spans_named("drain") == [inner, other_lane]


class TestInstantsAndCounters:
    def test_instant_recorded(self, tracer, clock):
        clock.t = 99.0
        tracer.instant("preempt_req", 3.0, kind="temporal")
        (inst,) = tracer.instants
        assert inst.at_us == 3.0
        assert dict(inst.args) == {"kind": "temporal"}

    def test_counter_needs_values(self, tracer):
        with pytest.raises(ObservabilityError):
            tracer.counter("queue")
        tracer.counter("queue", depth=2)
        assert tracer.counters[0].values == (("depth", 2.0),)

    def test_len_counts_everything(self, tracer):
        tracer.begin("s", 0.0)
        tracer.instant("i", 0.0)
        tracer.counter("c", v=1)
        assert len(tracer) == 3


class TestChromeExport:
    def _trace(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        tracer.name_track("runtime", 1, "#1 NN")
        outer = tracer.begin("NN", 0.0, process="runtime", track=1)
        inner = tracer.begin("drain", 5.0, process="runtime", track=1)
        tracer.end(inner, 8.0)
        tracer.instant("resume", 8.0, process="runtime", track=1)
        clock.t = 8.0
        tracer.counter("queue_depth", process="runtime", waiting=2)
        tracer.end(outer, 20.0)
        return tracer

    def test_complete_events_with_ts_dur(self):
        doc = self._trace().chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in xs}
        assert by_name["NN"]["ts"] == 0.0 and by_name["NN"]["dur"] == 20.0
        assert by_name["drain"]["ts"] == 5.0 and by_name["drain"]["dur"] == 3.0
        assert by_name["NN"]["pid"] == by_name["drain"]["pid"]
        assert by_name["NN"]["tid"] == 1

    def test_metadata_names_processes_and_tracks(self):
        doc = self._trace().chrome_trace()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "runtime") in names
        assert ("thread_name", "#1 NN") in names

    def test_instant_and_counter_events(self):
        doc = self._trace().chrome_trace()
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "C", "M"} <= phs
        (c,) = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert c["args"] == {"waiting": 2.0}

    def test_events_time_sorted(self):
        doc = self._trace().chrome_trace()
        data = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        ts = [e["ts"] for e in data]
        assert ts == sorted(ts)

    def test_open_spans_flagged_truncated(self):
        tracer = SpanTracer(FakeClock(4.0))
        tracer.begin("hanging", 4.0)
        doc = tracer.chrome_trace()
        (ev,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert ev["dur"] == 0.0
        assert ev["args"]["truncated"] is True

    def test_json_and_file_round_trip(self, tmp_path):
        tracer = self._trace()
        assert json.loads(tracer.to_json()) == tracer.chrome_trace()
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        assert doc["otherData"]["time_unit"] == "us"
        assert doc["displayTimeUnit"] == "ms"
