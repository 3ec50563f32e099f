"""Event-primitive unit tests: handles and lazy cancellation (the
engine's firing order is tested in ``test_sim.py``)."""

from repro.gpu.events import Event, EventHandle, maybe_cancel


def make(time, seq=0, priority=0, label=""):
    return Event(time, seq, lambda: None, label=label, priority=priority)


class TestCancellation:
    def test_events_start_live(self):
        assert not make(1.0).cancelled

    def test_cancel_marks_dead(self):
        ev = make(1.0)
        ev.cancel()
        assert ev.cancelled


class TestHandle:
    def test_handle_exposes_event_fields(self):
        ev = make(4.0, label="poll")
        handle = EventHandle(ev)
        assert handle.time == 4.0
        assert handle.label == "poll"
        assert not handle.cancelled

    def test_handle_cancel_reaches_event(self):
        ev = make(4.0)
        handle = EventHandle(ev)
        handle.cancel()
        assert ev.cancelled
        assert handle.cancelled

    def test_maybe_cancel_handles_none(self):
        maybe_cancel(None)  # must not raise

    def test_maybe_cancel_cancels_real_handle(self):
        handle = EventHandle(make(1.0))
        maybe_cancel(handle)
        assert handle.cancelled
