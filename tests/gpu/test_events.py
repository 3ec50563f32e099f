"""Event-primitive unit tests: the event as its own handle and lazy
cancellation (the engine's firing order is tested in ``test_sim.py``)."""

from repro.gpu.events import Event, maybe_cancel
from repro.gpu.sim import Simulator


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
    """``schedule``/``schedule_at`` hand back the queued Event itself."""

    def test_handle_exposes_event_fields(self):
        sim = Simulator()
        handle = sim.schedule_at(4.0, lambda: None, label="poll")
        assert isinstance(handle, Event)
        assert handle.time == 4.0
        assert handle.label == "poll"
        assert not handle.cancelled

    def test_handle_cancel_reaches_event(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(4.0, lambda: fired.append(1))
        handle.cancel()
        assert handle.cancelled
        assert sim.pending() == 0
        sim.run()
        assert fired == []

    def test_maybe_cancel_handles_none(self):
        maybe_cancel(None)  # must not raise

    def test_maybe_cancel_cancels_real_handle(self):
        ev = make(1.0)
        maybe_cancel(ev)
        assert ev.cancelled
