"""Event primitives for the discrete-event engine.

Events are cancellable: a scheduled :class:`Event` keeps a ``cancelled``
flag instead of being removed from the heap (lazy deletion). This is what
lets persistent-thread CTAs "fast-forward" — they schedule one far-future
completion event and, when a preemption flag arrives, that event is
cancelled and re-planned at the next poll boundary (see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class Event:
    """A single scheduled callback.

    The engine's heap orders ``(time, priority, seq, event)`` entries so
    that simultaneous events fire deterministically: lower ``priority``
    first, then insertion order. ``seq`` is unique per engine, so two
    events are never compared themselves.
    """

    __slots__ = (
        "time", "priority", "seq", "callback", "label", "cancelled", "_q"
    )

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = 0,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        #: owning engine while the event sits in its queue (duck-typed:
        #: anything with a ``_dead`` counter); cleared when popped so a
        #: late ``cancel()`` cannot skew the live-event count
        self._q = None

    def cancel(self) -> None:
        """Mark the event dead; the engine skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            q = self._q
            if q is not None:
                q._dead += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.3f}, {self.label!r}, {state})"


def maybe_cancel(event: Optional[Event]) -> None:
    """Cancel ``event`` if it is not ``None`` (common idiom)."""
    if event is not None:
        event.cancel()
