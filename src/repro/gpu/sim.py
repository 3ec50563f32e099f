"""Discrete-event simulation engine.

A thin, deterministic event loop over one binary heap. The engine is the
single owner of simulated time; all GPU/host components schedule
callbacks through it. Determinism matters because the experiment harness
averages repeated runs that differ only by seeded RNG noise.

The run loop is the hottest code in the repository, so it is written in
a deliberately low-level style (see DESIGN.md §12 for the invariants it
must preserve): one head inspection per iteration, instrumentation
behind a single ``_hooked`` flag, and direct clock/counter stores
instead of property and method calls. The semantically-equivalent
reference loop (``use_reference_loop``) is kept for differential
testing against the fast path.

Every simulator registers with the open
:class:`~repro.obs.recorder.EngineWindow`, if any, when it is built;
the run-summary ``engine`` block (events, peak queue depth, simulated
time) comes from their own :class:`EventLoopStats` plus the window's
wall clock — no per-event hook.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from ..obs.recorder import NULL_OBS, register_simulator
from .clock import Clock
from .events import Event, EventHandle

_EVENT_NEW = Event.__new__


class EventLoopStats:
    """The engine's one set of event-loop counters.

    A single instance per :class:`Simulator` is the shared source of
    truth for event accounting: the ``max_events`` exhaustion check, the
    ``processed_events`` property, and the run-summary ``engine`` block
    (:class:`~repro.obs.recorder.EngineWindow`) all read the same
    fields, so there is no double bookkeeping between diagnostics and
    reporting.
    """

    __slots__ = ("processed", "scheduled", "cancelled", "peak_pending")

    def __init__(self):
        self.processed = 0       # events executed (cancelled pops excluded)
        self.scheduled = 0       # events ever pushed onto the heap
        self.cancelled = 0       # cancelled events dropped at the head
        self.peak_pending = 0    # high-water mark of the heap length


class Simulator:
    """Deterministic discrete-event engine (time unit: microseconds)."""

    #: When True, ``run()`` uses the step-by-step reference loop instead
    #: of the inlined fast path. The schedule-identity tests flip this to
    #: prove the fast loop preserves schedules exactly. It also disables
    #: macro-event fast-forward (repro.gpu.macro), which otherwise
    #: collapses a steady-state grid's batch chain into macro events, so
    #: the reference engine is the one-event-per-batch loop the golden
    #: traces are checked against.
    use_reference_loop = False

    def __init__(
        self,
        start_time: float = 0.0,
        max_events: int = 50_000_000,
    ):
        self.clock = Clock(start_time)
        self.start_time = self.clock._now
        #: heap of ``(time, priority, seq, Event)`` entries. The seq is
        #: unique per engine, so ties never reach the Event field and
        #: every comparison is a C-level tuple compare — no Python
        #: ``__lt__`` frames on the hot path.
        self._heap: List[tuple] = []
        self._seq = 0
        #: cancelled-but-not-yet-popped events still in the queue; makes
        #: ``pending()`` O(1) (maintained by Event.cancel via ``_q``)
        self._dead = 0
        self.stats = EventLoopStats()
        self._max_events = max_events
        self._running = False
        self._trace: Optional[Callable[[Event], None]] = None
        #: observability recorder (repro.obs); the shared null recorder
        #: keeps the per-event cost to one flag check when disabled
        self._obs = NULL_OBS
        #: single is-anything-installed flag the run loop branches on;
        #: refreshed whenever trace/obs are (un)installed
        self._hooked = False
        register_simulator(self)

    # ------------------------------------------------------------------
    # instrumentation wiring (rare: assignment refreshes the hot flag)
    # ------------------------------------------------------------------
    @property
    def obs(self):
        return self._obs

    @obs.setter
    def obs(self, hub) -> None:
        self._obs = hub
        self._refresh_hooked()

    def set_trace(self, fn: Optional[Callable[[Event], None]]) -> None:
        """Install a hook called with each event just before it fires."""
        self._trace = fn
        self._refresh_hooked()

    def _refresh_hooked(self) -> None:
        self._hooked = self._trace is not None or self._obs.enabled

    # ------------------------------------------------------------------
    # scheduling API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled pops not counted)."""
        return self.stats.processed

    @property
    def max_events(self) -> int:
        """Event budget before the engine declares a runaway loop."""
        return self._max_events

    @max_events.setter
    def max_events(self, value: int) -> None:
        if value <= 0:
            raise SimulationError(f"max_events must be positive, got {value}")
        self._max_events = value

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` microseconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(
            self.clock._now + delay, callback, label, priority
        )

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        return EventHandle(self.schedule_event(time, callback, label, priority))

    def schedule_event(
        self,
        time: float,
        callback: Callable[[], Any],
        label: str = "",
        priority: int = 0,
    ) -> Event:
        """Fast-path variant of :meth:`schedule_at` returning the raw
        :class:`Event` (no handle wrapper). Same validation, ordering and
        accounting; internal hot callers (the CTA batch loop) use this to
        skip one allocation per scheduled event."""
        if time < self.clock._now:
            raise SimulationError(
                f"cannot schedule at {time} before now={self.now}"
            )
        seq = self._seq = self._seq + 1
        # build the Event with direct slot stores — this allocator runs
        # once per scheduled event, and the __init__ frame is pure cost
        ev = _EVENT_NEW(Event)
        ev.time = time
        ev.priority = priority
        ev.seq = seq
        ev.callback = callback
        ev.label = label
        ev.cancelled = False
        ev._q = self
        heap = self._heap
        heapq.heappush(heap, (time, priority, seq, ev))
        depth = len(heap)
        st = self.stats
        st.scheduled += 1
        if depth > st.peak_pending:
            st.peak_pending = depth
        return ev

    def call_soon(
        self, callback: Callable[[], Any], label: str = "", priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at the current time (after pending same-time
        events of lower sequence)."""
        return self.schedule_at(self.clock._now, callback, label, priority)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events. O(1): queue
        length minus the incrementally-maintained dead-event count."""
        return len(self._heap) - self._dead

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is idle."""
        self._drop_cancelled_head()
        heap = self._heap
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the next live event. Returns ``False`` when idle.

        This is the engine's *reference* path — semantically identical
        to one iteration of the fast ``run()`` loop, kept for external
        single-stepping and differential tests.
        """
        self._drop_cancelled_head()
        heap = self._heap
        if not heap:
            return False
        ev = heapq.heappop(heap)[3]
        ev._q = None
        self.clock.advance_to(ev.time)
        st = self.stats
        st.processed += 1
        if st.processed > self._max_events:
            raise SimulationError(self._exhaustion_diagnostics(ev))
        if self._hooked:
            self._fire_hooks(ev)
        ev.callback()
        return True

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or ``until`` is reached.

        Returns the final simulated time. When ``until`` is given and
        events remain beyond it, the clock is advanced exactly to
        ``until``.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if self.use_reference_loop:
            return self._run_reference(until)
        self._running = True
        # Fast path: locals for everything touched per iteration, one
        # head inspection per event, direct clock/counter stores. The
        # heap order guarantees popped times are non-decreasing and
        # schedule_at rejects the past, so the clock store needs no
        # monotonicity re-check (DESIGN.md §12).
        heap = self._heap
        pop = heapq.heappop
        clock = self.clock
        st = self.stats
        max_events = self._max_events
        limit = float("inf") if until is None else until
        # processed count kept in a local; everything that reads it
        # (engine block, harness, diagnostics) runs after the
        # loop exits, and the finally below syncs it even on raise
        processed = st.processed
        try:
            while heap:
                head = heap[0]
                ev = head[3]
                if ev.cancelled:
                    pop(heap)
                    ev._q = None
                    self._dead -= 1
                    st.cancelled += 1
                    continue
                t = head[0]
                if t > limit:
                    clock.advance_to(until)
                    break
                pop(heap)
                ev._q = None
                clock._now = t
                processed += 1
                if processed > max_events:
                    st.processed = processed
                    raise SimulationError(self._exhaustion_diagnostics(ev))
                if self._hooked:
                    # _fire_hooks inlined: hooks may be (re)installed by a
                    # callback mid-run, so each is re-read per event
                    trace = self._trace
                    if trace is not None:
                        trace(ev)
                    obs = self._obs
                    if obs.enabled:
                        obs.on_event(ev.label, len(heap))
                ev.callback()
        finally:
            st.processed = processed
            self._running = False
        return clock._now

    def _run_reference(self, until: Optional[float]) -> float:
        """Step-by-step loop: one peek + one step per event; the
        differential reference for the fast loop
        (``use_reference_loop``)."""
        self._running = True
        try:
            while True:
                nxt = self.peek_time()
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    self.clock.advance_to(until)
                    break
                self.step()
        finally:
            self._running = False
        return self.clock._now

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fire_hooks(self, ev: Event) -> None:
        """Slow path: deliver ``ev`` to whichever hooks are installed."""
        if self._trace is not None:
            self._trace(ev)
        if self._obs.enabled:
            self._obs.on_event(ev.label, len(self._heap))

    def _exhaustion_diagnostics(self, current: Event) -> str:
        """Diagnostic message for a blown event budget: what was running,
        how much is still queued, and which events come next."""
        # filter cancelled *before* truncating so the preview really is
        # the next 5 live events, not fewer
        live = [
            en[3]
            for en in heapq.nsmallest(
                5, (en for en in self._heap if not en[3].cancelled)
            )
        ]
        heads = ", ".join(
            f"{e.label or '<unlabelled>'}@{e.time:.3f}us" for e in live
        ) or "<none>"
        return (
            f"event budget exceeded ({self._max_events} events) at "
            f"t={self.now:.3f}us while firing "
            f"{current.label or '<unlabelled>'!r}; "
            f"pending={self.pending()}, next events: [{heads}]; "
            "likely a runaway scheduling loop (raise Simulator.max_events "
            "if the workload is legitimately this large)"
        )

    def _drop_cancelled_head(self) -> None:
        st = self.stats
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)[3]._q = None
            self._dead -= 1
            st.cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.3f}us, pending={self.pending()}, "
            f"processed={self.stats.processed})"
        )
