"""Time-stamped span tracer with Chrome/Perfetto trace-event export.

The tracer records what the hub's decision log
(:mod:`repro.obs.decisions`) and the :class:`~repro.gpu.trace.Timeline`
each capture half of — nested, timed spans of the whole system: one
outer span per kernel invocation (arrival to completion) with execute /
preempt-drain / wait / resume segments inside it, plus instant markers
(preemption requests) and counter tracks (queue depths, per-SM
residency). The tracer keeps no clock: every record carries the time its
caller passes, read from the simulator that made it.

Export is the Chrome ``trace_event`` JSON format, so a whole
multi-program run opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev:

* spans become ``"ph": "X"`` *complete* events (robust to out-of-order
  emission — the viewer nests by containment);
* instants become ``"ph": "i"``, counters ``"ph": "C"``;
* process/thread names are declared with ``"ph": "M"`` metadata events.

Simulated time is microseconds, which is exactly the ``ts``/``dur`` unit
the trace-event spec uses — timestamps are exported unscaled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ObservabilityError


@dataclass
class Span:
    """One open or closed span on a (process, track) lane."""

    name: str
    cat: str
    process: str
    track: int
    start_us: float
    end_us: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end_us is None

    @property
    def duration_us(self) -> float:
        if self.end_us is None:
            raise ObservabilityError(f"span {self.name!r} is still open")
        return self.end_us - self.start_us


@dataclass(frozen=True)
class InstantEvent:
    name: str
    cat: str
    process: str
    track: int
    at_us: float
    args: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class CounterSample:
    name: str
    process: str
    at_us: float
    values: Tuple[Tuple[str, float], ...]


class SpanTracer:
    """Recorder of nested spans, instants and counter samples.

    Every record is stamped with the explicit time (simulated µs) the
    caller passes, read from the clock of the simulator that owns the
    record: a fleet's nodes share one tracer, each on its own clock.
    ``track`` is a stable integer lane within a process — the engine
    uses the invocation id, so every invocation renders as its own named
    row.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []
        self.counters: List[CounterSample] = []
        self._track_names: Dict[Tuple[str, int], str] = {}

    # -- recording ---------------------------------------------------------
    def name_track(self, process: str, track: int, name: str) -> None:
        """Give a (process, track) lane a human-readable name."""
        self._track_names[(process, track)] = name

    def begin(
        self,
        name: str,
        at_us: float,
        cat: str = "",
        process: str = "flep",
        track: int = 0,
        **args,
    ) -> Span:
        span = Span(
            name=name,
            cat=cat,
            process=process,
            track=track,
            start_us=at_us,
            args=dict(args),
        )
        self.spans.append(span)
        return span

    def end(self, span: Span, at_us: float, **args) -> Span:
        if span.end_us is not None:
            raise ObservabilityError(f"span {span.name!r} ended twice")
        if at_us < span.start_us:
            raise ObservabilityError(
                f"span {span.name!r} would end before it started"
            )
        span.end_us = at_us
        if args:
            span.args.update(args)
        return span

    def complete(
        self,
        name: str,
        start_us: float,
        end_us: float,
        cat: str = "",
        process: str = "flep",
        track: int = 0,
        **args,
    ) -> Span:
        """Record an already-closed span (retrospective instrumentation)."""
        if end_us < start_us:
            raise ObservabilityError(
                f"span {name!r} ends before it starts"
            )
        span = Span(name, cat, process, track, start_us, end_us, dict(args))
        self.spans.append(span)
        return span

    def instant(
        self,
        name: str,
        at_us: float,
        cat: str = "",
        process: str = "flep",
        track: int = 0,
        **args,
    ) -> None:
        self.instants.append(
            InstantEvent(
                name, cat, process, track, at_us,
                tuple(sorted(args.items())),
            )
        )

    def counter(
        self, name: str, at_us: float, process: str = "flep", **values
    ) -> None:
        """Sample a counter track at ``at_us`` (renders as a stacked area
        chart)."""
        if not values:
            raise ObservabilityError("counter sample needs at least one value")
        self.counters.append(
            CounterSample(
                name,
                process,
                at_us,
                tuple(sorted((k, float(v)) for k, v in values.items())),
            )
        )

    # -- queries -----------------------------------------------------------
    def open_spans(self) -> List[Span]:
        return [s for s in self.spans if s.open]

    def close_open(self, at_us: float) -> int:
        """Close every still-open span at ``at_us`` (end of run); returns
        how many."""
        n = 0
        for span in self.spans:
            if span.open:
                span.end_us = max(at_us, span.start_us)
                span.args.setdefault("truncated", True)
                n += 1
        return n

    def spans_named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def spans_in(self, outer: Span) -> List[Span]:
        """Spans fully contained in ``outer`` on the same lane (the
        viewer's nesting relation)."""
        if outer.end_us is None:
            raise ObservabilityError("containment needs a closed span")
        return [
            s
            for s in self.spans
            if s is not outer
            and s.process == outer.process
            and s.track == outer.track
            and not s.open
            and s.start_us >= outer.start_us - 1e-9
            and s.end_us <= outer.end_us + 1e-9
        ]

    # -- export ------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, object]:
        """The run as a Chrome ``trace_event`` JSON object."""
        pids: Dict[str, int] = {}

        def pid_of(process: str) -> int:
            if process not in pids:
                pids[process] = len(pids) + 1
            return pids[process]

        events: List[Dict[str, object]] = []
        for span in self.spans:
            end = span.end_us if span.end_us is not None else span.start_us
            ev: Dict[str, object] = {
                "name": span.name,
                "ph": "X",
                "ts": span.start_us,
                "dur": end - span.start_us,
                "pid": pid_of(span.process),
                "tid": span.track,
            }
            if span.cat:
                ev["cat"] = span.cat
            if span.args or span.open:
                ev["args"] = dict(span.args)
                if span.open:
                    ev["args"]["truncated"] = True
            events.append(ev)
        for inst in self.instants:
            ev = {
                "name": inst.name,
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": inst.at_us,
                "pid": pid_of(inst.process),
                "tid": inst.track,
            }
            if inst.cat:
                ev["cat"] = inst.cat
            if inst.args:
                ev["args"] = dict(inst.args)
            events.append(ev)
        for sample in self.counters:
            events.append(
                {
                    "name": sample.name,
                    "ph": "C",
                    "ts": sample.at_us,
                    "pid": pid_of(sample.process),
                    "tid": 0,
                    "args": dict(sample.values),
                }
            )
        metadata: List[Dict[str, object]] = []
        for process, pid in sorted(pids.items(), key=lambda kv: kv[1]):
            metadata.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        for (process, track), label in sorted(self._track_names.items()):
            if process not in pids:
                continue
            metadata.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[process],
                    "tid": track,
                    "args": {"name": label},
                }
            )
        events.sort(key=lambda e: (e.get("ts", 0.0), e.get("pid", 0)))
        return {
            "traceEvents": metadata + events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.SpanTracer", "time_unit": "us"},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent)

    def write_chrome_trace(self, path: str, indent: Optional[int] = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(indent=indent))

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)
