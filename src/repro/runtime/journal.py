"""Scheduler decision journal.

The runtime appends one entry per decision-relevant event — arrival,
launch/resume, preemption request (temporal or spatial), drain
completion, top-up, completion. Tests assert on the sequence; users get
``format_journal`` for a readable trace of what the scheduler did and
when (the runtime-side analogue of the GPU timeline tracer).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional


class DecisionKind(enum.Enum):
    """What kind of scheduler decision an event records."""

    ARRIVAL = "arrival"            # intercepted invocation (S1 -> S2)
    LAUNCH = "launch"              # scheduled to the GPU (S2 -> S3)
    RESUME = "resume"              # re-scheduled after a preemption
    PREEMPT_TEMPORAL = "preempt_temporal"
    PREEMPT_SPATIAL = "preempt_spatial"
    DRAINED = "drained"            # fully off the GPU
    TOP_UP = "top_up"              # victim refilled after a guest left
    COMPLETE = "complete"


@dataclass(frozen=True)
class DecisionEvent:
    at_us: float
    kind: DecisionKind
    inv_id: int
    process: str
    kernel: str
    detail: str = ""

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"[{self.at_us:12.2f}us] {self.kind.value:17s} "
            f"#{self.inv_id} {self.kernel}@{self.process}{extra}"
        )


class DecisionJournal:
    """Append-only log of scheduler decisions."""

    def __init__(self):
        self.events: List[DecisionEvent] = []

    def record(
        self,
        at_us: float,
        kind: DecisionKind,
        inv,
        detail: str = "",
    ) -> None:
        self.events.append(
            DecisionEvent(
                at_us=at_us,
                kind=kind,
                inv_id=inv.inv_id,
                process=inv.process,
                kernel=inv.kspec.name,
                detail=detail,
            )
        )

    # -- queries ---------------------------------------------------------
    def of_kind(self, kind: DecisionKind) -> List[DecisionEvent]:
        return [e for e in self.events if e.kind is kind]

    def count(self, kind: DecisionKind) -> int:
        return len(self.of_kind(kind))

    def preemptions(self) -> List[DecisionEvent]:
        return [
            e
            for e in self.events
            if e.kind
            in (DecisionKind.PREEMPT_TEMPORAL, DecisionKind.PREEMPT_SPATIAL)
        ]

    def format(
        self,
        predicate: Optional[Callable[[DecisionEvent], bool]] = None,
        kind: Optional[DecisionKind] = None,
        process: Optional[str] = None,
    ) -> str:
        """Render the journal, optionally filtered.

        ``kind`` keeps only events of that :class:`DecisionKind`;
        ``process`` keeps only events of that process. Both compose with
        each other and with an arbitrary ``predicate`` (logical AND).
        """
        events: Iterable[DecisionEvent] = self.events
        if kind is not None:
            events = (e for e in events if e.kind is kind)
        if process is not None:
            events = (e for e in events if e.process == process)
        if predicate is not None:
            events = filter(predicate, events)
        return "\n".join(str(e) for e in events)

    def __len__(self) -> int:
        return len(self.events)


def format_journal(
    journal: DecisionJournal,
    kind: Optional[DecisionKind] = None,
    process: Optional[str] = None,
) -> str:
    """Module-level convenience wrapper around :meth:`DecisionJournal.format`."""
    return journal.format(kind=kind, process=process)
