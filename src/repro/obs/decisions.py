"""Scheduler decision log entries.

An observed :class:`~repro.obs.recorder.Observability` hub appends one
:class:`DecisionEvent` per runtime decision — arrival, launch/resume,
preemption request (temporal or spatial), drain completion, top-up,
completion — to ``hub.decisions``. ``flep trace`` prints them with
:func:`format_decisions`, the runtime-side analogue of the GPU timeline
tracer. Unobserved runs record nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


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


def format_decisions(events: Iterable[DecisionEvent]) -> str:
    """Render a decision log, one line per event."""
    return "\n".join(str(e) for e in events)
