"""SLO-aware admission control.

The controller answers one question per arriving request: given the
runtime's per-kernel duration prediction and the backlog of work already
admitted ahead of this request, can it still finish inside its tenant's
SLO budget?

* predicted finish ``now + backlog + predicted`` within ``now + slo``
  → **accept**;
* overshoot, but by no more than ``delay_headroom × slo``
  → **delay**: the request is still served (degraded), held back by the
  overshoot so it does not pile onto the queue it cannot beat;
* overshoot beyond the headroom → **shed**: rejecting now is cheaper
  for everyone than serving a guaranteed-late answer (Hummingbird's
  load-shedding argument).

Best-effort tenants (no SLO) are always accepted. Tenant rate limits
(:class:`TokenBucket`) are not the controller's: the front door
(:class:`~repro.serving.server.TraceIntake`) clips a request before it
reaches admission, in every mode, and reports the drop as
``rate_limited`` so rate-limit drops and overload drops stay
distinguishable in the SLO report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from ..errors import ServingError
from .tenants import Tenant


class Decision(enum.Enum):
    """What the admission controller does with one arriving request."""

    ACCEPT = "accept"
    DELAY = "delay"
    SHED = "shed"


@dataclass(frozen=True)
class Verdict:
    """One admission decision, with the numbers that produced it."""

    decision: Decision
    reason: str
    #: How long a DELAYed request is held before submission (µs).
    hold_us: float = 0.0
    #: Predicted absolute completion time used for the decision (µs).
    predicted_finish_us: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision is not Decision.SHED


class TokenBucket:
    """Deterministic token bucket on the simulation clock."""

    def __init__(self, rate_rps: float, burst: int):
        if rate_rps <= 0 or burst < 1:
            raise ServingError("token bucket needs rate > 0 and burst >= 1")
        self.rate_rps = rate_rps
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_us = 0.0

    def try_take(self, now_us: float) -> bool:
        elapsed_us = max(0.0, now_us - self._last_us)
        self._last_us = now_us
        self.tokens = min(
            self.burst, self.tokens + elapsed_us * self.rate_rps / 1e6
        )
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class AdmissionController:
    """Accept / delay / shed against each tenant's SLO budget."""

    def __init__(self, delay_headroom: float = 0.5):
        if delay_headroom < 0:
            raise ServingError("delay_headroom must be non-negative")
        self.delay_headroom = delay_headroom

    # ------------------------------------------------------------------
    def decide(
        self,
        tenant: Tenant,
        now_us: float,
        predicted_us: float,
        backlog_us: float,
    ) -> Verdict:
        """Decide one request given the current predicted backlog.

        ``backlog_us`` is the predicted execution time of every admitted,
        unfinished request that will be served at or above this tenant's
        priority (under MPS: everything — nothing jumps the FIFO).
        """
        if predicted_us < 0 or backlog_us < 0:
            raise ServingError("predictions and backlog must be >= 0")
        finish = now_us + backlog_us + predicted_us
        if tenant.slo_us is None:
            return Verdict(
                Decision.ACCEPT, "best_effort", predicted_finish_us=finish
            )
        budget_end = now_us + tenant.slo_us
        if finish <= budget_end:
            return Verdict(
                Decision.ACCEPT, "within_slo", predicted_finish_us=finish
            )
        overshoot = finish - budget_end
        if overshoot <= self.delay_headroom * tenant.slo_us:
            return Verdict(
                Decision.DELAY,
                "slo_overshoot",
                hold_us=overshoot,
                predicted_finish_us=finish,
            )
        return Verdict(
            Decision.SHED, "predicted_slo_miss", predicted_finish_us=finish
        )


class BacklogLedger:
    """Admitted-but-unfinished predicted work (µs) per priority.

    Under FLEP a request at priority *p* waits only for work at priority
    ≥ *p* (lower-priority work gets preempted); under ``"mps"``
    everything queues FIFO, so the whole backlog counts. Requests are
    anything with ``tenant.priority`` and ``predicted_us``.
    """

    def __init__(self, mode: str):
        self.fifo = mode == "mps"
        self._us: Dict[int, float] = {}

    def add(self, req) -> None:
        p = req.tenant.priority
        self._us[p] = self._us.get(p, 0.0) + req.predicted_us

    def sub(self, req) -> None:
        p = req.tenant.priority
        self._us[p] = max(0.0, self._us.get(p, 0.0) - req.predicted_us)

    def clear(self) -> None:
        self._us.clear()

    def total(self) -> float:
        return sum(self._us.values())

    def ahead_of(self, priority: int) -> float:
        """The backlog a request at ``priority`` waits behind."""
        if self.fifo:
            return self.total()
        return sum(us for p, us in self._us.items() if p >= priority)
