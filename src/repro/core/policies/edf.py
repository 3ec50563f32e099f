"""Earliest-deadline-first within priority levels (the serving layer's
policy).

Across priorities this is HPF — a higher-priority arrival always
preempts the running lower-priority kernel, spatially when the arrival
cannot fill the GPU — but *within* a priority level, deadline urgency
(the absolute ``deadline_us`` the serving layer stamps on each
invocation from the tenant's SLO) decides who runs, not arrival order or
remaining time. Invocations without a deadline sort last and fall back
to FIFO among themselves, so batch work never starves a deadline just by
arriving first.

A same-priority preemption is only issued when it can pay off: the
candidate's deadline must be strictly earlier than the running
kernel's, and the running kernel must have more remaining work than the
preemption overhead — otherwise letting it drain naturally is cheaper.
"""

from __future__ import annotations

import math
from typing import Tuple

from .hpf import HPFPolicy


def deadline_key(inv) -> Tuple[float, float]:
    """Sort key: absolute deadline first (None = +inf, i.e. best-effort
    work yields to every deadline), arrival time as the tie-break."""
    deadline = inv.deadline_us if inv.deadline_us is not None else math.inf
    return (deadline, inv.record.arrived_at)


class EDFPolicy(HPFPolicy):
    """HPF across priorities, earliest-deadline-first within one."""

    name = "edf"
    order_key = staticmethod(deadline_key)

    def pays_to_preempt(self, kr, ks) -> bool:
        return (
            deadline_key(ks) < deadline_key(kr)
            and kr.record.remaining_us > self.rt.preemption_overhead_us(kr)
        )
