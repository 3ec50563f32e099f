"""Highest-priority-first scheduling with performance-degradation
minimization (§5.2.1, Figure 6).

* Across priorities: a higher-priority arrival always preempts the
  running lower-priority kernel. If the arrival cannot fill the GPU,
  the victim is preempted *spatially* — it yields just enough SMs.
* Within a priority level: shortest-remaining-time (SRT) order, which is
  2-competitive for average stretch (Muthukrishnan et al.). The running
  kernel is preempted only if its remaining time exceeds the candidate's
  remaining time plus the preemption overhead.

Subclasses (EDF) replace only the within-priority order,
:meth:`HPFPolicy.order_key`, and the same-priority preemption test,
:meth:`HPFPolicy.pays_to_preempt`.
"""

from __future__ import annotations

from ...runtime.queues import PriorityQueues
from .base import SchedulingPolicy


class HPFPolicy(SchedulingPolicy):
    """Figure 6's online algorithm."""

    name = "hpf"

    def __init__(self):
        super().__init__()
        self.queues = PriorityQueues(self.order_key)

    @staticmethod
    def order_key(inv):
        """Within-priority order: shortest predicted remaining time."""
        return inv.record.remaining_us

    def pays_to_preempt(self, kr, ks) -> bool:
        """Same priority: preempt running ``kr`` for waiting ``ks`` only
        if it pays off net of overhead (Figure 6, line 30)."""
        overhead = self.rt.preemption_overhead_us(kr)
        return kr.record.remaining_us > ks.record.remaining_us + overhead

    # ------------------------------------------------------------------
    # event handlers (Figure 6, lines 0-20)
    # ------------------------------------------------------------------
    def on_kernel_arrival(self, kn) -> None:
        kr = self.rt.running
        if kr is not None and kr.priority < kn.priority:
            self._preempt_for(kr, kn)
            return
        self.queues.enqueue(kn)
        if kr is None or kr.priority == kn.priority:
            self.schedule_for_queue(kn.priority)

    def on_kernel_finished(self, inv) -> None:
        if inv in self.queues:
            # a temporally-preempted victim whose yield boundary lands on
            # its last task completes *during* the drain, while it still
            # sits in the wait queue — it must not be re-dispatched
            self.queues.remove(inv)
        hp = self.queues.highest_nonempty_priority()
        if hp is not None:
            self.schedule_for_queue(hp)

    def waiting_count(self) -> int:
        return len(self.queues)

    # ------------------------------------------------------------------
    # the key scheduling function (Figure 6, lines 22-34)
    # ------------------------------------------------------------------
    def schedule_for_queue(self, priority: int) -> None:
        rt = self.rt
        self.queues.resort()
        ks = self.queues.head(priority)
        if ks is None:
            return
        kr = rt.running
        if kr is None:
            self.queues.remove(ks)
            rt.schedule_to_gpu(ks)
            return
        if kr.priority > priority:
            return  # a higher-priority kernel owns the GPU
        if kr.priority < priority:
            # With three or more priority levels, guest promotion after a
            # completion can hand the GPU to a lower-priority co-runner
            # while higher-priority work waits. Respond exactly as if the
            # waiting head had just arrived: preempt the host for it.
            self.queues.remove(ks)
            self._preempt_for(kr, ks)
            return
        if self.pays_to_preempt(kr, ks):
            rt.preempt(kr)
            self.queues.enqueue(kr)
            self.queues.remove(ks)
            rt.schedule_to_gpu(ks)

    # ------------------------------------------------------------------
    def _preempt_for(self, kr, kn) -> None:
        """A strictly-higher-priority kernel arrived while ``kr`` runs."""
        rt = self.rt
        num_sms = rt.device.num_sms
        width = num_sms
        if rt.config.spatial_enabled:
            width = kr.yielded_sms + rt.spatial_width_for(kn)
        if width < num_sms:
            rt.preempt(kr, width)      # spatial: victim keeps the rest
            rt.schedule_to_gpu(kn)     # guest fills the freed SMs
        else:
            rt.preempt(kr)             # temporal: victim drains fully
            self.queues.enqueue(kr)
            rt.schedule_to_gpu(kn)     # CTAs fill SMs as they free
