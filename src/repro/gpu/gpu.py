"""The simulated GPU: SMs + hardware dispatcher.

The dispatcher reproduces the non-preemptive hardware semantics of §2.1:
grids enter a device-wide FIFO; the head grid's CTAs are dispatched to
SMs as resources free, and **later grids are blocked while the head grid
still has undispatched CTAs**. Once a grid is fully dispatched (e.g. a
small grid, or a FLEP persistent launch), the next grid's CTAs may fill
whatever SM slots remain — that is exactly the MPS leftover-resource
sharing the paper describes.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..obs.recorder import NULL_OBS, Observability, register_device
from .device import GPUDeviceSpec, tesla_k40
from .grid import Grid
from .kernel import KernelImage, LaunchConfig, TaskPool
from .memory import PinnedFlag
from .sim import Simulator
from .sm import SM, SMBank
from .trace import ScheduleHash


class SimulatedGPU:
    """Device facade: owns the SMs and the grid FIFO."""

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[GPUDeviceSpec] = None,
        seed: Optional[int] = None,
    ):
        self.sim = sim
        self.spec = spec if spec is not None else tesla_k40()
        #: flat array-of-int occupancy, one entry per SM — what the
        #: admission scan walks (repro.gpu.sm.SMBank)
        self.bank = SMBank(self.spec, self.spec.num_sms)
        self.sms: List[SM] = [
            SM(i, self.spec, self.bank) for i in range(self.spec.num_sms)
        ]
        self.rng = random.Random(seed) if seed is not None else None
        self._queue: List[Grid] = []
        self._dispatching = False
        self._dispatch_again = False
        self.launch_count = 0
        #: Timelines (repro.gpu.trace) and device monitors: each gets
        #: context_placed(ctx, grid), context_retired(ctx, now), and
        #: grid_launched/grid_terminal(grid) as a grid enters and leaves
        #: the hardware queue (a terminal precedes its last retire)
        self.listeners: list = []
        #: always-on O(1)-memory schedule digest (identity contract)
        self.sched = ScheduleHash()
        self._obs: Observability = NULL_OBS
        self._prof = NULL_OBS
        register_device(self)

    @property
    def obs(self) -> Observability:
        """Observability hub; assigning one also makes it :attr:`prof`."""
        return self._obs

    @obs.setter
    def obs(self, hub: Observability) -> None:
        self._obs = hub
        self.prof = hub

    @property
    def prof(self):
        """Where the device's hot counting hooks go — ``on_batch``,
        ``on_macro_collapse``, ``on_sm_admit`` and ``on_sm_release``,
        called by SMs, CTA contexts and macro cohorts behind one
        ``enabled`` guard. The hub by default; any object with those
        four methods and an ``enabled`` flag can count them alone.
        Assigning one propagates to the SMs; contexts and cohorts read it
        when they are created."""
        return self._prof

    @prof.setter
    def prof(self, sink) -> None:
        self._prof = sink
        for sm in self.sms:
            sm.obs = sink

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def new_flag(self) -> PinnedFlag:
        """Allocate a preemption flag in pinned host memory."""
        return PinnedFlag(self.sim, self.spec.costs.preempt_signal_us)

    def launch(
        self,
        kernel: KernelImage,
        config: LaunchConfig,
        pool: Optional[TaskPool] = None,
        flag: Optional[PinnedFlag] = None,
        tag: Optional[dict] = None,
        on_complete: Optional[Callable[[Grid], None]] = None,
        on_preempted: Optional[Callable[[Grid], None]] = None,
        launch_overhead_us: Optional[float] = None,
    ) -> Grid:
        """Send a kernel-launch command; the grid reaches the hardware
        queue after the driver's launch overhead.

        ``launch_overhead_us`` overrides the default synchronous launch
        cost — kernel slicing uses the (much smaller) pipelined dispatch
        gap for back-to-back slices.
        """
        grid = Grid(
            self.sim,
            self.spec,
            kernel,
            config,
            pool=pool,
            flag=flag,
            rng=self.rng,
            tag=tag,
            on_complete=on_complete,
            on_preempted=on_preempted,
        )
        grid.device = self
        self.launch_count += 1
        if self._obs.enabled:
            self._obs.kernel_launched(kernel.name)
        overhead = (
            self.spec.costs.kernel_launch_us
            if launch_overhead_us is None
            else launch_overhead_us
        )
        self.sim.schedule(
            overhead,
            lambda: self._enqueue(grid),
            label=f"launch:{kernel.name}",
        )
        return grid

    def halt(self) -> None:
        """The device stops at the current time (a crashed fleet node):
        commit what every macro cohort replayed up to now, so its
        counters hold exactly the batches the reference loop ran."""
        now = self.sim._now
        for grid in self._queue:
            cohort = grid._macro
            if cohort is not None:
                cohort.sync(now)

    def free_cta_slots(self) -> int:
        return sum(sm.free_cta_slots() for sm in self.sms)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _enqueue(self, grid: Grid) -> None:
        if grid.is_terminal:
            return
        self._queue.append(grid)
        if self._obs.enabled:
            self._obs.hw_queue_depth(len(self._queue))
        if self.listeners:
            for listener in self.listeners:
                listener.grid_launched(grid)
        self._dispatch()

    def _pick_order(self, grid: Grid, n: int) -> List[SM]:
        """The SMs that host ``grid``'s next ``n`` CTAs (fewer if they
        do not fit), in placement order.

        Each CTA goes to the SM with the most free CTA slots that can
        host it (ties: lowest id). This spreads persistent CTAs across
        all SMs — required for FLEP's launch-geometry guarantee — and
        naturally lands a preempting kernel on the SMs spatial
        preemption just freed.

        Nothing but these admissions changes the bank during a
        placement pass, so the whole order is known up front: SM ``i``
        can take ``cap`` more CTAs (its free slots, or fewer if a
        resource runs out first), at free-slot levels ``free``,
        ``free - 1``, ... ``free - cap + 1``, and one CTA after another
        the choice is always the highest level left, lowest id first —
        the ``(-level, id)`` sort of all those entries, each packed
        into one int (``-level * n + id``). The CTA footprint was
        resolved once at grid construction, so this is integer
        arithmetic over the bank's flat arrays.
        """
        threads, warps, regs, smem = grid._footprint
        bank = self.bank
        th_l, wp_l, rg_l, sh_l = bank.threads, bank.warps, bank.regs, bank.smem
        max_th, max_wp = bank.max_threads, bank.max_warps
        max_rg, max_sh = bank.max_regs, bank.max_smem
        n_sms = bank.n
        keys = []
        for i, free in enumerate(bank.free):
            if free <= 0:
                continue
            # threads and warps are >= 1 per CTA; regs and smem may be 0
            cap = (max_th - th_l[i]) // threads
            c = (max_wp - wp_l[i]) // warps
            if c < cap:
                cap = c
            if regs:
                c = (max_rg - rg_l[i]) // regs
                if c < cap:
                    cap = c
            if smem:
                c = (max_sh - sh_l[i]) // smem
                if c < cap:
                    cap = c
            if cap > free:
                cap = free
            if cap > 0:
                keys.extend(
                    range(-free * n_sms + i, (cap - free) * n_sms + i, n_sms)
                )
        keys.sort()
        sms = self.sms
        return [sms[k % n_sms] for k in keys[:n]]

    def _place(self, grid: Grid) -> None:
        """Place as many of ``grid``'s CTAs as fit now, in one pass.

        One :meth:`_pick_order` call chooses the SMs; each CTA is
        admitted there and starts at once, claiming its first batch. The
        pass is bracketed by :meth:`Grid.begin_pass` and
        :meth:`Grid.end_pass`, which defer the first claims' events and
        then hand them to a macro cohort or push them (DESIGN.md §4)."""
        if not grid.wants_dispatch():
            return
        sms = self._pick_order(grid, grid.unplaced_contexts)
        if not sms:
            return
        fp = grid._footprint
        listeners = self.listeners
        grid.begin_pass()
        for sm in sms:
            ctx = grid.place_context(sm)
            sm.admit_fp(ctx, *fp)
            if listeners:
                for listener in listeners:
                    listener.context_placed(ctx, grid)
            ctx.start()
            # each claim shrinks the pool, which may cap the CTAs left
            if grid._terminal or grid.unplaced_contexts <= 0:
                break
        grid.end_pass()

    def _dispatch(self) -> None:
        if self._dispatching:
            self._dispatch_again = True
            return
        self._dispatching = True
        try:
            queue = self._queue
            # A placement pass frees nothing, so the scan repeats only
            # if a retire re-entered _dispatch meanwhile.
            again = True
            while again:
                self._dispatch_again = False
                # walk the FIFO in place (it can be hundreds of grids
                # deep under load, and the head usually blocks at once —
                # snapshotting it per dispatch would dominate retires)
                i = 0
                while i < len(queue):
                    grid = queue[i]
                    # most queued grids are fully placed: one read each
                    if grid.unplaced_contexts:
                        self._place(grid)
                        if grid.blocks_queue:
                            # head-of-line blocking: later grids wait
                            break
                    # a placement may have re-entered _dispatch and
                    # mutated the queue; never walk past its new length
                    i += 1
                again = self._dispatch_again
        finally:
            self._dispatching = False

    # -- grid callbacks --------------------------------------------------
    def on_context_released(self, ctx=None) -> None:
        if ctx is not None:
            now = self.sim.now
            self.sched.fold(
                ctx.grid.kernel.name, ctx.sm.sm_id, ctx.started_at, now
            )
            if self.listeners:
                for listener in self.listeners:
                    listener.context_retired(ctx, now)
        self._dispatch()

    def on_grid_terminal(self, grid: Grid) -> None:
        if grid in self._queue:
            self._queue.remove(grid)
            if self._obs.enabled:
                self._obs.hw_queue_depth(len(self._queue))
            if self.listeners:
                for listener in self.listeners:
                    listener.grid_terminal(grid)
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        busy = sum(0 if sm.idle else 1 for sm in self.sms)
        return (
            f"SimulatedGPU({self.spec.name}, queue={len(self._queue)}, "
            f"busy_sms={busy}/{self.spec.num_sms})"
        )
