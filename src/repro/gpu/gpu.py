"""The simulated GPU: SMs + hardware dispatcher + memories.

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

from ..errors import SchedulingError
from ..obs.recorder import NULL_OBS, Observability, register_device
from .device import GPUDeviceSpec, tesla_k40
from .grid import Grid, GridState
from .kernel import KernelImage, LaunchConfig, TaskPool
from .memory import DeviceMemory, PinnedFlag
from .sim import Simulator
from .sm import SM, SMBank
from .trace import ScheduleHash


class SimulatedGPU:
    """Device facade: owns the SMs, device memory and the grid FIFO."""

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
        self.memory = DeviceMemory(self.spec.device_memory_bytes)
        self.rng = random.Random(seed) if seed is not None else None
        self._queue: List[Grid] = []
        self._dispatching = False
        self._dispatch_again = False
        self.launch_count = 0
        self.completed_grids: List[Grid] = []
        #: optional Timeline recorder (repro.gpu.trace); a window opened
        #: with ``timelines=True`` attaches one (golden-trace tests)
        self.tracer = None
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
        self._dispatch()

    def _pick_sm(self, grid: Grid) -> Optional[SM]:
        """Choose the SM with the most free CTA slots (ties: lowest id).

        This spreads persistent CTAs across all SMs — required for
        FLEP's launch-geometry guarantee — and naturally lands a
        preempting kernel on the SMs spatial preemption just freed.

        The CTA footprint was resolved once at grid construction, so
        the scan is pure integer compares over the bank's flat arrays —
        no SM objects touched until one wins.
        """
        threads, warps, regs, smem = grid._footprint
        bank = self.bank
        free_l = bank.free
        th_l, wp_l, rg_l, sh_l = bank.threads, bank.warps, bank.regs, bank.smem
        max_th = bank.max_threads - threads
        max_wp = bank.max_warps - warps
        max_rg = bank.max_regs - regs
        max_sh = bank.max_smem - smem
        max_ctas = bank.max_ctas
        best = -1
        best_free = 0
        for i in range(bank.n):
            free = free_l[i]
            if free <= best_free:
                # cannot beat the current best (or has no free slot)
                continue
            if (
                th_l[i] <= max_th
                and wp_l[i] <= max_wp
                and rg_l[i] <= max_rg
                and sh_l[i] <= max_sh
            ):
                best = i
                best_free = free
                if free == max_ctas:
                    # an empty SM cannot be beaten (ties keep lowest id)
                    break
        return None if best < 0 else self.sms[best]

    def _dispatch(self) -> None:
        if self._dispatching:
            self._dispatch_again = True
            return
        self._dispatching = True
        try:
            progressed = True
            queue = self._queue
            while progressed:
                progressed = False
                self._dispatch_again = False
                # walk the FIFO in place (it can be hundreds of grids
                # deep under load, and the head usually blocks at once —
                # snapshotting it per dispatch would dominate retires)
                i = 0
                while i < len(queue):
                    grid = queue[i]
                    if grid._terminal:
                        del queue[i]
                        continue
                    fp = grid._footprint
                    while grid.wants_dispatch():
                        sm = self._pick_sm(grid)
                        if sm is None:
                            break
                        ctx = grid.place_context(sm)
                        sm.admit_fp(ctx, *fp)
                        if self.tracer is not None:
                            self.tracer.context_placed(ctx, grid)
                        ctx.start()
                        progressed = True
                        if grid._terminal:
                            break
                    if grid.blocks_queue:
                        # head-of-line blocking: later grids must wait
                        break
                    # a placement may have re-entered _dispatch and
                    # mutated the queue; never walk past its new length
                    i += 1
                if self._dispatch_again:
                    progressed = True
        finally:
            self._dispatching = False

    # -- grid callbacks --------------------------------------------------
    def on_context_released(self, ctx=None) -> None:
        if ctx is not None:
            now = self.sim.now
            self.sched.fold(
                ctx.grid.kernel.name, ctx.sm.sm_id, ctx.started_at, now
            )
            if self.tracer is not None:
                self.tracer.context_retired(ctx, now)
        self._dispatch()

    def on_grid_terminal(self, grid: Grid) -> None:
        if grid in self._queue:
            self._queue.remove(grid)
            if self._obs.enabled:
                self._obs.hw_queue_depth(len(self._queue))
        if grid.state is GridState.COMPLETE:
            self.completed_grids.append(grid)
        self._dispatch()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        busy = sum(0 if sm.idle else 1 for sm in self.sms)
        return (
            f"SimulatedGPU({self.spec.name}, queue={len(self._queue)}, "
            f"busy_sms={busy}/{self.spec.num_sms})"
        )
