"""The FLEP online runtime engine (§5).

The engine intercepts every kernel invocation (the transformed CPU code
of Figure 5 sends the kernel's name, priority and model features here
instead of launching), predicts its duration, tracks its
``(T_e, T_w, T_r)`` triplet, and drives preemption/scheduling through a
pluggable policy (HPF or FFS, :mod:`repro.core.policies`).

The engine owns the mechanics — launching FLEP grids, writing the
pinned flags, resuming preempted kernels, topping victims back up after
spatial guests finish — while the policy owns the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import RuntimeEngineError
from ..gpu.device import GPUDeviceSpec
from ..gpu.gpu import SimulatedGPU
from ..gpu.grid import Grid
from ..gpu.kernel import LaunchConfig, TaskPool
from ..gpu.memory import PinnedFlag
from ..gpu.occupancy import active_slots, sms_needed
from ..gpu.sim import Simulator
from ..obs.recorder import NULL_OBS, Observability
from ..workloads.benchmarks import BenchmarkSuite
from ..workloads.specs import InputSpec, KernelSpec
from .models import model_bank
from .profiler import OverheadEstimates
from .tracker import ExecutionRecord, InvocationState


@dataclass
class RuntimeConfig:
    """Knobs of the online engine."""

    spatial_enabled: bool = True
    #: Force a yield width for spatial preemption (Figure 16's sweep);
    #: None means "just enough SMs" (the paper's default).
    spatial_force_sms: Optional[int] = None
    #: Use the oracle predictor instead of the trained ridge models.
    oracle_model: bool = False
    model_seed: int = 0
    #: Enable per-CTA duration jitter inside co-run simulations.
    with_jitter: bool = False


class KernelInvocation:
    """One intercepted kernel invocation and its GPU-side state."""

    _next_id = 1

    def __init__(
        self,
        engine: "FlepRuntime",
        process: str,
        kspec: KernelSpec,
        inp: InputSpec,
        priority: int,
        predicted_us: float,
        tenant: str = "default",
        deadline_us: Optional[float] = None,
    ):
        self.inv_id = KernelInvocation._next_id
        KernelInvocation._next_id += 1
        self.engine = engine
        self.process = process
        self.kspec = kspec
        self.inp = inp
        self.priority = priority
        self.tenant = tenant
        #: Absolute completion deadline (simulation µs); None = best-effort.
        self.deadline_us = deadline_us
        self.record = ExecutionRecord(
            predicted_us=predicted_us, arrived_at=engine.sim.now
        )
        amortize = engine.suite.amortize_l(kspec.name)
        self.image = kspec.flep_image(
            inp, amortize, spatial=True,
            with_jitter=engine.config.with_jitter,
        )
        self.pool = TaskPool(inp.tasks)
        self.flag: PinnedFlag = engine.gpu.new_flag()
        self.grids: List[Grid] = []
        self.solo_us: Optional[float] = None  # filled by the harness
        #: SMs currently ceded to a spatial guest (0 = none).
        self.yielded_sms = 0
        self.on_finished: Optional[Callable[["KernelInvocation"], None]] = None

    def guest_image(self, width_sms: int, grid_ctas: int):
        """Kernel image adjusted for running as a spatial guest packed
        onto ``width_sms`` SMs: sparser packing lowers intra-SM
        contention, so tasks run faster than the full-occupancy
        calibration (Figure 16's effect)."""
        from ..gpu.occupancy import max_ctas_per_sm as _mc

        full = _mc(self.engine.device, self.kspec.resources)
        packing = max(1, min(full, -(-grid_ctas // max(1, width_sms))))
        factor = self.kspec.contention_factor(packing, full)
        amortize = self.engine.suite.amortize_l(self.kspec.name)
        return self.kspec.flep_image(
            self.inp,
            amortize,
            spatial=True,
            with_jitter=self.engine.config.with_jitter,
            packing_factor=factor,
        )

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.record.state is InvocationState.FINISHED

    @property
    def sms_required(self) -> int:
        """SMs needed to host every CTA this invocation can activate —
        what spatial preemption yields for it (§6.4)."""
        slots = active_slots(self.engine.device, self.kspec.resources)
        ctas = min(self.inp.tasks, slots)
        return sms_needed(self.engine.device, self.kspec.resources, ctas)

    @property
    def active_contexts(self) -> int:
        return sum(len(g.contexts) for g in self.grids if not g.is_terminal)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Inv#{self.inv_id}({self.kspec.name}[{self.inp.name}]@"
            f"{self.process}, prio={self.priority}, "
            f"{self.record.state.value})"
        )


class FlepRuntime:
    """The online engine: interception, tracking, preemption mechanics."""

    def __init__(
        self,
        sim: Simulator,
        gpu: SimulatedGPU,
        suite: BenchmarkSuite,
        policy,
        config: Optional[RuntimeConfig] = None,
        obs: Optional[Observability] = None,
    ):
        self.sim = sim
        self.gpu = gpu
        self.obs = obs if obs is not None else NULL_OBS
        self.device: GPUDeviceSpec = gpu.spec
        self.suite = suite
        self.config = config or RuntimeConfig()
        self.models = model_bank(
            suite, self.device, self.config.oracle_model,
            seed=self.config.model_seed,
        )
        self.overheads = OverheadEstimates(suite, self.device)
        self.policy = policy
        self.running: Optional[KernelInvocation] = None
        self.guests: List[KernelInvocation] = []
        self.invocations: List[KernelInvocation] = []
        #: unfinished invocations by id, insertion-ordered — the set
        #: ``_refresh_all`` walks. Keeping it separate from
        #: ``invocations`` makes the per-event refresh O(live) instead of
        #: O(ever-submitted), which is what lets serving-scale runs
        #: (tens of thousands of requests) stay linear.
        self._live: Dict[int, KernelInvocation] = {}
        policy.attach(self)

    # ------------------------------------------------------------------
    # interception (the transformed CPU code calls this instead of a
    # real launch; Figure 5's S1 -> S2 edge)
    # ------------------------------------------------------------------
    def submit(
        self,
        process: str,
        kernel: str,
        input_name: str = "large",
        priority: int = 0,
        inp: Optional[InputSpec] = None,
        on_finished: Optional[Callable[[KernelInvocation], None]] = None,
        tenant: str = "default",
        deadline_us: Optional[float] = None,
    ) -> KernelInvocation:
        """Intercept one kernel invocation and hand it to the policy.

        ``tenant`` names the submitting client of the serving layer;
        ``deadline_us`` is an absolute completion deadline that
        deadline-aware policies (EDF) use to order same-priority work.
        """
        kspec = self.suite[kernel]
        inp = inp if inp is not None else kspec.input(input_name)
        predicted = self.models.predict(kernel, inp)
        inv = KernelInvocation(
            self, process, kspec, inp, priority, predicted,
            tenant=tenant, deadline_us=deadline_us,
        )
        inv.on_finished = on_finished
        self.invocations.append(inv)
        self._live[inv.inv_id] = inv
        self._refresh_all()
        if self.obs.enabled:
            self.obs.inv_arrived(inv)
        self.policy.on_kernel_arrival(inv)
        if self.obs.enabled:
            self.obs.queue_depth(self.policy.name, self.policy.waiting_count())
        return inv

    # ------------------------------------------------------------------
    # mechanics the policy drives
    # ------------------------------------------------------------------
    def schedule_to_gpu(self, inv: KernelInvocation) -> None:
        """Launch (or resume) an invocation's FLEP kernel (S2 -> S3)."""
        if inv.finished:
            raise RuntimeEngineError(f"{inv} already finished")
        if self.running is inv or inv in self.guests:
            raise RuntimeEngineError(f"{inv} is already on the GPU")
        inv.flag.clear()
        inv.yielded_sms = 0
        grid_ctas = self._full_grid_ctas(inv)
        if self.obs.enabled:
            self.obs.inv_scheduled(
                inv, resumed=bool(inv.record.preemptions), ctas=grid_ctas
            )
        if self.running is None:
            self.running = inv
            self._launch_grid(inv, grid_ctas)
        else:
            # a spatial guest sharing the GPU with the running victim:
            # it runs on the SMs the victim just yielded, at a sparser
            # packing than full occupancy
            self.guests.append(inv)
            width = self.spatial_width_for(inv)
            image = inv.guest_image(width, grid_ctas)
            self._launch_grid(inv, grid_ctas, image=image)
        inv.record.mark_running(self.sim.now)

    def preempt(
        self, inv: KernelInvocation, yield_sms: Optional[int] = None
    ) -> None:
        """Ask ``inv``'s host to set its preemption flag.

        ``yield_sms`` < num_SMs requests spatial preemption; ``None`` or
        >= num_SMs yields the whole GPU (temporal).
        """
        if inv is not self.running:
            raise RuntimeEngineError(f"{inv} is not the running kernel")
        num_sms = self.device.num_sms
        value = num_sms if yield_sms is None else min(yield_sms, num_sms)
        if value <= 0:
            raise RuntimeEngineError("must yield at least one SM")
        if value >= num_sms:
            if self.obs.enabled:
                self.obs.inv_preempt_requested(inv, "temporal", value)
            # Update the engine's view *before* the flag write: a grid
            # with no hosted contexts drains synchronously inside
            # host_write, and the policy's drained-handler must already
            # see the GPU as free.
            inv.record.mark_preempting(self.sim.now)
            self.running = None
            self._promote_guest()
            inv.flag.host_write(value)
        else:
            if self.obs.enabled:
                self.obs.inv_preempt_requested(inv, "spatial", value)
            inv.yielded_sms = value
            inv.flag.host_write(value)
            # spatially preempted: stays RUNNING on the remaining SMs

    def spatial_width_for(self, inv: KernelInvocation) -> int:
        """How many SMs to yield to host ``inv`` as a spatial guest."""
        if self.config.spatial_force_sms is not None:
            return min(self.config.spatial_force_sms, self.device.num_sms)
        return inv.sms_required

    def preemption_overhead_us(self, inv: KernelInvocation) -> float:
        return self.overheads.overhead_us(inv.kspec.name)

    def after(self, delay_us: float, fn: Callable[[], None]) -> None:
        """Timer utility for policies (FFS epochs)."""
        self.sim.schedule(delay_us, fn, label="policy-timer")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _full_grid_ctas(self, inv: KernelInvocation) -> int:
        slots = active_slots(self.device, inv.kspec.resources)
        return min(inv.pool.unfinished, slots)

    def _launch_grid(
        self, inv: KernelInvocation, grid_ctas: int, image=None
    ) -> None:
        if grid_ctas <= 0:
            raise RuntimeEngineError(f"{inv}: launching an empty grid")
        config = LaunchConfig(
            total_tasks=max(inv.pool.total, grid_ctas), grid_ctas=grid_ctas
        )
        grid = self.gpu.launch(
            image if image is not None else inv.image,
            config,
            pool=inv.pool,
            flag=inv.flag,
            tag={"process": inv.process, "inv": inv.inv_id},
            on_complete=lambda g, inv=inv: self._on_grid_complete(inv, g),
            on_preempted=lambda g, inv=inv: self._on_grid_preempted(inv, g),
        )
        inv.grids.append(grid)

    def _on_grid_complete(self, inv: KernelInvocation, grid: Grid) -> None:
        if not inv.pool.complete or inv.finished:
            return
        self._refresh_all()
        inv.record.mark_finished(self.sim.now)
        self._live.pop(inv.inv_id, None)
        if self.obs.enabled:
            self.obs.inv_finished(inv)
        if self.running is inv:
            self.running = None
            self._promote_guest()
        if inv in self.guests:
            self.guests.remove(inv)
            victim = self.running
            if victim is not None and not victim.finished:
                self._top_up(victim)
        # the policy reacts to the completion first (it may start the
        # next kernel); only then does the host process observe S3 -> S1
        # and possibly re-invoke (loop_forever programs)
        self.policy.on_kernel_finished(inv)
        if self.obs.enabled:
            self.obs.queue_depth(self.policy.name, self.policy.waiting_count())
        # fires once; a finished invocation keeps no front-end closure
        on_finished, inv.on_finished = inv.on_finished, None
        if on_finished:
            on_finished(inv)

    def _on_grid_preempted(self, inv: KernelInvocation, grid: Grid) -> None:
        """All CTAs of one grid yielded. The invocation is fully off the
        GPU when no grid of it still has contexts."""
        if inv.finished:
            return
        if inv.active_contexts == 0 and inv.pool.unfinished > 0:
            self._refresh_all()
            if inv.record.state is InvocationState.PREEMPTING:
                inv.record.mark_waiting(self.sim.now)
            if self.obs.enabled:
                self.obs.inv_drained(inv)
            self.policy.on_preemption_drained(inv)

    def _promote_guest(self) -> None:
        """If the (temporal) victim left and a spatial guest is still on
        the GPU, the guest becomes the running kernel."""
        if self.running is None and self.guests:
            self.running = self.guests.pop(0)

    def _top_up(self, victim: KernelInvocation) -> None:
        """After a spatial guest finishes, clear the victim's flag and
        relaunch workers to refill the freed SMs."""
        victim.flag.clear()
        victim.yielded_sms = 0
        slots = active_slots(self.device, victim.kspec.resources)
        missing = min(
            victim.pool.remaining, slots - victim.active_contexts
        )
        refill = missing > 0 and not victim.pool.exhausted
        if self.obs.enabled:
            self.obs.inv_topped_up(victim, ctas=missing if refill else 0)
        if refill:
            self._launch_grid(victim, missing)

    def _refresh_all(self) -> None:
        now = self.sim.now
        for inv in self._live.values():
            inv.record.refresh(now)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def all_finished(self) -> bool:
        return all(inv.finished for inv in self.invocations)
