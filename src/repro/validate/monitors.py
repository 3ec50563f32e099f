"""Online invariant monitors.

A :class:`MonitorSet` splices a group of :class:`Monitor` s into a
:class:`~repro.gpu.sim.Simulator`'s ``set_trace`` hook (chaining any
trace function already installed) and into each device monitor's
``SimulatedGPU.listeners``. Monitors are **zero-cost when not
installed**: no hot path knows this module exists. Device monitors
check what changed; only the checks that are per event by nature run
before every event, and ``finalize`` re-checks what they cannot see:

================  =====================================================
Monitor           Invariant (when it is checked)
================  =====================================================
resource-budget   No SM ever exceeds its CTA-slot / thread / warp /
                  register / shared-memory budget; accounting never
                  goes negative. At each placement and retire: the
                  touched SM.
work-conservation Every task pool satisfies
                  ``done + outstanding + remaining == total`` and
                  ``done`` is monotone (a task commits exactly once).
                  Per event: the pools of queued grids, registered at
                  launch; a final check when a pool's last live grid
                  goes terminal. Finalize: every pool ever tracked,
                  then every pool must have drained
                  (``outstanding == 0``).
monotonic-time    Event timestamps never decrease, and never lag the
                  simulated clock.
spatial-partition A persistent CTA resident on SM ``s`` while the
                  device-visible flag demands ``s < spa_P`` must leave
                  within one poll period (``L`` tasks + one pinned
                  read) — the ``%smid`` partition of Figure 4 (c).
                  At each flag write: arm the demanded contexts'
                  deadlines; at each retire: check its deadline.
                  Finalize: overdue CTAs still resident.
hpf-contract      While a lower-priority kernel runs, no
                  higher-priority invocation stays in the wait queues
                  beyond the preemption-latency bound (Figure 6). Per
                  event: the unfinished invocations.
ffs-contract      Over any window in which every active class has
                  continuous backlog, each class's GPU-time share
                  matches its weight share within
                  ``max_overhead`` (+ one-epoch granularity slack).
                  Finalize only.
================  =====================================================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import InvariantViolation, ValidationError
from ..gpu.sim import Simulator
from ..runtime.tracker import InvocationState

__all__ = [
    "Monitor",
    "MonitorSet",
    "ResourceBudgetMonitor",
    "WorkConservationMonitor",
    "MonotonicTimeMonitor",
    "SpatialPartitionMonitor",
    "HPFContractMonitor",
    "FFSShareMonitor",
    "install_monitors",
    "off_by_one_spec",
]


class Monitor:
    """One online invariant. :meth:`on_event` runs before every simulated
    event; a monitor with a ``gpu`` joins that device's ``listeners``
    while installed and checks what each placement, retire, launch and
    terminal changed."""

    name = "abstract"
    #: the device whose listener list the monitor joins, if any
    gpu = None

    def on_event(self, ev) -> None:
        """Called (via the simulator trace hook) just before each event
        fires; inspect the system and raise on violation."""

    def finalize(self, now: float) -> None:
        """End-of-run checks (quiescence, completeness, share errors)."""

    # device listener callbacks (see SimulatedGPU.listeners)
    def context_placed(self, ctx, grid) -> None:
        pass

    def context_retired(self, ctx, now: float) -> None:
        pass

    def grid_launched(self, grid) -> None:
        pass

    def grid_terminal(self, grid) -> None:
        pass

    def attach(self) -> None:
        """Join the device's listener list, replaying the grids already
        queued and their resident contexts as if launched and placed
        now."""
        gpu = self.gpu
        if gpu is None:
            return
        gpu.listeners.append(self)
        for grid in gpu._queue:
            self.grid_launched(grid)
            for ctx in sorted(grid.contexts, key=lambda c: c.ctx_id):
                self.context_placed(ctx, grid)

    def detach(self) -> None:
        """Leave the device's listener list."""
        if self.gpu is not None:
            self.gpu.listeners.remove(self)

    def fail(self, message: str, **context) -> None:
        raise InvariantViolation(message, monitor=self.name, **context)


class MonitorSet:
    """A group of monitors spliced into one simulator's trace hook and
    their devices' listener lists."""

    def __init__(self, sim: Simulator, monitors: List[Monitor]):
        self.sim = sim
        self.monitors = list(monitors)
        self._installed = False
        self._previous: Optional[Callable] = None

    def install(self) -> "MonitorSet":
        """Attach to the simulator, chaining any existing trace hook, and
        to each device monitor's listener list."""
        if self._installed:
            raise ValidationError("monitor set already installed")
        self._previous = self.sim._trace
        previous = self._previous
        monitors = self.monitors

        def run_monitors(ev):
            for m in monitors:
                m.on_event(ev)
            if previous is not None:
                previous(ev)

        self.sim.set_trace(run_monitors)
        for m in self.monitors:
            m.attach()
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            self.sim.set_trace(self._previous)
            for m in self.monitors:
                m.detach()
            self._previous = None
            self._installed = False

    def finalize(self) -> None:
        """Run end-of-run checks. Call after the simulation drains."""
        now = self.sim.now
        for m in self.monitors:
            m.finalize(now)

    def __enter__(self) -> "MonitorSet":
        if not self._installed:
            self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()
        if exc_type is None:
            self.finalize()

    def __iter__(self):
        return iter(self.monitors)


# ---------------------------------------------------------------------------
# device-level monitors
# ---------------------------------------------------------------------------
def off_by_one_spec(spec):
    """A copy of ``spec`` with every per-SM budget reduced by one — the
    canonical *planted violation* for self-testing the monitors: any SM
    packed to a real budget limit trips the tightened one."""
    return replace(
        spec,
        max_ctas_per_sm=spec.max_ctas_per_sm - 1,
        max_threads_per_sm=spec.max_threads_per_sm - 1,
        max_warps_per_sm=spec.max_warps_per_sm - 1,
        registers_per_sm=spec.registers_per_sm - 1,
        shared_mem_per_sm=spec.shared_mem_per_sm - 1,
    )


class ResourceBudgetMonitor(Monitor):
    """Per-SM budgets are never exceeded; accounting never goes negative.

    Only a placement or a retire changes an SM's accounting, so the
    monitor checks the touched SM at each: a violation fails at the
    placement that causes it, naming the SM. ``spec`` defaults to the
    device's own spec; passing a different one (e.g.
    :func:`off_by_one_spec`) plants a violation for self-tests.
    """

    name = "resource-budget"

    def __init__(self, gpu, spec=None):
        self.gpu = gpu
        self.spec = spec if spec is not None else gpu.spec

    def context_placed(self, ctx, grid) -> None:
        self._check(ctx.sm)

    def context_retired(self, ctx, now: float) -> None:
        self._check(ctx.sm)

    def _check(self, sm) -> None:
        spec = self.spec
        bank = sm.bank
        i = sm.sm_id
        used = (bank.threads[i], bank.warps[i], bank.regs[i], bank.smem[i])
        for what, value, budget in (
            ("CTA-slot", len(sm.resident), spec.max_ctas_per_sm),
            ("thread", used[0], spec.max_threads_per_sm),
            ("warp", used[1], spec.max_warps_per_sm),
            ("register", used[2], spec.registers_per_sm),
            ("shared-memory", used[3], spec.shared_mem_per_sm),
        ):
            if value > budget:
                self.fail(
                    f"SM {what} budget exceeded", sm=i,
                    used=value, budget=budget,
                )
        if min(used) < 0:
            self.fail(
                "SM resource accounting went negative", sm=i,
                threads=used[0], warps=used[1], regs=used[2], smem=used[3],
            )


class WorkConservationMonitor(Monitor):
    """Task conservation: a launched task is executed at least once and
    committed exactly once.

    The per-pool check: ``done + outstanding + remaining == total``, all
    components non-negative, and ``done`` monotone non-decreasing
    (re-execution after preemption returns tasks to ``remaining`` — it
    never double-commits).

    Only the CTA contexts of a queued grid mutate a pool (the batch loop
    of :mod:`repro.gpu.cta`, the cohort commits of :mod:`repro.gpu.macro`,
    and the ``TaskPool.take``/``finish``/``give_back`` calls they make).
    So a pool is *live* from its first grid's launch until its last live
    grid goes terminal, when it gets a final check and leaves; a resumed
    grid sharing the pool makes it live again. Per event the check runs
    on the live pools only, so its cost follows the queue, not the
    number of pools ever created, and each check reads the pool once
    (:meth:`TaskPool.counts`). :meth:`finalize` tracks every runtime
    invocation's pool, re-runs the full check on every pool ever
    tracked, which catches a mutation of a retired pool, then demands
    that every pool be quiescent (``outstanding == 0``) and, when
    ``require_complete``, fully committed (``done == total``).
    """

    name = "work-conservation"

    def __init__(self, gpu=None, runtime=None, require_complete=False):
        self.gpu = gpu
        self.runtime = runtime
        self.require_complete = require_complete
        #: id(pool) -> [pool, label, highest done seen], tracking order
        self._pools: Dict[int, list] = {}
        #: id(pool) -> [its _pools entry, live grids drawing on it]
        self._live: Dict[int, list] = {}

    def track(self, pool, label: str = "") -> list:
        key = id(pool)
        entry = self._pools.get(key)
        if entry is None:
            entry = self._pools[key] = [pool, label or repr(pool), pool.done]
        return entry

    def grid_launched(self, grid) -> None:
        key = id(grid.pool)
        live = self._live.get(key)
        if live is not None:
            live[1] += 1
            return
        inv = grid.tag.get("inv")
        name = grid.kernel.name
        entry = self.track(
            grid.pool, name if inv is None else f"inv#{inv}:{name}"
        )
        self._live[key] = [entry, 1]

    def grid_terminal(self, grid) -> None:
        key = id(grid.pool)
        live = self._live[key]
        live[1] -= 1
        if not live[1]:
            del self._live[key]
            self._check(live[0])

    def _check(self, entry: list) -> None:
        """One pool's conservation check; advances its ``done``."""
        pool, label, last_done = entry
        done, outstanding, remaining = pool.counts()
        if min(done, outstanding, remaining) < 0:
            self.fail(
                "task pool accounting went negative", pool=label,
                done=done, outstanding=outstanding, remaining=remaining,
            )
        if done + outstanding + remaining != pool.total:
            self.fail(
                "task conservation broken", pool=label,
                done=done, outstanding=outstanding,
                remaining=remaining, total=pool.total,
            )
        if done < last_done:
            self.fail(
                "committed tasks decreased (double commit/rollback)",
                pool=label, done=done, previously=last_done,
            )
        entry[2] = done

    def on_event(self, ev) -> None:
        for entry, _ in self._live.values():
            self._check(entry)

    def finalize(self, now: float) -> None:
        if self.runtime is not None:
            for inv in self.runtime.invocations:
                self.track(inv.pool, f"inv#{inv.inv_id}:{inv.kspec.name}")
        for entry in self._pools.values():
            self._check(entry)
        for pool, label, _ in self._pools.values():
            done, outstanding, _ = pool.counts()
            if outstanding != 0:
                self.fail(
                    "tasks still outstanding after the run drained",
                    pool=label, outstanding=outstanding, at=now,
                )
            if self.require_complete and done != pool.total:
                self.fail(
                    "pool did not commit every task (work lost)",
                    pool=label, done=done, total=pool.total, at=now,
                )


class MonotonicTimeMonitor(Monitor):
    """Event timestamps are non-decreasing and never behind the clock."""

    name = "monotonic-time"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._last: Optional[float] = None

    def on_event(self, ev) -> None:
        if self._last is not None and ev.time < self._last:
            self.fail(
                "event time went backwards",
                event=ev.label, at=ev.time, previously=self._last,
            )
        if ev.time < self.sim.now - 1e-9:
            self.fail(
                "event fired behind the simulated clock",
                event=ev.label, at=ev.time, clock=self.sim.now,
            )
        self._last = ev.time


class SpatialPartitionMonitor(Monitor):
    """Spatial preemption's ``%smid`` partition (Figure 4 (c)).

    When the flag value ``v`` of a persistent grid demands that SM ``s``
    yield (``s < v``, or any ``v > 0`` for temporal-only kernels), every
    CTA of that grid resident on ``s`` must leave within one poll period
    — ``L`` tasks plus the pinned reads — of the demand becoming
    visible; an overstaying CTA is a stuck worker.

    The monitor watches each queued persistent grid's flag. A non-zero
    write arms each newly demanded resident context's deadline,
    ``L·per_task + 2·poll + signal + slack`` after the write's
    ``visible_at``; a clear or narrower write disarms what it no longer
    demands. A context placed on a demanded SM is armed from its
    placement. A context that retires after its deadline fails, and so,
    at :meth:`finalize`, does one still resident past it. No simulator
    event is scheduled.
    """

    name = "spatial-partition"

    def __init__(self, gpu, slack_us: float = 2.0):
        self.gpu = gpu
        self.slack_us = slack_us
        #: watched grid -> its flag-watch callback
        self._watches: Dict[object, Callable[[float, int], None]] = {}
        #: demanded context -> (time by which it must have left its SM,
        #: the flag value that demanded it)
        self._deadlines: Dict[object, Tuple[float, int]] = {}

    def grid_launched(self, grid) -> None:
        if not grid._persistent:
            return

        def on_write(visible_at: float, value: int) -> None:
            self._flag_written(grid, visible_at, value)

        grid.flag.watch(on_write)
        self._watches[grid] = on_write

    def grid_terminal(self, grid) -> None:
        on_write = self._watches.pop(grid, None)
        if on_write is not None:
            grid.flag.unwatch(on_write)

    def detach(self) -> None:
        super().detach()
        for grid, on_write in self._watches.items():
            grid.flag.unwatch(on_write)
        self._watches.clear()

    def _deadline(self, ctx, start: float) -> float:
        # one full poll period: L tasks (at this context's jittered
        # rate) + the reads around the boundary
        return (
            start + ctx._amortize * ctx._per_task + 2.0 * ctx._poll_cost
            + self.gpu.spec.costs.preempt_signal_us + self.slack_us
        )

    def _flag_written(self, grid, visible_at: float, value: int) -> None:
        deadlines = self._deadlines
        # a demand covers the SMs below a bound, all of them for
        # temporal-only kernels; a clear demands none
        if value <= 0:
            bound = 0
        elif grid.kernel.supports_spatial:
            bound = value
        else:
            bound = float("inf")
        for ctx in grid.contexts:
            if ctx.sm.sm_id >= bound:
                deadlines.pop(ctx, None)
            elif ctx not in deadlines:
                deadlines[ctx] = (self._deadline(ctx, visible_at), value)

    def context_placed(self, ctx, grid) -> None:
        if not grid._persistent:
            return
        visible_at, value = grid.flag._history[-1]
        if value > 0 and (
            ctx.sm.sm_id < value or not grid.kernel.supports_spatial
        ):
            start = max(visible_at, self.gpu.sim.now)
            self._deadlines[ctx] = (self._deadline(ctx, start), value)

    def context_retired(self, ctx, now: float) -> None:
        armed = self._deadlines.pop(ctx, None)
        if armed is not None and now > armed[0] + 1e-9:
            self.fail(
                "CTA overstayed on a yielding SM",
                kernel=ctx.grid.kernel.name, sm=ctx.sm.sm_id,
                ctx=ctx.ctx_id, deadline=armed[0], now=now, flag=armed[1],
            )

    def finalize(self, now: float) -> None:
        for ctx, (deadline, value) in self._deadlines.items():
            if now > deadline + 1e-9 and ctx in ctx.sm.resident:
                self.fail(
                    "CTA still resident on a yielding SM at end of run",
                    kernel=ctx.grid.kernel.name, sm=ctx.sm.sm_id,
                    ctx=ctx.ctx_id, deadline=deadline, now=now, flag=value,
                )


# ---------------------------------------------------------------------------
# policy-contract monitors
# ---------------------------------------------------------------------------
class HPFContractMonitor(Monitor):
    """HPF's contract (§5.2.1): higher-priority work never waits behind a
    lower-priority kernel beyond the preemption-latency bound.

    HPF preempts synchronously inside the arrival event, so a waiting
    invocation with priority above the running kernel's may only be
    observed transiently (same-timestamp event cascades). The monitor
    tracks how long each such pair persists in *simulated* time and
    fails once it outlives ``bound_us``. Only an unfinished invocation
    can be waiting, so each event walks the runtime's live set
    (``runtime._live``, in submission order), not every invocation ever
    submitted.
    """

    name = "hpf-contract"

    def __init__(self, runtime, bound_us: Optional[float] = None):
        self.runtime = runtime
        if bound_us is None:
            # the decision is same-event; the bound only needs to absorb
            # flag-signal latency plus scheduling cascades at one stamp
            bound_us = runtime.device.costs.preempt_signal_us + 1.0
        self.bound_us = bound_us
        self._pending: Dict[Tuple[int, int], float] = {}

    def on_event(self, ev) -> None:
        rt = self.runtime
        running = rt.running
        if running is None:
            self._pending.clear()
            return
        now = rt.sim.now
        on_gpu = {running.inv_id} | {g.inv_id for g in rt.guests}
        live = {}
        for inv in rt._live.values():
            if (
                inv.inv_id in on_gpu
                or inv.record.state is not InvocationState.WAITING
                or inv.priority <= running.priority
            ):
                continue
            key = (inv.inv_id, running.inv_id)
            first = self._pending.get(key, now)
            if now - first > self.bound_us:
                self.fail(
                    "lower-priority kernel kept running while "
                    "higher-priority work waited past the bound",
                    waiting=repr(inv), running=repr(running),
                    waited_us=now - first, bound_us=self.bound_us,
                )
            live[key] = first
        self._pending = live


class FFSShareMonitor(Monitor):
    """FFS's contract (§5.2.2): weighted fair shares within the overhead
    budget.

    Fair shares are only defined while every class has backlog, so the
    check runs at finalize over the union of windows in which **all**
    observed priority classes had at least one unfinished invocation.
    Within that window each class's GPU time share must match its weight
    share within ``max_overhead`` plus one epoch of scheduling
    granularity. Runs whose overlap window is shorter than
    ``min_window_epochs`` quanta are vacuous (the monitor passes).
    """

    name = "ffs-contract"

    def __init__(self, runtime, policy, tolerance: float = 0.10,
                 min_window_epochs: float = 4.0):
        self.runtime = runtime
        self.policy = policy
        self.tolerance = tolerance
        self.min_window_epochs = min_window_epochs

    # -- interval helpers ----------------------------------------------
    @staticmethod
    def _merge(intervals: List[Tuple[float, float]]):
        merged: List[Tuple[float, float]] = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    @staticmethod
    def _intersect(a, b):
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def finalize(self, now: float) -> None:
        rt = self.runtime
        backlog: Dict[int, List[Tuple[float, float]]] = {}
        for inv in rt.invocations:
            end = inv.record.finished_at
            end = now if end is None else end
            backlog.setdefault(inv.priority, []).append(
                (inv.record.arrived_at, end)
            )
        if len(backlog) < 2:
            return  # one class: trivially fair
        classes = sorted(backlog)
        window = self._merge(backlog[classes[0]])
        for cls in classes[1:]:
            window = self._intersect(window, self._merge(backlog[cls]))
        length = sum(hi - lo for lo, hi in window)
        # Estimate one full rotation the way FFS sizes its epochs at run
        # time (the policy's own quantum_us() sees an *empty* active set
        # here and would report the floor, not the quantum the run used).
        total_overhead = sum(
            rt.preemption_overhead_us(i) for i in rt.invocations
        )
        total_weight = sum(
            self.policy.weight_of_class(i.priority) for i in rt.invocations
        ) or 1.0
        quantum = max(
            self.policy.min_quantum_us,
            total_overhead / (self.policy.max_overhead * total_weight),
        )
        epoch = quantum * sum(
            self.policy.weight_of_class(c) for c in classes
        )
        if length < self.min_window_epochs * epoch:
            return  # too short for shares to be meaningful
        gpu_time = {c: 0.0 for c in classes}
        for inv in rt.invocations:
            for start, end in inv.record.run_segments:
                for lo, hi in window:
                    gpu_time[inv.priority] += max(
                        0.0, min(end, hi) - max(start, lo)
                    )
        total = sum(gpu_time.values())
        if total <= 0.0:
            return
        weight_total = sum(self.policy.weight_of_class(c) for c in classes)
        slack = self.policy.max_overhead + self.tolerance + epoch / length
        for cls in classes:
            share = gpu_time[cls] / total
            expected = self.policy.weight_of_class(cls) / weight_total
            if abs(share - expected) > slack:
                self.fail(
                    "FFS share error outside the overhead budget",
                    cls=cls, share=round(share, 4),
                    expected=round(expected, 4), slack=round(slack, 4),
                    window_us=round(length, 1),
                )


# ---------------------------------------------------------------------------
# installers
# ---------------------------------------------------------------------------
def _default_monitors(sim, gpu=None, runtime=None, policy=None,
                      spec=None, require_complete=False) -> List[Monitor]:
    monitors: List[Monitor] = [MonotonicTimeMonitor(sim)]
    if gpu is not None:
        monitors.append(ResourceBudgetMonitor(gpu, spec=spec))
        monitors.append(
            WorkConservationMonitor(
                gpu=gpu, runtime=runtime, require_complete=require_complete
            )
        )
        monitors.append(SpatialPartitionMonitor(gpu))
    if runtime is not None and policy is not None:
        name = getattr(policy, "name", "")
        if name == "hpf":
            monitors.append(HPFContractMonitor(runtime))
        elif name == "ffs":
            monitors.append(FFSShareMonitor(runtime, policy))
    return monitors


def install_monitors(target, monitors: Optional[List[Monitor]] = None,
                     spec=None, require_complete=False) -> MonitorSet:
    """Install invariant monitors on ``target`` and return the set.

    ``target`` may be a :class:`~repro.core.flep.FlepSystem`, a
    :class:`~repro.runtime.engine.FlepRuntime`, a
    :class:`~repro.gpu.gpu.SimulatedGPU`, a baseline
    :class:`~repro.baselines.mps_corun.MPSCoRun` /
    :class:`~repro.serving.server.ServingSystem`, a multi-GPU
    :class:`~repro.fleet.dispatcher.FleetSystem` (returns a
    :class:`~repro.validate.fleet.FleetMonitorBundle`: per-node monitor
    sets plus the fleet conformance hook; ``require_complete`` doubles
    as its full-drain conservation check), or a bare
    :class:`~repro.gpu.sim.Simulator`. The default monitor set adapts to
    what the target exposes (device-level checks need a GPU, policy
    contracts need a runtime). ``spec`` overrides the budget spec of the
    resource monitor (used to plant violations in self-tests);
    ``require_complete`` makes finalize demand fully-committed pools.

    Call ``set.finalize()`` (or use it as a context manager) after the
    run to execute end-of-run checks.
    """
    if hasattr(target, "nodes") and hasattr(target, "hooks"):
        # FleetSystem: one MonitorSet per node backend plus the
        # fleet-level conformance hook (steal safety, conservation).
        from .fleet import FleetMonitorBundle

        return FleetMonitorBundle(target, full_drain=require_complete)
    sim = getattr(target, "sim", None)
    if isinstance(target, Simulator):
        sim, gpu, runtime, policy = target, None, None, None
    elif hasattr(target, "runtime"):           # FlepSystem / ServingSystem
        system = getattr(target, "system", target)
        system = target if system is None else system
        runtime = getattr(system, "runtime", None)
        gpu = getattr(system, "gpu", None)
        policy = getattr(system, "policy", None)
        sim = system.sim if sim is None else sim
    elif hasattr(target, "invocations") and hasattr(target, "gpu"):
        runtime, gpu, policy = target, target.gpu, target.policy  # FlepRuntime
    elif hasattr(target, "gpu"):               # MPSCoRun / Stream-ish
        runtime, gpu, policy = None, target.gpu, None
    elif hasattr(target, "sms"):               # SimulatedGPU
        runtime, gpu, policy = None, target, None
    else:
        raise ValidationError(
            f"cannot install monitors on {type(target).__name__}"
        )
    if sim is None:
        raise ValidationError(
            f"{type(target).__name__} exposes no simulator to hook"
        )
    if monitors is None:
        monitors = _default_monitors(
            sim, gpu=gpu, runtime=runtime, policy=policy,
            spec=spec, require_complete=require_complete,
        )
    return MonitorSet(sim, monitors).install()
