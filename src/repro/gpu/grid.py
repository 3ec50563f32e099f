"""A launched kernel grid and its lifecycle on the device.

States::

    QUEUED ──(first context placed)──> RUNNING ──(pool drained)──> COMPLETE
                                          │
                                          └──(all contexts yield)──> PREEMPTED

A spatially-preempted grid stays RUNNING with fewer contexts (the paper:
"all the other CTAs keep running until all tasks of the victim kernel are
processed"). A PREEMPTED grid is terminal; resuming relaunches a fresh
grid that *shares the same* :class:`~repro.gpu.kernel.TaskPool`, so only
the unfinished tasks run again.
"""

from __future__ import annotations

import enum
import random
from typing import Callable, Optional, Set

from ..errors import SchedulingError, SimulationError
from .cta import CTAContext, FirstClaims
from .device import CostModel, GPUDeviceSpec
from .kernel import KernelImage, KernelMode, LaunchConfig, TaskPool
from .macro import MacroCohort
from .memory import PinnedFlag, should_yield
from .occupancy import cta_footprint, max_ctas_per_sm
from .sim import Simulator


#: what a finished grid's ``contexts`` is rebound to (shared, immutable)
_NO_CONTEXTS = frozenset()


class GridState(enum.Enum):
    """Lifecycle of a launched grid (see the module docstring)."""

    QUEUED = "queued"
    RUNNING = "running"
    PREEMPTED = "preempted"
    COMPLETE = "complete"


class Grid:
    """One kernel launch being executed by the simulated device.

    Finished grids stay reachable from their invocation's ``grids`` list
    (reports read them), so a grid is slotted and drops its per-CTA state
    and callbacks in :meth:`_finish`: what a run keeps per grid is its
    identity, timestamps and counters, not its peak working set."""

    __slots__ = (
        "grid_id", "sim", "spec", "costs", "kernel", "config", "pool",
        "flag", "rng", "tag", "on_complete", "on_preempted", "device",
        "state", "launched_at", "first_dispatch_at", "ended_at",
        "preempt_requested_at", "contexts", "_placed",
        "yielded_contexts", "finished_contexts", "ctas_per_sm",
        "_footprint", "_terminal", "_persistent", "_amortize_l",
        "_parallel_width", "_macro", "_first",
    )

    _next_id = 1

    def __init__(
        self,
        sim: Simulator,
        spec: GPUDeviceSpec,
        kernel: KernelImage,
        config: LaunchConfig,
        pool: Optional[TaskPool] = None,
        flag: Optional[PinnedFlag] = None,
        rng: Optional[random.Random] = None,
        tag: Optional[dict] = None,
        on_complete: Optional[Callable[["Grid"], None]] = None,
        on_preempted: Optional[Callable[["Grid"], None]] = None,
    ):
        if kernel.mode is KernelMode.PERSISTENT and flag is None:
            raise SimulationError(
                f"persistent kernel {kernel.name} launched without a flag"
            )
        self.grid_id = Grid._next_id
        Grid._next_id += 1
        self.sim = sim
        self.spec = spec
        self.costs: CostModel = spec.costs
        self.kernel = kernel
        self.config = config
        self.pool = pool if pool is not None else TaskPool(config.total_tasks)
        self.flag = flag
        self.rng = rng
        self.tag = tag or {}
        self.on_complete = on_complete
        self.on_preempted = on_preempted
        #: the launching SimulatedGPU (None for a bare grid in tests)
        self.device = None

        self.state = GridState.QUEUED
        self.launched_at = sim.now
        self.first_dispatch_at: Optional[float] = None
        self.ended_at: Optional[float] = None
        self.preempt_requested_at: Optional[float] = None

        self.contexts: Set[CTAContext] = set()
        #: CTAs placed so far; the next one's ctx_id
        self._placed = 0
        self.yielded_contexts = 0
        self.finished_contexts = 0
        self.ctas_per_sm = max_ctas_per_sm(spec, kernel.resources)
        # (threads, warps, regs, smem) one CTA charges on an SM, resolved
        # once: the dispatcher screens every SM against it on every
        # placement, and retire returns it — no per-call footprint lookup.
        warps, regs, smem = cta_footprint(kernel.resources, spec)
        self._footprint = (kernel.resources.threads_per_cta, warps, regs, smem)
        self._terminal = False
        # Frozen hot-path constants: kernel mode, amortizing factor and
        # the expected steady-state width never change after launch, and
        # every guided claim (repro.gpu.cta, repro.gpu.macro) reads them.
        self._persistent = kernel.mode is KernelMode.PERSISTENT
        self._amortize_l = kernel.amortize_l
        # the expected (not momentary) CTA concurrency sizes guided
        # batches, so early batches do not starve later contexts
        capacity = spec.num_sms * self.ctas_per_sm
        if self._persistent:
            self._parallel_width = max(1, min(capacity, config.grid_ctas))
        else:
            self._parallel_width = max(1, min(capacity, self.pool.total))
        #: active macro-event cohort (repro.gpu.macro), if any
        self._macro: Optional[MacroCohort] = None
        #: first claims deferred by the placement pass under way, if any
        self._first: Optional[FirstClaims] = None

        if self.flag is not None and self._persistent:
            self.flag.watch(self._on_flag_write)

    # ------------------------------------------------------------------
    # dispatcher interface
    # ------------------------------------------------------------------
    @property
    def unplaced_contexts(self) -> int:
        """CTAs launched but not yet hosted on an SM."""
        if self._terminal:
            return 0
        # the *synced* remaining: a queued grid may share its pool with
        # a macro cohort whose claims commit lazily, and the dispatcher
        # must see exactly what the per-batch reference loop would.
        # (Inlined sync check — this runs per grid per dispatch scan.)
        pool = self.pool
        c = pool._cohort
        if c is not None:
            c.sync(c.sim._now)
        if self._persistent:
            remaining = self.config.grid_ctas - self._placed
            # don't place more workers than tasks left to claim
            tasks = pool._remaining
            if remaining > tasks:
                remaining = tasks
            return remaining if remaining > 0 else 0
        # original: one CTA per task still waiting in the hardware queue
        return pool._remaining

    @property
    def blocks_queue(self) -> bool:
        """Does this grid still hold the head of the hardware FIFO?

        Later grids' CTAs cannot be dispatched while this is true (§2.1:
        a kernel occupies the GPU until all its CTAs are dispatched).
        """
        return not self._terminal and self.unplaced_contexts > 0

    @property
    def is_terminal(self) -> bool:
        return self._terminal

    def place_context(self, sm) -> CTAContext:
        """Dispatcher hosts one CTA of this grid on ``sm``."""
        if self.is_terminal:
            raise SchedulingError(f"placing context on terminal grid {self}")
        # no waiting-CTA check: _place picks at most unplaced_contexts SMs
        # and re-reads the count after each start(), so it cannot fire
        if self.first_dispatch_at is None:
            self.first_dispatch_at = self.sim.now
            self.state = GridState.RUNNING
        # Original kernels: a pending preemption flag cannot stop CTAs,
        # but placement still consumes the queue. Persistent kernels with
        # a yield-demanding flag visible *now* would quit instantly; the
        # dispatcher avoids that by consulting `wants_dispatch`.
        ctx = CTAContext(self, self._placed, sm)
        self._placed += 1
        self.contexts.add(ctx)
        return ctx

    def wants_dispatch(self) -> bool:
        """Should the dispatcher currently place CTAs of this grid?

        A persistent grid whose flag demands a full yield should not have
        new CTAs placed (the host has conceptually not relaunched it).
        """
        if self.unplaced_contexts <= 0:
            return False
        if (
            self._persistent
            and self.flag is not None
            and should_yield(
                0, self.flag.last_written, spatial_capable=False
            )
        ):
            # any pending non-zero flag: pause placement of new CTAs on
            # yielding SMs; for simplicity pause all placement while a
            # temporal (all-SM) preemption is pending
            if not self.kernel.supports_spatial or (
                self.flag.last_written >= self.spec.num_sms
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # context callbacks
    # ------------------------------------------------------------------
    def begin_pass(self) -> None:
        """The dispatcher starts placing this grid's CTAs.

        While the flag is quiet — no demanding write in flight, none
        visible — a context placed now can neither poll a yield nor be
        replanned before the pass ends, so the pass defers its first
        claims' events (:class:`~repro.gpu.cta.FirstClaims`) until
        :meth:`end_pass`. Otherwise, and on the reference loop, each
        claim pushes its event as it is made."""
        if not self._persistent or self.sim.use_reference_loop:
            return
        flag = self.flag
        if flag._demanding:
            last = flag._history[-1]
            if last[1] != 0 or last[0] > self.sim._now:
                return
        self._first = FirstClaims()

    def end_pass(self) -> None:
        """The placement pass is over: a macro cohort takes over the
        deferred first claims if the pool is steady (:meth:`try_macro`),
        else each is pushed at the seq it took when claimed and the grid
        runs per batch. Either way the schedule is the one a claim-time
        push would give."""
        claims = self._first
        if claims is None:
            return
        if claims.ctxs and not self.try_macro(self.sim._now):
            claims.push(self.sim)
        self._first = None

    def try_macro(self, now: float) -> bool:
        """Hand the pool's batch chain to a macro-event cohort (see
        :mod:`repro.gpu.macro`) at the end of this grid's placement
        pass — the one place a cohort forms. The pool must have no
        cohort yet; every grid draining it must be persistent and fully
        placed, with its flag quiet at zero (no demanding write in
        flight, and the newest visible value 0); and every pool worker
        must be a context of those grids. Returns True iff the cohort
        took over the pass's deferred first claims."""
        pool = self.pool
        if pool._cohort is not None:
            return False
        total = 0
        for g, cnt in pool._grids.items():
            # only persistent chains are replayed: an original grid's
            # one-CTA-per-task chain interleaves with same-instant
            # launches in an order the replay does not reproduce. A grid
            # with CTAs still to place would join the pool in a later
            # pass and dissolve the cohort before it replayed anything.
            if (
                not g._persistent
                or len(g.contexts) != cnt
                or g._placed < g.config.grid_ctas
            ):
                return False
            flag = g.flag
            if flag._demanding:
                last = flag._history[-1]
                if last[1] != 0 or last[0] > now:
                    return False
            total += cnt
        if total != pool._workers:
            return False
        return MacroCohort.absorb(self)

    def context_done(self, ctx: CTAContext) -> None:
        self.finished_contexts += 1
        self._retire(ctx)

    def context_yielded(self, ctx: CTAContext) -> None:
        self.yielded_contexts += 1
        self._retire(ctx)

    def _retire(self, ctx: CTAContext) -> None:
        self.contexts.discard(ctx)
        ctx.sm.release_fp(ctx, *self._footprint)
        self._check_terminal()
        # tell the device a slot freed up
        if self.device is not None:
            self.device.on_context_released(ctx)

    # ------------------------------------------------------------------
    # flag handling
    # ------------------------------------------------------------------
    def _on_flag_write(self, visible_at: float, value: int) -> None:
        if self.is_terminal:
            return
        if value > 0 and self.preempt_requested_at is None:
            self.preempt_requested_at = self.sim.now
        cohort = self._macro
        if cohort is not None:
            # a macro cohort cannot span a flag write: return to
            # per-batch eventing *now* — strictly before the write's
            # visibility — so every poll boundary the reference loop
            # observes still happens. The dissolve replans this grid's
            # contexts as it goes: each gets one event, a completion or
            # a yield.
            cohort.dissolve(self.sim._now, replan=self)
        else:
            # replan in ctx-id order: `contexts` is a set whose
            # iteration order varies between processes (id-based
            # hashing), and the order decides event seq numbers
            for ctx in sorted(self.contexts, key=lambda c: c.ctx_id):
                ctx.replan()
        # A grid preempted before any CTA was hosted (e.g. the flag was
        # written while the launch command was still in flight) drains
        # instantly: its CTAs would quit at their very first poll. Going
        # terminal here also stops it from blocking the hardware FIFO.
        if not self.contexts and self._demands_full_yield():
            self._finish(GridState.PREEMPTED)

    def _demands_full_yield(self) -> bool:
        """Is the host currently requesting a whole-GPU yield?"""
        if not self._persistent or self.flag is None:
            return False
        value = self.flag.last_written
        if value <= 0:
            return False
        return not self.kernel.supports_spatial or value >= self.spec.num_sms

    # ------------------------------------------------------------------
    # terminal states
    # ------------------------------------------------------------------
    def _check_terminal(self) -> None:
        if self.is_terminal or self.contexts:
            return
        if self.pool.complete:
            self._finish(GridState.COMPLETE)
        elif self.pool.exhausted:
            # The pool has no unclaimed tasks but siblings sharing it
            # (e.g. a spatial top-up grid of the same invocation) still
            # hold outstanding work. This grid's workers all saw
            # pull_task() == NULL and exited: it is complete; the last
            # sibling observes pool.complete and finishes the invocation.
            self._finish(GridState.COMPLETE)
        elif self._persistent:
            flag_pending = self.flag is not None and self.flag.last_written > 0
            if flag_pending or self.yielded_contexts > 0:
                # Either the flag still demands a yield, or the workers
                # left because of a yield whose flag has since been
                # cleared (e.g. spatial churn: preempt -> guest done ->
                # clear -> this grid's last yielder retires after the
                # clear). Both are preemption outcomes.
                self._finish(GridState.PREEMPTED)
            elif self.unplaced_contexts == 0:
                # workers all *finished* with work outstanding and no
                # flag was ever involved: impossible by construction
                raise SchedulingError(
                    f"grid {self} lost all contexts with work remaining"
                )

    def _finish(self, state: GridState) -> None:
        if self._macro is not None:
            self._macro.dissolve(self.sim._now)
        self.state = state
        self._terminal = True
        self.ended_at = self.sim.now
        if self.flag is not None and self._persistent:
            self.flag.unwatch(self._on_flag_write)
        if self.device is not None:
            self.device.on_grid_terminal(self)
        if state is GridState.COMPLETE and self.on_complete:
            self.on_complete(self)
        if state is GridState.PREEMPTED and self.on_preempted:
            self.on_preempted(self)
        # a finished grid stays reachable (KernelInvocation.grids), so
        # drop what no one reads again: an emptied set keeps its peak
        # hash table, and the callbacks have fired their only time. The
        # set is empty here and a terminal grid places no context.
        self.contexts = _NO_CONTEXTS
        self.on_complete = self.on_preempted = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def turnaround_us(self) -> Optional[float]:
        if self.ended_at is None:
            return None
        return self.ended_at - self.launched_at

    @property
    def preemption_latency_us(self) -> Optional[float]:
        """Request-to-fully-yielded latency (temporal preemption)."""
        if self.state is not GridState.PREEMPTED or self.preempt_requested_at is None:
            return None
        return self.ended_at - self.preempt_requested_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Grid#{self.grid_id}({self.kernel.name}, {self.state.value}, "
            f"pool={self.pool})"
        )
