"""CTA execution contexts.

A :class:`CTAContext` is one resident CTA slot executing a grid's tasks.
Original kernels and FLEP persistent kernels run through the same context
machinery (see :mod:`repro.gpu.kernel`); the differences are:

========================  =================  ==========================
                          ORIGINAL           PERSISTENT (FLEP)
========================  =================  ==========================
task pull cost            0 (hardware)       ``task_pull_us`` (atomic)
flag poll                 never              every ``L`` tasks
preemption                impossible         at the next poll boundary
========================  =================  ==========================

To keep event counts low the context claims a *batch* of tasks and
schedules a single completion event. When the host writes the preemption
flag, the context re-plans: it computes the first poll boundary at which
the device-visible flag value demands a yield, finishes exactly the tasks
processed by then, returns the rest to the pool, and releases its SM.
This reproduces Figure 4's semantics exactly while staying
``O(contexts x preemption epochs)`` in events.

Performance note: the batch loop is the simulator's hottest path. All
per-batch constants (task time, poll cost, amortizing factor, event
labels) are frozen into plain attributes at context creation — kernel,
cost model and task multiplier never change over a context's lifetime.
Nothing is memoized per claim: the pool's remaining count falls with
every claim, so a ``(remaining, width)`` plan never recurs. The flag
fast path (:attr:`PinnedFlag._demanding`) lets ``replan`` skip the
yield-poll search entirely while no host write demands a yield. A
context's first claim inside a placement pass does not push its event
at all: the pass collects it in :class:`FirstClaims` and a macro cohort
may take it over unpushed (:meth:`Grid.begin_pass`).
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..errors import SchedulingError, SimulationError
from ..obs.recorder import NULL_OBS
from .events import Event, maybe_cancel
from .kernel import KernelMode, guided_claim
from .memory import _VALUE_INF, should_yield

if TYPE_CHECKING:  # pragma: no cover
    from .grid import Grid
    from .sm import SM

_EPS = 1e-9


class FirstClaims:
    """The first claims of one placement pass whose completion events
    are not pushed yet (DESIGN.md §4): row ``k`` is the ``k``-th placed
    context, the completion time of its first batch and the engine seq
    it took when it claimed. :meth:`Grid.end_pass` either hands the rows
    to a macro cohort or pushes them as events."""

    __slots__ = ("ctxs", "times", "seqs")

    def __init__(self):
        self.ctxs: List["CTAContext"] = []
        self.times: List[float] = []
        self.seqs: List[int] = []

    def push(self, sim) -> None:
        """Schedule every row's completion, each at its own seq."""
        for ctx, t, seq in zip(self.ctxs, self.times, self.seqs):
            ctx._completion = sim.schedule_reserved(
                t, seq, ctx._on_batch_complete, ctx._batch_label
            )


class CTAState(enum.Enum):
    """Lifecycle of one resident CTA slot."""

    RUNNING = "running"
    YIELDED = "yielded"      # quit due to a preemption flag
    FINISHED = "finished"    # pool exhausted


class CTAContext:
    """One resident CTA slot processing batches of tasks."""

    __slots__ = (
        "grid", "ctx_id", "sm", "state", "tasks_done", "started_at",
        "ended_at", "_obs", "task_mult", "_is_persistent",
        "_task_time", "_per_task", "_poll_cost", "_amortize", "_spatial",
        "_batch_label", "_yield_label", "_batch_start",
        "_batch_size", "_completion", "_yield_event", "_started",
        "_since_poll",
    )

    def __init__(self, grid: "Grid", ctx_id: int, sm: "SM"):
        self.grid = grid
        self.ctx_id = ctx_id
        self.sm = sm
        self.state = CTAState.RUNNING
        self.tasks_done = 0
        self.started_at = grid.sim.now
        self.ended_at: Optional[float] = None
        # Counting-hook sink, cached as a plain attribute: the batch loop
        # is the simulator's hottest path and must not pay a property
        # getter per batch. Hubs are installed on the device before
        # launch, so context-creation-time capture is safe.
        device = grid.device
        self._obs = device.prof if device is not None else NULL_OBS
        # Per-batch constants, frozen once (kernel/cost model/multiplier
        # are immutable for the context's lifetime).
        kernel = grid.kernel
        persistent = kernel.mode is KernelMode.PERSISTENT
        self._is_persistent = persistent
        # per-context task-time multiplier (input irregularity)
        self.task_mult = kernel.task_model.sample_multiplier(grid.rng)
        self._task_time = kernel.task_model.mean_task_us * self.task_mult
        if persistent:
            self._per_task = self._task_time + grid.costs.task_pull_us
            self._poll_cost = grid.costs.pinned_poll_us
            self._amortize = kernel.amortize_l
        else:
            self._per_task = self._task_time
            self._poll_cost = 0.0
            self._amortize = 1
        self._spatial = kernel.supports_spatial
        self._batch_label = f"{kernel.name}/ctx{ctx_id}/batch"
        self._yield_label = f"{kernel.name}/ctx{ctx_id}/yield"

        # current batch
        self._batch_start = 0.0
        self._batch_size = 0
        self._completion: Optional[Event] = None
        self._yield_event: Optional[Event] = None
        self._started = False
        #: tasks processed since the last flag poll, in [0, L). Polls
        #: happen exactly every L tasks *across* batch boundaries, so a
        #: sub-L tail batch does not cost an extra poll.
        self._since_poll = 0

    def start(self) -> None:
        """Begin execution. Called by the device *after* SM admission, so
        that resource accounting is consistent even if the context
        finishes instantly (empty pool)."""
        if self._started:
            raise SchedulingError(f"context {self!r} started twice")
        self._started = True
        self.grid.pool.worker_joined(self.grid)
        self._begin_next_batch()

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def _first_poll_index(self) -> int:
        """Task index within the current batch at which the first poll
        fires: 0 if the batch starts on a poll boundary, else the task
        that completes the current L-group."""
        L = self._amortize
        return (L - self._since_poll) % L

    def _polls_in_batch(self, batch: int) -> int:
        """Number of flag polls performed while processing ``batch``
        tasks, given the persistent offset."""
        if not self._is_persistent or batch <= 0:
            return 0
        first = self._first_poll_index()
        if first >= batch:
            return 0
        return 1 + (batch - 1 - first) // self._amortize

    def _batch_duration(self, batch: int) -> float:
        """Wall time of a ``batch``-task run from the current poll
        offset."""
        return (
            self._polls_in_batch(batch) * self._poll_cost
            + batch * self._per_task
        )

    def _poll_read_start(self, m: int) -> float:
        """Time the m-th in-batch poll (m >= 0) begins reading the flag:
        all earlier polls plus all earlier tasks have completed."""
        j = self._first_poll_index() + m * self._amortize
        return self._batch_start + m * self._poll_cost + j * self._per_task

    def _poll_task_index(self, m: int) -> int:
        """Tasks of this batch completed when the m-th poll fires."""
        return self._first_poll_index() + m * self._amortize

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _begin_next_batch(self) -> None:
        """If on a poll boundary, poll the flag; then claim and run the
        next batch. Between boundaries the flag is never observed."""
        grid = self.grid
        sim = grid.sim
        now = sim._now
        if self._is_persistent and self._since_poll == 0:
            flag = grid.flag
            # _demanding empty => every visible value is 0 => no yield;
            # skip the read entirely (the poll itself is only *charged*
            # when it demands a yield or as part of a batch plan)
            if flag is not None and flag._demanding:
                # newest write already visible => it is what a read
                # observes; bisect only while the write is in flight
                last = flag._history[-1]
                value = last[1] if last[0] <= now else flag.device_read(now)
                if should_yield(self.sm.sm_id, value, self._spatial):
                    # the boundary poll itself still costs one pinned read
                    self._schedule_yield(
                        now + self._poll_cost, finished_in_batch=0
                    )
                    return

        pool = grid.pool
        remaining = pool._remaining
        if remaining <= 0:
            self._finish(now)
            return
        # Guided claim. The width is the larger of the grid's expected
        # concurrency and the pool-wide live worker count: a shared pool
        # may be drained by several grids at once (resume / top-up), and
        # using only this grid's width would let its contexts over-claim
        # and straggle. A persistent grid keeps batches L-multiples.
        width = grid._parallel_width
        workers = pool._workers
        if workers > width:
            width = workers
        batch = guided_claim(
            remaining, 2 * width,
            grid._amortize_l if self._is_persistent else 0,
        )
        # claim inlined from TaskPool.take: guided_claim clamps batch to
        # [1, remaining], so the claim never truncates or goes negative
        pool._remaining = remaining - batch
        pool._outstanding += batch
        self._batch_start = now
        self._batch_size = batch
        # duration inlined from _batch_duration (identical float-op
        # order, so replan's recomputation lands on the same bit pattern)
        per_task = self._per_task
        if self._is_persistent:
            L = self._amortize
            first = (L - self._since_poll) % L
            polls = 0 if first >= batch else 1 + (batch - 1 - first) // L
            duration = polls * self._poll_cost + batch * per_task
        else:
            duration = batch * per_task
        claims = grid._first
        if claims is not None:
            # a placement pass with a quiet flag: no replan can follow,
            # so the claim takes its seq now and its event is pushed
            # when the pass ends, unless a macro cohort takes it over
            claims.ctxs.append(self)
            claims.times.append(now + duration)
            claims.seqs.append(sim.reserve_seq())
            return
        self._completion = sim.schedule_at(
            now + duration,
            self._on_batch_complete,
            self._batch_label,
        )
        if self._is_persistent:
            flag = grid.flag
            # a flag written before this batch started may bite
            # mid-batch. No demanding write ever — or the newest write a
            # visible clear — means replan would be a no-op (fresh
            # completion, no yield event), so skip the call.
            if flag is not None and flag._demanding:
                last = flag._history[-1]
                if last[1] != 0 or last[0] > now:
                    self.replan()

    def _on_batch_complete(self) -> None:
        self._completion = None
        batch = self._batch_size
        self.tasks_done += batch
        # inlined from TaskPool.finish: this batch was claimed whole at
        # _begin_next_batch, so batch <= outstanding by construction
        pool = self.grid.pool
        pool._outstanding -= batch
        pool._done += batch
        if self._is_persistent:
            since = self._since_poll
            L = self._amortize
            obs = self._obs
            if obs.enabled:
                # charged at batch granularity so the instrumented hot
                # path stays O(batches), not O(tasks); polls inlined
                # from _polls_in_batch
                first = (L - since) % L
                polls = 0 if first >= batch else 1 + (batch - 1 - first) // L
                obs.on_batch(batch, polls)
            self._since_poll = (since + batch) % L
        self._batch_size = 0
        self._begin_next_batch()

    def _finish(self, now: float) -> None:
        if self.state is not CTAState.RUNNING:
            raise SchedulingError("context finished twice")
        self.state = CTAState.FINISHED
        self.ended_at = now
        self._teardown_events()
        self.grid.context_done(self)

    # ------------------------------------------------------------------
    # preemption
    # ------------------------------------------------------------------
    def replan(self) -> None:
        """Recompute this context's fate after a flag write: schedule
        the yield :meth:`_yield_plan` finds, or restore the batch's
        completion if it finds none (a flag clear cancelled the yield).
        """
        if self.state is not CTAState.RUNNING or not self._is_persistent:
            return
        grid = self.grid
        if grid.flag is None or self._batch_size == 0:
            return
        plan = self._yield_plan()
        if plan is None:
            maybe_cancel(self._yield_event)
            self._yield_event = None
            if self._completion is None or self._completion.cancelled:
                tc = self._batch_start + self._batch_duration(self._batch_size)
                now = grid.sim._now
                self._completion = grid.sim.schedule_at(
                    tc if tc > now else now,
                    self._on_batch_complete,
                    self._batch_label,
                )
            return
        maybe_cancel(self._completion)
        self._completion = None
        maybe_cancel(self._yield_event)
        self._schedule_yield(*plan)

    def _yield_plan(self) -> Optional[Tuple[float, int]]:
        """``(yield time, tasks of the batch finished by then)`` of the
        first mid-batch poll that observes a yield-demanding flag value,
        or ``None`` if the current batch runs to completion. Pure: it
        reads the batch state and the flag, and touches no event."""
        flag = self.grid.flag
        if not flag._demanding:
            return None
        # Cleared-flag fast path: when the newest write is a clear
        # already visible at (or before) the batch start, every poll of
        # this batch observes 0.
        last = flag._history[-1]
        if last[1] == 0 and last[0] <= self._batch_start:
            return None
        m = self._first_yield_poll()
        if m is None:
            return None
        return (
            self._poll_read_start(m) + self._poll_cost,
            min(self._poll_task_index(m), self._batch_size),
        )

    def _first_yield_poll(self) -> Optional[int]:
        """Ordinal ``m`` of the first *mid-batch* poll that observes a
        yield-demanding flag value, or ``None``.

        The poll at the very start of the batch (task index 0, only when
        the batch begins on a boundary) already ran synchronously in
        ``_begin_next_batch``, so it is excluded. A demanding write's
        candidate is the first poll whose read starts after the write is
        visible; the candidate must still observe a demanding value (a
        later write may have cleared it). Writes are sorted by
        visibility and candidates rise with it, so the first candidate
        that passes is the answer. Every write visible by the first
        poll's read collapses onto the lowest candidate, so one bisect
        (plus the flag's running maximum, for spatial yields) replaces
        their scan: O(log writes + writes inside the batch).
        """
        batch = self._batch_size
        L = self._amortize
        # _first_poll_index, _polls_in_batch and _poll_read_start
        # inlined, with their float-op order
        first = (L - self._since_poll) % L
        if first >= batch:
            return None
        n_polls = 1 + (batch - 1 - first) // L
        # the m=0 poll is mid-batch unless it sits at task index 0
        m_lo = 1 if first == 0 else 0
        if m_lo >= n_polls:
            return None
        flag = self.grid.flag
        spatial = self._spatial
        sm_id = self.sm.sm_id
        start = self._batch_start
        poll_cost = self._poll_cost
        per_task = self._per_task
        base = start + 0 * poll_cost + first * per_task
        demanding = flag._demanding
        k = bisect_right(demanding, (base + _EPS, _VALUE_INF))
        checked = -1
        if k and (not spatial or flag._demand_max[k - 1] > sm_id):
            j = first + m_lo * L
            observed = flag.device_read(
                start + m_lo * poll_cost + j * per_task + _EPS
            )
            if observed > 0 and (not spatial or sm_id < observed):
                return m_lo
            checked = m_lo
        period = poll_cost + L * per_task
        for i in range(k, len(demanding)):
            visible_at, value = demanding[i]
            if spatial and sm_id >= value:
                continue
            # smallest m with poll_read_start(m) >= visible_at
            m = math.ceil((visible_at - base) / period - _EPS)
            if m < m_lo:
                m = m_lo
            if m >= n_polls:
                return None
            if m == checked:
                continue
            checked = m
            j = first + m * L
            observed = flag.device_read(
                start + m * poll_cost + j * per_task + _EPS
            )
            if observed > 0 and (not spatial or sm_id < observed):
                return m
        return None

    def _schedule_yield(self, at: float, finished_in_batch: int) -> None:
        sim = self.grid.sim
        now = sim._now
        self._yield_event = sim.schedule_at(
            at if at > now else now,
            lambda: self._do_yield(finished_in_batch),
            self._yield_label,
        )

    def _do_yield(self, finished_in_batch: int) -> None:
        if self.state is not CTAState.RUNNING:
            return
        self._yield_event = None
        pool = self.grid.pool
        obs = self._obs
        if obs.enabled:
            # the polls performed up to (and including) the yielding poll
            polled = 1
            if self._batch_size:
                polled += self._polls_in_batch(
                    min(finished_in_batch, self._batch_size)
                )
            obs.on_batch(finished_in_batch, polled)
        if self._batch_size:
            if finished_in_batch > self._batch_size:
                raise SimulationError("yield finished more tasks than batch")
            pool.finish(finished_in_batch)
            pool.give_back(self._batch_size - finished_in_batch)
            self.tasks_done += finished_in_batch
            self._batch_size = 0
        self.state = CTAState.YIELDED
        self.ended_at = self.grid.sim.now
        self._teardown_events()
        self.grid.context_yielded(self)

    # ------------------------------------------------------------------
    def _teardown_events(self) -> None:
        if self._started:
            self.grid.pool.worker_left(self.grid)
            self._started = False
        maybe_cancel(self._completion)
        maybe_cancel(self._yield_event)
        self._completion = None
        self._yield_event = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CTAContext({self.grid.kernel.name}#{self.ctx_id}, "
            f"sm={self.sm.sm_id}, {self.state.value}, done={self.tasks_done})"
        )
