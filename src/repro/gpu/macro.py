"""Macro-event fast-forward for persistent-grid batch chains.

Without it every claimed batch costs one ``batch`` event in the global
loop, and those events dominate every steady kernel's run. When the grids
draining a task pool reach steady state — every CTA placed, every
preemption flag quiet at zero, the pool drained only by those grids'
contexts — the remaining claim/complete interleaving is a *closed*
deterministic system: batch sizes depend only on ``(remaining, width)``
at each claim instant, completion times are ``t + polls*poll_cost +
batch*per_task`` chains, and the global event loop would simply replay
that interleaving one heap pop at a time.

A cohort forms in one place only: where a placement pass ends
(:meth:`Grid.end_pass <repro.gpu.grid.Grid.end_pass>`), which is where a
persistent grid's steady chain starts. It takes over the pass's
deferred first claims and every other pool context's pushed completion.
A grid that misses that moment runs per batch until it ends.

:class:`MacroCohort` solves the chain in numpy *windows* instead. The
cohort keeps its contexts' pending completions as arrays sorted by
``(time, order)`` — exactly the engine's ``(time, seq)`` heap order, one
entry per context — and replays them a window at a time:

* a window takes the next pending completions (at most one per
  context), completes each batch, claims the next guided batch and
  computes its completion time, all as array operations;
* it keeps the longest prefix whose new completions cannot overtake the
  window's later pops (the *prefix rule*, see :meth:`_window`) and
  merges the new completions back into the pending order;
* the claims land in an array-backed plan that :meth:`sync` commits
  **lazily** to the real pool as simulated time passes them, with one
  ``searchsorted`` and sums; the contexts themselves are written once
  each, from their last committed claim, just before one of them can
  next act (:meth:`_flush`);
* once the pool is virtually exhausted, each context gets one real
  wake-up event at its *final* batch completion (the first externally
  visible consequence: the context observes the empty pool, finishes,
  and releases its SM).

Identity contract (DESIGN.md §15): kernel-level timelines, preemption
points and completion orders stay bit-identical to the per-batch
reference loop. Three rules make that hold:

1. **Identical float-op order.** Claim sizes come from the same
   :func:`~repro.gpu.kernel.guided_claim` call as a context's own
   claim (:meth:`CTAContext._begin_next_batch`); durations use the same
   ``polls * poll_cost + batch * per_task`` expression; completion
   times are the same ``t + dur`` additions, elementwise in float64.
2. **Sync before observation.** The real pool and contexts lag behind
   the precomputed plan; any external read of pool state
   (:class:`~repro.gpu.kernel.TaskPool` properties) first applies every
   claim with ``claim_time <= now``. Claim times never exceed the pool's
   virtual-exhaustion time, which never exceeds any final-completion
   wake-up, so wake-ups always observe fully-synced state.
3. **Dissolve on interference.** A host flag write, an external pool
   mutation, or a foreign worker joining the pool dissolves the cohort
   *at host-write time* — strictly before the write's device visibility
   — reconstructing each context's in-flight batch with a real
   completion event (or, on a flag write, the yield event the write
   forces instead). Every poll boundary the reference loop observes
   after the write therefore also happens here, so no flag write is
   ever skipped (tested by a hypothesis property).
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from .events import maybe_cancel
from .kernel import guided_claim

if TYPE_CHECKING:  # pragma: no cover
    from .grid import Grid


#: First replay burst (in claims after the placement pass's first
#: claims); each continuation grows it 4x, so a quiescent chain converges
#: to full fast-forward in a handful of continuation events while an
#: interference-heavy one wastes at most a few tens of virtual claims
#: per absorb/dissolve cycle.
_CHUNK0 = 32

# Plan rows. Float plan: claim time, completion time of the claimed
# batch. Int plan: context index, batch completed at the claim instant,
# poll offset after it, batch claimed.
_T, _TN = 0, 1
_CTX, _DONE, _POST, _B = range(4)


def _polls(since, batch, L):
    """Flag polls while running ``batch`` tasks from poll offset
    ``since``: the boundaries at task indices ``(L - since) % L + m*L``
    below ``batch``. Equal to ``CTAContext._polls_in_batch`` for every
    ``0 <= since < L``, ``batch >= 0``; elementwise on arrays."""
    return (batch + (since - 1) % L) // L


# Sizes depend on nothing but these arguments and bursts are
# deterministic, so the pools of one kernel at one width ask for the same
# chunks; each entry holds at most one burst of sizes.
@functools.lru_cache(maxsize=256)
def _guided_chain(rem: int, width2: int, L: int, need: int) -> np.ndarray:
    """Sizes of the next ``need`` guided claims from ``rem`` unclaimed
    tasks (fewer if the pool runs out first). The returned array is
    shared through the cache, so it is read-only."""
    out = []
    while need > 0 and rem > 0:
        b = guided_claim(rem, width2, L)
        out.append(b)
        rem -= b
        need -= 1
    sizes = np.array(out, np.int64)
    sizes.setflags(write=False)
    return sizes


class MacroCohort:
    """One pool's fast-forwarded batch chain (see module docstring).

    A cohort spans *every* grid draining the pool — a spatially-degraded
    grid's survivors plus its resume/top-up grids claim interleaved from
    one pool, and that interleaving is just as closed as the single-grid
    case once each grid is fully placed and each flag quiet, as long as
    every grid sizes its claims alike.

    Contexts are indexed by their position in ``_ctxs``; per-context
    state lives in arrays under that index."""

    __slots__ = (
        "grids", "pool", "sim", "_dissolved", "_v_rem", "_chunk",
        "_cont", "_ctxs", "_obs", "_L", "_poll_cost", "_per_task",
        "_width2", "_chain", "_cpos",
        "_crem", "_since", "_batch", "_p_t", "_p_ctx", "_pf", "_pi", "_n",
        "_idx", "_flushed", "_base", "_next_t", "_cur_complete",
        "_claim_order",
    )

    def __init__(self, grid: "Grid", grids: List["Grid"], ctxs: list):
        #: every grid whose contexts the cohort absorbed
        self.grids = grids
        self._ctxs = ctxs
        self.pool = grid.pool
        self.sim = grid.sim
        self._dissolved = False
        #: virtual tasks left unclaimed at the replay front
        self._v_rem = 0
        #: claims allowed in the next continuation burst (grows 4x)
        self._chunk = 4 * _CHUNK0
        #: pending continuation event while the replay is paused
        self._cont = None
        #: plan: float rows (_T, _TN) and int rows (_CTX .. _B) of the
        #: replayed claims; position p has claim order ``_base + p``.
        #: [_idx, _n) is not committed yet; [_flushed, _idx) is committed
        #: to the pool but not yet written into the contexts. None once
        #: the plan is released.
        self._pf = np.empty((2, 64))
        self._pi = np.empty((4, 64), np.int64)
        self._n = 0
        self._idx = 0
        self._flushed = 0
        #: claim time of the first uncommitted claim (inf when none)
        self._next_t = math.inf

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def absorb(cls, grid: "Grid") -> bool:
        """Take over the pool's batch chain at the end of ``grid``'s
        placement pass. Returns False (changing nothing) if any
        precondition fails.

        ``grid``'s deferred first claims
        (:class:`~repro.gpu.cta.FirstClaims`) join the pending
        completions straight from their rows — no event was ever pushed
        for them, so there is none to cancel. Every other context of a
        pool grid must hold a pushed completion and no yield, and every
        grid must claim with the same guided sizes — one ``(2·width,
        L)`` — so that the claims form one size chain; otherwise the
        pool stays per batch.

        Preconditions checked by the caller (:meth:`Grid.try_macro`):
        every pool grid persistent and fully placed, every flag quiet at
        zero, every pool worker a context of those grids.
        """
        pool = grid.pool
        first = grid._first
        obs = first.ctxs[0]._obs
        ctxs = []
        # pending completion of each context in ``ctxs``: (time, order)
        t = []
        order = []
        held = []
        workers = pool._workers
        sizing = None
        for g in pool._grids:
            # the guided width is the larger of the grid's expected
            # concurrency and the pool-wide worker count — identical to
            # CTAContext's own claim — and constant while the cohort
            # lives: any join/leave dissolves it first
            width = g._parallel_width
            if workers > width:
                width = workers
            g_sizing = (2 * width, g._amortize_l)
            if sizing is None:
                sizing = g_sizing
            elif g_sizing != sizing:
                return False
            cs = g.contexts
            n = len(ctxs)
            # every context but the pass's has a pushed completion and no
            # yield
            for c in cs:
                ev = c._completion
                if ev is not None and c._yield_event is None and (
                    c._obs is obs  # sync charges one hook sink
                ):
                    held.append(c)
                    ctxs.append(c)
                    t.append(ev.time)
                    order.append(ev.seq)
            if g is grid:
                ctxs.extend(first.ctxs)
                t.extend(first.times)
                order.extend(first.seqs)
            if len(ctxs) - n != len(cs):
                return False
        for c in held:
            c._completion.cancel()
            c._completion = None

        cohort = cls(grid, list(pool._grids), ctxs)
        cohort._obs = obs
        # one size chain, memoized in chunks (_guided_chain); a persistent
        # context polls every L tasks, its grid's claim quantum, and the
        # pool's grids share one device, so one poll cost
        cohort._width2, cohort._L = sizing
        cohort._poll_cost = grid.costs.pinned_poll_us
        cohort._since = np.array([c._since_poll for c in ctxs], np.int64)
        cohort._batch = np.array([c._batch_size for c in ctxs], np.int64)
        cohort._per_task = np.array([c._per_task for c in ctxs])
        cohort._chain = np.empty(0, np.int64)
        cohort._cpos = 0
        cohort._crem = cohort._v_rem = pool._remaining
        # Pending completions, sorted by (time, order): pushed events
        # and deferred first claims by their engine seq. Virtual claims
        # order after all of them, in claim order — how the engine would
        # order events scheduled later.
        t = np.array(t)
        order = np.array(order)
        perm = np.lexsort((order, t))
        cohort._p_t = t[perm]
        cohort._p_ctx = perm
        # claim orders of virtual claims start above every engine seq
        cohort._base = grid.sim._seq + 1
        #: per context: the completion time and claim order of its
        #: committed in-flight batch (dissolve reconstructs from these)
        cohort._cur_complete = t
        cohort._claim_order = order

        cohort._replay(_CHUNK0)
        for g in cohort.grids:
            g._macro = cohort
        pool._cohort = cohort
        return True

    # ------------------------------------------------------------------
    # windowed virtual replay
    # ------------------------------------------------------------------
    def _replay(self, budget: int) -> None:
        """Fast-forward up to ``budget`` more claims, a window at a time.

        The replay pauses (scheduling one real continuation event at the
        next virtual completion instant) rather than running the whole
        chain eagerly: a host flag write dissolves the cohort and throws
        the unreached plan away, so preemption-heavy workloads would pay
        the full O(remaining batches) replay only to discard it. The
        burst grows 4x per continuation, so quiescent chains still
        collapse with only O(log) continuation events.
        """
        self._cont = None
        self._extend_chain(budget)
        while self._v_rem > 0:
            if budget <= 0:
                # pause: resume at the next completion instant (purely
                # internal — the plan extension is invisible until a
                # claim or final actually commits)
                self._cont = self.sim.schedule_at(
                    float(self._p_t[0]), self._continue, "macro-cont"
                )
                return
            budget -= self._window(budget)
        # final batches: each context observes the empty pool at its
        # pending completion and finishes — externally visible (SM
        # release), so these stay real events, scheduled in (time,
        # claim-order), matching the seq order of the reference loop
        sim = self.sim
        ctxs = self._ctxs
        for t, c in zip(self._p_t.tolist(), self._p_ctx.tolist()):
            ctx = ctxs[c]
            ctx._completion = sim.schedule_at(
                t, self._make_final(ctx), ctx._batch_label
            )
        self._p_t = self._p_ctx = self._chain = None

    def _continue(self) -> None:
        if not self._dissolved:
            budget = self._chunk
            self._chunk = budget * 4
            self._replay(budget)

    def _extend_chain(self, budget: int) -> None:
        """Extend the size chain to ``budget`` claims past the replay
        front (or to exhaustion)."""
        chain = self._chain
        need = budget - (chain.shape[0] - self._cpos)
        rem = self._crem
        if need <= 0 or rem <= 0:
            return
        sizes = _guided_chain(rem, self._width2, self._L, need)
        self._crem = rem - int(sizes.sum())
        self._chain = np.concatenate((chain[self._cpos:], sizes))
        self._cpos = 0

    def _window(self, budget: int) -> int:
        """Replay the next window of claims; returns how many it kept.

        The window is the next ``min(contexts, budget)`` pending
        completions, one per context. Its k-th claim is only valid if no
        earlier claim's new completion precedes the k-th pop: the window
        keeps the longest prefix whose running minimum of new completion
        times stays ``>=`` the next pop's time (ties go to the older
        entry — new order keys are always larger)."""
        n = self._p_t.shape[0]
        # the next guided sizes, stopping at virtual exhaustion
        pos = self._cpos
        b = self._chain[pos:pos + (n if n < budget else budget)]
        k = b.shape[0]
        ctx = self._p_ctx[:k]
        t = self._p_t[:k]
        L = self._L
        s0 = self._since[ctx]
        done = self._batch[ctx]
        s1 = (s0 + done) % L
        # the reference float-op order: polls*poll_cost + batch*per_task,
        # then t + dur
        tn = t + (
            _polls(s1, b, L) * self._poll_cost + b * self._per_task[ctx]
        )
        if k > 1:
            # validity is a prefix property (the running minimum only
            # falls, the pops only rise), so counting finds its length
            kept = 1 + int(np.count_nonzero(
                np.minimum.accumulate(tn[:-1]) >= t[1:]
            ))
            if kept < k:
                k = kept
                ctx, t, tn, done, s1, b = (
                    ctx[:k], t[:k], tn[:k], done[:k], s1[:k], b[:k],
                )
        self._since[ctx] = s1  # a window's contexts are distinct
        self._batch[ctx] = b
        self._keep(ctx, t, tn, done, s1, b)
        # merge the new completions back: the unreached pops are sorted
        # and order before every new entry, and the new entries order
        # among themselves in claim order — so a stable sort on time is
        # the (time, order) sort
        m_t = np.concatenate((self._p_t[k:], tn))
        perm = np.argsort(m_t, kind="stable")
        self._p_t = m_t[perm]
        self._p_ctx = np.concatenate((self._p_ctx[k:], ctx))[perm]
        return k

    def _keep(self, ctx, t, tn, done, s1, b) -> None:
        """Append replayed claims to the plan; advance the pool's replay
        front (the caller advances the contexts')."""
        k = ctx.shape[0]
        self._v_rem -= int(b.sum())
        self._cpos += k
        n = self._n
        if n + k > self._pf.shape[1]:
            # drop the committed head, grow if still short
            self._flush()
            i = self._idx
            live = n - i
            cap = self._pf.shape[1]
            while live + k > cap:
                cap *= 2
            pf = np.empty((2, cap))
            pi = np.empty((4, cap), np.int64)
            pf[:, :live] = self._pf[:, i:n]
            pi[:, :live] = self._pi[:, i:n]
            self._pf, self._pi = pf, pi
            self._base += i
            self._idx = self._flushed = 0
            n = live
        pf = self._pf
        pi = self._pi
        pf[_T, n:n + k] = t
        pf[_TN, n:n + k] = tn
        pi[_CTX, n:n + k] = ctx
        pi[_DONE, n:n + k] = done
        pi[_POST, n:n + k] = s1
        pi[_B, n:n + k] = b
        if self._idx == n:
            self._next_t = float(t[0])
        self._n = n + k

    def _make_final(self, ctx):
        def fire() -> None:
            # every claim precedes every final completion (claims stop
            # at pool exhaustion), so this sync commits the whole plan
            if not self._dissolved:
                self.sync(self.sim._now)
            ctx._on_batch_complete()
        return fire

    # ------------------------------------------------------------------
    # lazy commit
    # ------------------------------------------------------------------
    def sync(self, now: float) -> None:
        """Apply every planned claim with ``time <= now`` to the real
        pool. Idempotent; called by wake-ups, by TaskPool property reads,
        and by :meth:`dissolve`. Only the context itself reads its batch
        state, and only in a real event — a final completion or after a
        dissolve — so contexts are written back at those points
        (:meth:`_flush`), not here."""
        if now < self._next_t:
            return
        i = self._idx
        n = self._n
        pf = self._pf
        pi = self._pi
        j = i + int(np.searchsorted(pf[_T, i:n], now, "right"))
        done = pi[_DONE, i:j]
        # every counter below is purely additive (TaskPool.finish/take,
        # the hub's on_batch counters), so charging
        # the sums once is exactly equal to the reference loop's
        # per-batch charges
        sum_b = int(pi[_B, i:j].sum())
        sum_done = int(done.sum())
        pool = self.pool
        pool._remaining -= sum_b
        pool._outstanding += sum_b - sum_done
        pool._done += sum_done
        obs = self._obs
        if sum_done and obs.enabled:
            # polls from the offset before each completed batch
            L = self._L
            polls = int(_polls((pi[_POST, i:j] - done) % L, done, L).sum())
            obs.on_batch(sum_done, polls)
            # every claim pops a pending completion, so each collapsed
            # one batch event
            obs.on_macro_collapse(j - i)
        self._idx = j
        if j < n:
            self._next_t = float(pf[_T, j])
        else:
            self._next_t = math.inf
            if self._v_rem <= 0:
                # the whole chain is committed: the final completions
                # read their contexts next, so write them and free the
                # plan
                self._flush()
                self._pf = self._pi = None

    def _flush(self) -> None:
        """Write the committed, unwritten claims into their contexts:
        one write per context, from its last claim."""
        f = self._flushed
        i = self._idx
        if f == i:
            return
        self._flushed = i
        pf = self._pf
        pi = self._pi
        ctx = pi[_CTX, f:i]
        uniq, rev = np.unique(ctx[::-1], return_index=True)
        last = (i - 1) - rev
        self._cur_complete[uniq] = pf[_TN, last]
        self._claim_order[uniq] = self._base + last
        ctxs = self._ctxs
        for c, tasks, post, t, b in zip(
            uniq.tolist(),
            np.bincount(ctx, pi[_DONE, f:i])[uniq].tolist(),
            pi[_POST, last].tolist(),
            pf[_T, last].tolist(),
            pi[_B, last].tolist(),
        ):
            cx = ctxs[c]
            cx.tasks_done += int(tasks)
            cx._since_poll = post
            cx._batch_start = t
            cx._batch_size = b

    # ------------------------------------------------------------------
    # dissolution
    # ------------------------------------------------------------------
    def dissolve(self, now: float, replan: Optional["Grid"] = None) -> None:
        """Return the grid to per-batch eventing: commit history up to
        ``now``, drop the unreached plan, and rebuild each context's
        in-flight batch with a real completion event.

        Called at host flag-write time — strictly before the write's
        device visibility — and on any external pool interference, so
        the reference loop and the macro loop observe every subsequent
        poll boundary identically. On a flag write, ``replan`` is the
        grid whose flag it is: its contexts are replanned in the same
        pass, so a context that must yield gets its yield event instead
        of a completion, not both.
        """
        if self._dissolved:
            return
        self.sync(now)
        self._flush()
        self._dissolved = True
        maybe_cancel(self._cont)
        self._cont = None
        for g in self.grids:
            if g._macro is self:
                g._macro = None
        if self.pool._cohort is self:
            self.pool._cohort = None
        self._pf = self._pi = None
        self._p_t = self._p_ctx = self._chain = None
        self._next_t = math.inf
        sim = self.sim
        ctxs = self._ctxs
        cur_complete = self._cur_complete.tolist()
        claim_order = self._claim_order.tolist()
        # A context whose chain reached exhaustion holds its *final*-
        # completion event; one still mid-plan (paused replay) holds
        # none. Replace/install a completion for each context's current
        # in-flight batch. Scheduling order decides event seq numbers,
        # and the reference loop assigns them at claim time — so
        # reschedule in claim order (absorbed batches by engine seq,
        # committed claims by their larger virtual order), keeping
        # same-instant completions firing exactly as they would there.
        # The replanned grid's yields follow, in ctx-id order — the
        # order in which the reference loop replans after a write.
        # Contexts that already finished are skipped.
        live = [c for c, ctx in enumerate(ctxs) if ctx in ctx.grid.contexts]
        live.sort(key=claim_order.__getitem__)
        yields = []
        for c in live:
            ctx = ctxs[c]
            maybe_cancel(ctx._completion)
            ctx._completion = None
            if ctx.grid is replan and ctx._batch_size:
                plan = ctx._yield_plan()
                if plan is not None:
                    yields.append((ctx.ctx_id, ctx, plan))
                    continue
            t = cur_complete[c]
            ctx._completion = sim.schedule_at(
                t if t > now else now,
                ctx._on_batch_complete,
                ctx._batch_label,
            )
        yields.sort(key=lambda row: row[0])
        for _, ctx, plan in yields:
            ctx._schedule_yield(*plan)
