"""One fleet node: an independently-clocked simulated GPU behind a
per-node queue manager.

A :class:`FleetNode` wraps one per-GPU runtime — a
:class:`~repro.core.flep.FlepSystem` (temporal- or spatial-preemption
FLEP) or a plain :class:`~repro.baselines.mps_corun.MPSCoRun`, built and
fed by the serving layer's own front end
(:func:`~repro.serving.server.build_backend`,
:func:`~repro.serving.server.submit_request`) — behind a small queue
manager: routed requests wait in an explicit node queue, and at most
``max_inflight`` of them are dispatched into the backend runtime at a
time — except that on preemption-capable (FLEP) nodes a
queued request always bypasses a window full of strictly
lower-priority work, because the backend can preempt that work out of
its way (convoying it at the dispatch layer would silently undo the
preemption the backend exists to provide). That split is what makes
work stealing safe and cheap: only requests still in the node queue
(state ``queued``) are ever migrated; a request handed to the backend
(state ``dispatched``) belongs to that GPU until it completes.

Each node owns its **own simulator clock**. The cluster dispatcher
aligns the clocks at control points (arrivals, steal ticks, fault
events) by calling :meth:`FleetNode.advance`; between control points
nodes evolve independently, which is sound because nothing couples two
GPUs except dispatch-time routing and queue-level stealing.

**Node lifecycle** (fault injection, DESIGN.md §14)::

    up ──crash──▶ down ──rejoin──▶ up (fresh backend)
    up ──stall──▶ stalled ──unstall──▶ up
    up ──drain──▶ draining ──deadline──▶ drained

``up`` and ``stalled`` nodes are *routable*; ``draining`` nodes are
fenced (no new routing, no steals in) but keep dispatching their own
queue until the drain deadline; ``drained`` and ``down`` nodes hold no
work. Only ``down`` nodes stop advancing their clock — a crash freezes
the simulator so the in-flight kernels it was running can never
complete (they are accounted ``lost``).

Per-node SLO accounting reuses the serving layer unchanged: a
:class:`NodeRequest` is the request's one
:class:`~repro.serving.slo.RequestLog` plus its routing state, and the
node runs it through a (fleet-shared) SLO tracker and its own
:class:`~repro.serving.admission.AdmissionController` — admission
budgets against *this node's*
:class:`~repro.serving.admission.BacklogLedger`, so an overloaded node
sheds while an idle one accepts. Admission-delayed (``held``) requests
count toward the backlog the routing policies and the work stealer
observe: delayed work is still committed work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import FleetError
from ..core.flep import FlepSystem
from ..serving.admission import AdmissionController, BacklogLedger, Decision
from ..serving.server import (
    MODES,
    FrontEndKnobs,
    ServingConfig,
    build_backend,
    submit_request,
)
from ..serving.slo import RequestLog, SLOTracker
from ..serving.tenants import TenantSet

#: Node-queue request lifecycle (the steal-safety invariant is stated
#: over these): routed -> queued | held -> dispatched -> done, or a
#: terminal shed (admission or drain fencing) / lost (node crash).
REQUEST_STATES = (
    "routed", "queued", "held", "dispatched", "done", "shed", "lost",
)

#: Node lifecycle states (see the module docstring's diagram).
NODE_STATES = ("up", "stalled", "draining", "drained", "down")


@dataclass
class NodeKnobs(FrontEndKnobs):
    """The front-end knobs plus the dispatch window: what a node's
    config and a fleet's config (for every node) both declare."""

    #: Requests dispatched into the backend runtime at once; the rest
    #: wait in the (stealable) node queue. FLEP nodes exceed the window
    #: for requests that outrank everything in flight (preemptive
    #: dispatch — see ``_pump``).
    max_inflight: int = 4


@dataclass
class NodeConfig(NodeKnobs, ServingConfig):
    """Knobs of one fleet node: a serving front end's, plus the
    dispatch window."""

    def __post_init__(self):
        if self.mode not in MODES:
            raise FleetError(f"unknown node mode {self.mode!r} (have {MODES})")
        if self.max_inflight < 1:
            raise FleetError("max_inflight must be >= 1")


@dataclass(eq=False)
class NodeRequest(RequestLog):
    """A request's one record, plus the fleet's routing state."""

    state: str = "routed"
    #: Index of the node currently owning the request.
    node: Optional[int] = None
    #: Times this request was migrated by the work stealer.
    steals: int = 0
    #: Times this request was reclaimed from a failed/fenced node and
    #: re-routed by the dispatcher.
    reroutes: int = 0
    #: Node that actually completed it (for per-node attribution).
    completed_node: Optional[int] = None


@dataclass
class NodeStats:
    """Per-node counters the rollup aggregates."""

    routed: int = 0
    completed: int = 0
    shed: int = 0
    drain_shed: int = 0
    lost: int = 0
    delayed: int = 0
    stolen_in: int = 0
    stolen_out: int = 0
    rerouted_in: int = 0
    rerouted_out: int = 0
    rejoins: int = 0
    peak_queue: int = 0


class FleetNode:
    """One simulated GPU + queue manager inside the fleet.

    The backend, its request submission and the backlog ledger are the
    serving front end's (:mod:`repro.serving.server`); the node adds the
    stealable queue, the dispatch window and the lifecycle."""

    def __init__(
        self,
        index: int,
        tenants: TenantSet,
        config: Optional[NodeConfig] = None,
        tracker: Optional[SLOTracker] = None,
        device=None,
        suite=None,
        hooks: Optional[List] = None,
    ):
        self.index = index
        self.tenants = tenants
        self.config = config or NodeConfig()
        self.device = device
        self.suite = suite
        self._build_backend()
        #: Fleet-shared tracker (the dispatcher owns it); a standalone
        #: node builds its own so it stays usable in isolation/tests.
        self.tracker = tracker if tracker is not None else SLOTracker(tenants)
        self.admission = AdmissionController()
        #: dispatcher-owned hook list (monitors, metrics); shared object.
        self.hooks: List = hooks if hooks is not None else []
        self.queue: Deque[NodeRequest] = deque()
        self.inflight: Dict[int, NodeRequest] = {}
        #: Admission-delayed requests the node has promised to accept —
        #: they count as backlog (delayed work is committed work).
        self.held: Dict[int, NodeRequest] = {}
        self.stats = NodeStats()
        #: (preemptions, overhead µs) of the runtimes rejoins replaced
        self._retired_preemptions: Tuple[int, float] = (0, 0.0)
        self.backlog = BacklogLedger(self.config.mode)
        #: Lifecycle (see NODE_STATES); faults drive the transitions.
        self.state: str = "up"
        self.down_at: Optional[float] = None
        self.drain_deadline_us: Optional[float] = None
        self.stall_until_us: Optional[float] = None

    def _build_backend(self) -> None:
        """(Re)create the backend runtime; also used by :meth:`rejoin`."""
        cfg = self.config
        self.backend = build_backend(
            cfg.mode, cfg.policy, device=self.device, suite=self.suite,
            seed=cfg.seed, oracle_model=cfg.oracle_model,
        )
        self.system: Optional[FlepSystem] = (
            self.backend if isinstance(self.backend, FlepSystem) else None
        )
        self.sim = self.backend.sim

    # ------------------------------------------------------------------
    # clock control (dispatcher only)
    # ------------------------------------------------------------------
    def advance(self, until: float) -> None:
        """Run this node's simulator up to fleet time ``until``.

        Idle nodes (empty event queue) have their clock moved forward
        explicitly so a request routed at ``until`` is stamped at the
        fleet time, not at whenever the node last had work. A ``down``
        node never advances — its clock froze at the crash.
        """
        if self.state == "down" or until < self.sim.now:
            return
        self.sim.run(until=until)
        if self.sim.now < until:
            self.sim.advance_to(until)

    def drain(self) -> None:
        """Run this node to completion (no more control points)."""
        if self.state == "down":
            return
        self.sim.run()

    @property
    def idle(self) -> bool:
        return not self.queue and not self.inflight and self.sim.pending() == 0

    # ------------------------------------------------------------------
    # lifecycle (fault injection; dispatcher control points only)
    # ------------------------------------------------------------------
    @property
    def routable(self) -> bool:
        """May the routing policy (or the stealer) hand this node new
        work? Stalled nodes stay routable — they are slow, not gone —
        which is precisely the condition load-aware routing must beat
        round-robin under."""
        return self.state in ("up", "stalled")

    @property
    def active(self) -> bool:
        """Does this node's clock still advance?"""
        return self.state != "down"

    def crash(self, now: float) -> Tuple[List[NodeRequest], List[NodeRequest]]:
        """Kill the node at fleet time ``now``.

        Returns ``(reclaimed, lost)``: queued + held requests the
        dispatcher must re-route (they never touched the backend), and
        the in-flight requests that died with the GPU — those are
        marked terminal (``lost``) here, with the SLO tracker and the
        hooks told exactly once.
        """
        if self.state == "down":
            raise FleetError(f"node {self.index} is already down")
        self.backend.gpu.halt()
        reclaimed: List[NodeRequest] = []
        while self.queue:
            req = self.queue.popleft()
            req.state = "routed"
            req.node = None
            reclaimed.append(req)
        for req_id in sorted(self.held):
            req = self.held.pop(req_id)
            req.state = "routed"
            req.node = None
            reclaimed.append(req)
        lost: List[NodeRequest] = []
        for req_id in sorted(self.inflight):
            req = self.inflight.pop(req_id)
            req.state = "lost"
            self.stats.lost += 1
            self.tracker.mark_lost(req)
            self._notify("on_lost", req, self.index)
            self._notify("on_resolve", req, self.index)
            lost.append(req)
        self.backlog.clear()
        self.state = "down"
        self.down_at = now
        self.drain_deadline_us = None
        self.stall_until_us = None
        return reclaimed, lost

    def begin_drain(self, now: float, deadline_us: float) -> None:
        """Fence the node for a planned drain ending ``deadline_us``
        from now. It keeps dispatching its own queue until then."""
        if self.state != "up":
            raise FleetError(
                f"node {self.index} is {self.state}, only an up node drains"
            )
        self.state = "draining"
        self.drain_deadline_us = now + deadline_us

    def finish_drain(self) -> List[NodeRequest]:
        """Drain deadline reached: shed whatever is still queued or held
        (cause ``drain``), stop dispatching; in-flight work finishes on
        its own clock. Returns the drain-shed requests."""
        if self.state != "draining":
            raise FleetError(
                f"node {self.index} is {self.state}, not draining"
            )
        shed: List[NodeRequest] = []
        while self.queue:
            shed.append(self.queue.popleft())
        for req_id in sorted(self.held):
            shed.append(self.held.pop(req_id))
        for req in shed:
            self.backlog.sub(req)
            req.state = "shed"
            req.node = self.index
            self.stats.shed += 1
            self.stats.drain_shed += 1
            self.tracker.mark_shed(req, cause="drain")
            self._notify("on_resolve", req, self.index)
        self.state = "drained"
        self.drain_deadline_us = None
        return shed

    def stall(self, now: float, duration_us: float) -> None:
        """Freeze the dispatch window for ``duration_us`` (transient
        hiccup): in-flight work keeps running, the queue keeps filling."""
        if self.state != "up":
            raise FleetError(
                f"node {self.index} is {self.state}, only an up node stalls"
            )
        self.state = "stalled"
        self.stall_until_us = now + duration_us

    def unstall(self) -> None:
        """End a stall and immediately pump the backed-up queue."""
        if self.state != "stalled":
            raise FleetError(f"node {self.index} is {self.state}, not stalled")
        self.state = "up"
        self.stall_until_us = None
        self._pump()

    def rejoin(self, now: float) -> None:
        """A crashed node returns: fresh backend runtime, empty queue,
        clock aligned to fleet time ``now``."""
        if self.state != "down":
            raise FleetError(
                f"node {self.index} is {self.state}, only a down node rejoins"
            )
        self._retired_preemptions = self.preemptions()
        self._build_backend()
        self.sim.advance_to(now)
        self.state = "up"
        self.down_at = None
        self.stats.rejoins += 1

    def preemptions(self) -> Tuple[int, float]:
        """Preemptions this node's FLEP runtimes made and their total
        modelled overhead (µs), across every backend a rejoin replaced
        (preemptions of requests lost in a crash included)."""
        count, overhead = self._retired_preemptions
        if self.system is not None:
            rt = self.system.runtime
            for inv in rt.invocations:
                n = inv.record.preemptions
                if n:
                    count += n
                    overhead += n * rt.preemption_overhead_us(inv)
        return count, overhead

    # ------------------------------------------------------------------
    # load introspection (read-only; the routing-policy contract)
    # ------------------------------------------------------------------
    def load_us(self) -> float:
        """Admitted-but-unfinished predicted work on this node (µs),
        including admission-delayed (held) requests."""
        return self.backlog.total()

    def backlog_for(self, priority: int) -> float:
        """Backlog a request at ``priority`` waits behind
        (:meth:`BacklogLedger.ahead_of`). Held (admission-delayed)
        requests count: they are committed work the router and the
        stealer must see."""
        return self.backlog.ahead_of(priority)

    @property
    def queue_len(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    # request intake
    # ------------------------------------------------------------------
    def enqueue(self, req: NodeRequest) -> None:
        """Accept one routed request at the node's current clock."""
        if req.state != "routed":
            raise FleetError(
                f"request #{req.req_id} enqueued in state {req.state!r}"
            )
        if not self.routable:
            raise FleetError(
                f"request #{req.req_id} routed to node {self.index} "
                f"in state {self.state!r}"
            )
        req.node = self.index
        self.stats.routed += 1
        if not self.config.admission_enabled:
            self._accept(req)
            return
        verdict = self.admission.decide(
            req.tenant, self.sim.now, req.predicted_us,
            self.backlog_for(req.tenant.priority),
        )
        if verdict.decision is Decision.SHED:
            req.state = "shed"
            self.stats.shed += 1
            self.tracker.mark_shed(req)
            self._notify("on_resolve", req, self.index)
        elif verdict.decision is Decision.DELAY:
            req.state = "held"
            self.held[req.req_id] = req
            self.backlog.add(req)
            self.stats.delayed += 1
            self.tracker.mark_delayed(req)
            self.sim.schedule(
                verdict.hold_us, lambda: self._admit_held(req),
                label=f"fleet-delay:n{self.index}",
            )
        else:
            self._accept(req)

    def _admit_held(self, req: NodeRequest) -> None:
        """Delay expired: accept, unless the request was reclaimed (node
        crash) or shed (drain fence) while it waited — the held dict is
        the source of truth, a stale timer is a no-op."""
        if self.held.pop(req.req_id, None) is None:
            return
        self._accept(req, from_held=True)

    def _accept(self, req: NodeRequest, from_held: bool = False) -> None:
        """Admitted: join the (stealable) node queue and pump."""
        req.state = "queued"
        req.node = self.index
        if not from_held:
            self.backlog.add(req)
        self.queue.append(req)
        if len(self.queue) > self.stats.peak_queue:
            self.stats.peak_queue = len(self.queue)
        self._pump()

    # ------------------------------------------------------------------
    # work stealing (dispatcher's rebalancer only)
    # ------------------------------------------------------------------
    def peek_tail(self) -> Optional[NodeRequest]:
        """The most recently queued request — the steal candidate."""
        return self.queue[-1] if self.queue else None

    def take(self, req: NodeRequest) -> NodeRequest:
        """Remove a **queued** request for migration to another node.

        Raises :class:`FleetError` for any request the node no longer
        controls — dispatched, held, or resolved work is never migrated
        (the fleet conformance monitor re-checks this independently).
        """
        if req.state != "queued":
            raise FleetError(
                f"cannot steal request #{req.req_id}: state is "
                f"{req.state!r}, only queued requests migrate"
            )
        if req.req_id in self.inflight:
            raise FleetError(
                f"cannot steal request #{req.req_id}: dispatched on "
                f"node {self.index}"
            )
        try:
            self.queue.remove(req)
        except ValueError:
            raise FleetError(
                f"request #{req.req_id} is not queued on node {self.index}"
            ) from None
        self.backlog.sub(req)
        req.state = "routed"
        req.node = None
        self.stats.stolen_out += 1
        return req

    def accept_stolen(self, req: NodeRequest) -> None:
        """Take over a migrated request (no re-admission: it was already
        admitted by the node that first accepted it)."""
        if req.state != "routed":
            raise FleetError(
                f"stolen request #{req.req_id} arrives in state {req.state!r}"
            )
        if not self.routable:
            raise FleetError(
                f"node {self.index} is {self.state}: it cannot receive "
                f"stolen request #{req.req_id}"
            )
        req.steals += 1
        self.stats.stolen_in += 1
        self._accept(req)

    def accept_rerouted(self, req: NodeRequest) -> None:
        """Take over a request reclaimed from a crashed node. Like a
        steal, re-admission is skipped: the work was already admitted
        into the fleet and losing its node must not shed it twice."""
        if req.state != "routed":
            raise FleetError(
                f"re-routed request #{req.req_id} arrives in state "
                f"{req.state!r}"
            )
        if not self.routable:
            raise FleetError(
                f"node {self.index} is {self.state}: it cannot receive "
                f"re-routed request #{req.req_id}"
            )
        req.reroutes += 1
        self.stats.rerouted_in += 1
        self._accept(req)

    # ------------------------------------------------------------------
    # dispatch into the backend
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        if self.state in ("stalled", "drained", "down"):
            return
        while self.queue and len(self.inflight) < self.config.max_inflight:
            req = self.queue.popleft()
            self._dispatch(req)
        if self.config.mode == "mps":
            return
        # Preemptive dispatch (the FLEP property, lifted one layer up):
        # a full window of *lower-priority* kernels must not convoy a
        # higher-priority request at the dispatch layer — the backend
        # can preempt them, so hand the request over and let it. Without
        # this, a priority-p request waits behind in-flight work that
        # backlog_for(p) rightly excludes, and every estimate-driven
        # router (deadline, least-loaded) is systematically misled on
        # exactly the overloaded nodes it most needs to reason about.
        while self.queue and self.inflight:
            floor = min(
                r.tenant.priority for r in self.inflight.values()
            )
            idx = next(
                (i for i, r in enumerate(self.queue)
                 if r.tenant.priority > floor),
                None,
            )
            if idx is None:
                return
            req = self.queue[idx]
            del self.queue[idx]
            self._dispatch(req)

    def _dispatch(self, req: NodeRequest) -> None:
        req.state = "dispatched"
        self.inflight[req.req_id] = req
        self._notify("on_dispatch", req, self.index)
        submit_request(self.backend, req, lambda: self._on_complete(req))

    def _on_complete(self, req: NodeRequest) -> None:
        req.state = "done"
        req.completed_node = self.index
        del self.inflight[req.req_id]
        self.backlog.sub(req)
        self.stats.completed += 1
        self.tracker.mark_completed(req, self.sim.now)
        self._notify("on_resolve", req, self.index)
        self._pump()

    # ------------------------------------------------------------------
    def _notify(self, event: str, *args) -> None:
        for hook in self.hooks:
            getattr(hook, event)(*args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetNode#{self.index}({self.config.mode}, {self.state}, "
            f"now={self.sim.now:.0f}us, queue={len(self.queue)}, "
            f"inflight={len(self.inflight)})"
        )
