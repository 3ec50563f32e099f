"""The cluster front-end: route, rebalance, inject faults, roll up.

:class:`FleetSystem` is the multi-GPU analogue of
:class:`~repro.serving.server.ServingSystem` and shares its trace intake
(:class:`~repro.serving.server.TraceIntake`: ``add_trace`` /
``add_generator`` / ``submit_at``) and ``run`` API: tenants
send requests to one front door, a pluggable :mod:`routing <.routing>`
policy picks the node, each node (:mod:`.node`) runs its own
independently-clocked FLEP or MPS GPU, and the run ends in a
fleet-level :mod:`rollup <.rollup>`.

**Co-simulation.** Each node owns a private simulator, so the fleet is
N event loops that must agree on time whenever they interact. The
dispatcher runs a conservative protocol: it walks the global control
points in order — request arrivals, periodic work-stealing ticks, and
injected fault actions — and before acting at control point *t* it
advances **every** node's simulator to *t*. Routing, stealing and
faults therefore always observe node states at the decision time, and
because nothing else couples the nodes, whatever each simulator does
between control points cannot be invalidated later. Same seed, same
control points, same decisions: fleet runs are bit-reproducible —
*including* fault runs, which is what makes chaos testing replayable.

**Work stealing.** At each tick the rebalancer compares node loads and
migrates requests from the most- to the least-loaded node while the gap
exceeds ``steal_threshold_us`` and the move actually shrinks it. Only
*queued* requests move — a dispatched request belongs to its GPU (its
kernel state lives there) — and the steal API plus the fleet
conformance monitor (:mod:`repro.validate.fleet`) both enforce it.
Fenced nodes (draining, drained, down) never *receive* steals, but a
stalled or draining node's queue may still be stolen *from* — that is
the stealer rescuing work off a degraded node.

**Faults.** A :class:`~repro.fleet.faults.FaultPlan` expands to extra
control points. A ``crash`` reclaims the dead node's queued + held
requests and re-routes them through the active routing policy (no
re-admission — the fleet already accepted that work) while its
in-flight requests are terminal ``lost``; a ``drain`` fences routing
and stealing-in until the deadline sheds the leftovers (cause
``drain``); a ``stall`` pauses the node's dispatch pump; ``rejoin``
brings a crashed node back with a fresh backend. If a request finds
*no* routable node (total outage), it is ``lost`` at the front door —
never silently dropped. DESIGN.md §14 states the full invariants.

**Accounting.** One fleet-wide :class:`~repro.serving.slo.SLOTracker`
records every request (the ``flep_serving_*`` metric family therefore
reports fleet totals), and its records, each a
:class:`~repro.fleet.node.NodeRequest` the front door built, are the
only request list the fleet keeps; tenant rate limits are enforced once
at the front door (per-node enforcement would multiply every budget by
N); and the dispatcher adds the ``flep_fleet_*`` family for routing,
stealing, per-node load, and fault outcomes (reroutes / losses / drain
sheds).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import FleetError
from ..gpu.device import GPUDeviceSpec, device_from_spec, tesla_k40
from ..obs.recorder import Observability, adopt_hub
from ..runtime.models import model_bank
from ..serving.loadgen import merge_traces
from ..serving.server import TraceIntake
from ..serving.slo import SLOTracker
from ..serving.tenants import Tenant, TenantSet
from ..workloads.benchmarks import BenchmarkSuite, standard_suite
from ..workloads.synthetic import Arrival
from .faults import FAULT_KINDS, FaultAction, FaultEvent, FaultPlan, expand_plan
from .node import FleetNode, NodeConfig, NodeKnobs, NodeRequest
from .routing import RoutingPolicy, make_router
from .rollup import FleetReport, build_report


@dataclass
class FleetConfig(NodeKnobs):
    """Knobs of the whole fleet: every node's front-end knobs and
    dispatch window (``seed`` is offset by the node index), plus the
    fleet's own."""

    #: Execution mode per node (one entry per GPU); a heterogeneous
    #: fleet mixes e.g. ``["mps", "flep-temporal", "flep-spatial", ...]``.
    node_modes: Sequence[str] = ("flep-spatial", "flep-spatial")
    #: Per-node device specs (``"k40"``, ``"p100@40"``, …; see
    #: :func:`repro.gpu.device.device_from_spec`), one per node.
    #: ``None`` = every node runs the fleet's reference device.
    node_devices: Optional[Sequence[str]] = None
    #: Routing policy name (see :data:`repro.fleet.routing.ROUTERS`).
    routing: str = "deadline"
    #: Work-stealing rebalancer on/off.
    steal: bool = True
    #: Simulated time between rebalance ticks (µs).
    steal_interval_us: float = 500.0
    #: Minimum hot/cold load gap before any migration happens (µs).
    steal_threshold_us: float = 200.0
    #: Injected faults (``None``/empty plan = every node is immortal).
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if not self.node_modes:
            raise FleetError("a fleet needs at least one node")
        if (
            self.node_devices is not None
            and len(self.node_devices) != len(self.node_modes)
        ):
            raise FleetError(
                f"node_devices names {len(self.node_devices)} device(s) "
                f"for {len(self.node_modes)} node(s)"
            )
        if self.steal_interval_us <= 0:
            raise FleetError("steal_interval_us must be positive")
        if self.steal_threshold_us < 0:
            raise FleetError("steal_threshold_us must be >= 0")

    @property
    def n_nodes(self) -> int:
        return len(self.node_modes)

    def node_config(self, index: int) -> NodeConfig:
        """Node ``index``'s config: its mode and the shared knobs."""
        knobs = {f.name: getattr(self, f.name) for f in fields(NodeKnobs)}
        if self.seed is not None:
            knobs["seed"] = self.seed + index
        return NodeConfig(mode=self.node_modes[index], **knobs)


class FleetHook:
    """Observer interface for fleet-level events (monitors, metrics).

    The dispatcher and its nodes call these as things happen; the base
    class is all no-ops so hooks override only what they watch.
    """

    def on_route(self, req: NodeRequest, node: int) -> None:
        """``req`` was assigned to ``node`` by the routing policy."""

    def on_steal(self, req: NodeRequest, src: int, dst: int) -> None:
        """``req`` was migrated from node ``src`` to node ``dst``."""

    def on_dispatch(self, req: NodeRequest, node: int) -> None:
        """``req`` left the node queue and entered the backend runtime."""

    def on_resolve(self, req: NodeRequest, node: int) -> None:
        """``req`` reached a terminal state (done, shed, or lost) on
        ``node`` (``-1`` = lost at the front door: no routable node)."""

    def on_fault(self, event: FaultEvent, node: int) -> None:
        """Fault ``event`` was applied to ``node`` (fires after the
        node-level transition, so a rejoin hook sees the new backend)."""

    def on_reroute(self, req: NodeRequest, src: int, dst: int) -> None:
        """``req`` was reclaimed from crashed node ``src`` and re-routed
        to ``dst`` (fires mid-flight, like :meth:`on_steal`)."""

    def on_lost(self, req: NodeRequest, node: int) -> None:
        """``req`` died with crashed node ``node`` (or ``-1`` when no
        routable node existed to take it)."""

    def on_advance(self, now: float) -> None:
        """The dispatcher advanced every node to control point ``now``."""

    def finalize(self, fleet: "FleetSystem") -> None:
        """End-of-run checks after every node drained."""


class WorkStealer:
    """Hot→cold queue rebalancer (runs at dispatcher control points).

    At each tick: compare the most-loaded node owning stealable work
    with the least-loaded *routable* node; while the load gap exceeds
    the threshold *and* moving the hottest node's most-recent queue
    entry would shrink it, migrate that entry. The tail (not the head)
    moves because the head is next to dispatch where it is — migrating
    it would trade queue position for nothing. Fenced nodes (draining /
    drained / down) never receive work, but their queues may be stolen
    from — the stealer doubles as a rescue path off degraded nodes.
    """

    def __init__(self, threshold_us: float, max_per_tick: int = 2):
        self.threshold_us = threshold_us
        #: migration budget per tick (keeps rebalancing incremental)
        self.max_per_tick = max_per_tick

    def rebalance(
        self, nodes: Sequence[FleetNode], on_steal=None
    ) -> List[Tuple[NodeRequest, int, int]]:
        """Perform up to ``max_per_tick`` migrations; return the moves.

        ``on_steal(req, src, dst)`` (if given) fires mid-migration —
        after the request left its source, before the destination
        re-queues it — which is the instant the steal-safety monitor
        can observe the request's detached (``routed``) state.
        """
        moves: List[Tuple[NodeRequest, int, int]] = []
        if len(nodes) < 2:
            return moves
        while len(moves) < self.max_per_tick:
            loads = [n.load_us() for n in nodes]
            # hottest node that actually has queued (stealable) work
            candidates = [i for i in range(len(nodes)) if nodes[i].queue]
            # only routable nodes may receive migrated work
            sinks = [
                i for i in range(len(nodes))
                if getattr(nodes[i], "routable", True)
            ]
            if not candidates or not sinks:
                break
            src = max(candidates, key=lambda i: (loads[i], -i))
            dst = min(sinks, key=lambda i: (loads[i], i))
            gap = loads[src] - loads[dst]
            if src == dst or gap <= self.threshold_us:
                break
            req = nodes[src].peek_tail()
            if req is None or req.predicted_us >= gap:
                break  # the move would overshoot: leave it be
            nodes[src].take(req)
            if on_steal is not None:
                on_steal(req, src, dst)
            nodes[dst].accept_stolen(req)
            moves.append((req, src, dst))
        return moves


class FleetSystem(TraceIntake):
    """One multi-GPU serving run: route → execute → steal → roll up."""

    error_type = FleetError

    def __init__(
        self,
        tenants: Union[TenantSet, List[Tenant]],
        config: Optional[FleetConfig] = None,
        device: Optional[GPUDeviceSpec] = None,
        suite: Optional[BenchmarkSuite] = None,
        observability: Union[bool, Observability, None] = None,
    ):
        super().__init__(tenants)
        self.config = config or FleetConfig()
        #: fleet time: the last control point every node was advanced to
        self._now = 0.0
        self.obs = adopt_hub(observability, lambda: self._now)
        # The reference device + calibrated suite: routing and admission
        # budget every request against this one predictor, whatever
        # hardware the request lands on (a fleet-canonical cost).
        self.device = device or tesla_k40()
        self.suite = suite or standard_suite(self.device)
        self.faults = (
            self.config.faults if self.config.faults is not None
            else FaultPlan()
        )
        self.faults.check_nodes(self.config.n_nodes)
        # Heterogeneous hardware: resolve per-node specs, calibrating
        # one suite per *distinct* device (identical specs share; a
        # spec matching the reference device reuses the fleet suite).
        if self.config.node_devices is not None:
            cache: Dict[str, Tuple[GPUDeviceSpec, BenchmarkSuite]] = {}
            node_devices: List[GPUDeviceSpec] = []
            node_suites: List[BenchmarkSuite] = []
            for spec in self.config.node_devices:
                if spec not in cache:
                    dev = device_from_spec(spec)
                    s = self.suite if dev == self.device else standard_suite(dev)
                    cache[spec] = (dev, s)
                node_devices.append(cache[spec][0])
                node_suites.append(cache[spec][1])
        else:
            node_devices = [self.device] * self.config.n_nodes
            node_suites = [self.suite] * self.config.n_nodes
        self.tracker = SLOTracker(self.tenants, obs=self.obs)
        self.router: RoutingPolicy = make_router(self.config.routing)
        self.hooks: List[FleetHook] = []
        self.nodes: List[FleetNode] = [
            FleetNode(
                index=i,
                tenants=self.tenants,
                config=self.config.node_config(i),
                tracker=self.tracker,
                device=node_devices[i],
                suite=node_suites[i],
                hooks=self.hooks,
            )
            for i in range(self.config.n_nodes)
        ]
        self.stealer = WorkStealer(self.config.steal_threshold_us)
        self._models = None  # canonical duration predictor, built lazily
        self._next_req_id = 1
        self.steals: List[Tuple[float, int, int, int]] = []
        #: (t_us, action-kind, node) per applied fault control point.
        self.fault_log: List[Tuple[float, str, int]] = []
        #: (t_us, req_id, src, dst) per crash-reclaimed re-route.
        self.reroutes: List[Tuple[float, int, int, int]] = []
        #: (t_us, node, queue_len, load_us) from observed steal ticks,
        #: one only when a node's (queue_len, load_us) changed — the
        #: rollup exports them as per-node Chrome counter tracks, and a
        #: counter holds its value until the next sample
        self.load_samples: List[Tuple[float, int, int, float]] = []
        self._last_load: Dict[int, Tuple[int, float]] = {}
        self._ran = False
        if self.obs.enabled:
            m = self.obs.metrics
            self._m_routed = m.counter(
                "flep_fleet_routed_total",
                "requests assigned to each node by the routing policy",
                ("node",),
            )
            self._m_steals = m.counter(
                "flep_fleet_steals_total",
                "queued requests migrated between nodes",
                ("src", "dst"),
            )
            self._m_load = m.gauge(
                "flep_fleet_node_load_us",
                "admitted-but-unfinished predicted work per node (µs)",
                ("node",),
            )
            self._m_qlen = m.gauge(
                "flep_fleet_queue_len",
                "stealable (queued, undispatched) requests per node",
                ("node",),
            )
            self._m_attain = m.gauge(
                "flep_fleet_attainment_ratio",
                "fleet-wide fraction of SLO-carrying requests meeting it",
            )
            self._m_faults = m.counter(
                "flep_fleet_faults_total",
                "fault control points applied, by action kind and node",
                ("kind", "node"),
            )
            self._m_reroutes = m.counter(
                "flep_fleet_reroutes_total",
                "crash-reclaimed requests re-routed to a surviving node",
                ("src", "dst"),
            )
            self._m_lost = m.counter(
                "flep_fleet_lost_total",
                "requests lost to node crashes (node=none: total outage)",
                ("node",),
            )
            self._m_drain_shed = m.counter(
                "flep_fleet_drain_shed_total",
                "requests shed at a node's drain deadline",
                ("node",),
            )

    # ------------------------------------------------------------------
    # predictions
    # ------------------------------------------------------------------
    def predicted_us(self, kernel: str, input_name: str) -> float:
        """The fleet's one canonical duration prediction per request —
        routing and every node's admission all budget with the same
        number, whatever backend the request lands on."""
        if self._models is None:
            self._models = model_bank(
                self.suite, self.device, self.config.oracle_model,
                seed=self.config.seed or 0,
            )
        kspec = self.suite[kernel]
        return self._models.predict(kernel, kspec.input(input_name))

    # ------------------------------------------------------------------
    # co-simulation control loop
    # ------------------------------------------------------------------
    def _advance_all(self, until: float) -> None:
        for node in self.nodes:
            node.advance(until)
        self._now = until
        for hook in self.hooks:
            hook.on_advance(until)

    def _choose_node(self, req: NodeRequest, now: float) -> Optional[int]:
        """Run the routing policy over the *routable* nodes; returns the
        fleet index of the pick, or ``None`` on total outage."""
        routable = [n for n in self.nodes if n.routable]
        if not routable:
            return None
        pick = self.router.choose(req, routable, now)
        if not 0 <= pick < len(routable):
            raise FleetError(
                f"router {self.router.name!r} chose node {pick} of "
                f"{len(routable)} routable"
            )
        return routable[pick].index

    def _lose_unroutable(self, req: NodeRequest) -> None:
        """No routable node exists: the request is terminal ``lost`` at
        the front door (accounted, never silently dropped)."""
        req.state = "lost"
        req.node = None
        self.tracker.mark_lost(req)
        for hook in self.hooks:
            hook.on_lost(req, -1)
            hook.on_resolve(req, -1)
        if self.obs.enabled:
            self._m_lost.inc(node="none")

    def _route(self, arrival: Arrival) -> None:
        """One request through the front door at fleet time ``_now``."""
        now = self._now
        tenant = self.tenants[arrival.tenant]
        req = self.tracker.open_request(NodeRequest(
            req_id=self._next_req_id,
            tenant=tenant,
            arrived_us=now,
            kernel=arrival.kernel_name,
            input_name=arrival.input_name,
            predicted_us=self.predicted_us(
                arrival.kernel_name, arrival.input_name
            ),
        ))
        self._next_req_id += 1
        if self.rate_limited(tenant, now):
            self.tracker.mark_shed(req, rate_limited=True)
            return
        idx = self._choose_node(req, now)
        if idx is None:
            self._lose_unroutable(req)
            return
        for hook in self.hooks:
            hook.on_route(req, idx)
        if self.obs.enabled:
            self._m_routed.inc(node=str(idx))
        self.nodes[idx].enqueue(req)

    def _reroute(self, reclaimed: List[NodeRequest], src: int) -> None:
        """Live re-route requests reclaimed from crashed node ``src``
        through the active routing policy. Re-admission is skipped —
        the fleet already accepted this work — and a total outage turns
        each request terminal ``lost`` instead of dropping it."""
        now = self._now
        for req in reclaimed:
            idx = self._choose_node(req, now)
            if idx is None:
                self._lose_unroutable(req)
                continue
            self.nodes[src].stats.rerouted_out += 1
            self.reroutes.append((now, req.req_id, src, idx))
            for hook in self.hooks:
                hook.on_reroute(req, src, idx)
            if self.obs.enabled:
                self._m_reroutes.inc(src=str(src), dst=str(idx))
            self.nodes[idx].accept_rerouted(req)

    def _apply_fault(self, action: FaultAction) -> None:
        """One fault control point (every node already advanced here)."""
        now = self._now
        node = self.nodes[action.node]
        self.fault_log.append((now, action.kind, action.node))
        if self.obs.enabled:
            self._m_faults.inc(kind=action.kind, node=str(action.node))
        if action.kind == "crash":
            reclaimed, lost = node.crash(now)
            if self.obs.enabled:
                for _ in lost:
                    self._m_lost.inc(node=str(action.node))
            self._reroute(reclaimed, action.node)
        elif action.kind == "drain":
            node.begin_drain(now, action.event.deadline_us)
        elif action.kind == "drain-deadline":
            shed = node.finish_drain()
            if self.obs.enabled:
                for _ in shed:
                    self._m_drain_shed.inc(node=str(action.node))
        elif action.kind == "stall":
            node.stall(now, action.event.duration_us)
        elif action.kind == "unstall":
            node.unstall()
        elif action.kind == "rejoin":
            node.rejoin(now)
        else:  # pragma: no cover - expand_plan emits only the above
            raise FleetError(f"unknown fault action {action.kind!r}")
        # after the transition, so a rejoin hook sees the fresh backend
        if action.kind in FAULT_KINDS:
            for hook in self.hooks:
                hook.on_fault(action.event, action.node)

    def _steal_tick(self) -> None:
        now = self._now

        def record(req: NodeRequest, src: int, dst: int) -> None:
            self.steals.append((now, req.req_id, src, dst))
            for hook in self.hooks:
                hook.on_steal(req, src, dst)
            if self.obs.enabled:
                self._m_steals.inc(src=str(src), dst=str(dst))

        self.stealer.rebalance(self.nodes, on_steal=record)
        if not self.obs.enabled:
            return
        last = self._last_load
        for node in self.nodes:
            queue_len, load = node.queue_len, node.load_us()
            if last.get(node.index) != (queue_len, load):
                last[node.index] = (queue_len, load)
                self.load_samples.append((now, node.index, queue_len, load))
            self._m_load.set(load, node=str(node.index))
            self._m_qlen.set(queue_len, node=str(node.index))

    def run(self, until: Optional[float] = None) -> FleetReport:
        """Drive arrivals, faults, steal ticks, node drains; roll up."""
        if self._ran:
            raise FleetError("a FleetSystem runs once; build a new one")
        self._ran = True
        if not self._traces:
            raise FleetError("nothing to serve: add a trace or a submission")
        arrivals = merge_traces(*self._traces).sorted()
        actions = expand_plan(self.faults)
        cfg = self.config
        tick = cfg.steal_interval_us
        next_tick = tick if cfg.steal and len(self.nodes) > 1 else None
        i = fi = 0
        # Phase 1 — walk the merged control points (fault actions,
        # arrivals, steal ticks) in time order. Ties break fault first
        # (a crash at t kills before an arrival at t routes), then
        # arrival, then tick — one fixed order, so runs are replayable.
        while i < len(arrivals) or fi < len(actions):
            candidates = []
            if fi < len(actions):
                candidates.append((actions[fi].at_us, 0))
            if i < len(arrivals):
                candidates.append((arrivals[i].at_us, 1))
            if next_tick is not None and (until is None or next_tick <= until):
                candidates.append((next_tick, 2))
            t, kind = min(candidates)
            if until is not None and t > until:
                break
            self._advance_all(t)
            if kind == 0:
                self._apply_fault(actions[fi])
                fi += 1
            elif kind == 1:
                # all arrivals sharing this timestamp route back-to-back
                while i < len(arrivals) and arrivals[i].at_us == t:
                    self._route(arrivals[i])
                    i += 1
            else:
                self._steal_tick()
                next_tick += tick
        # Phase 2 — no more arrivals or faults: keep ticking while
        # stealable work remains (queued work implies pending node
        # events, so the tick times stay reachable — every stall and
        # drain deadline was already resolved in phase 1), then let
        # every surviving node drain.
        if next_tick is not None:
            while any(node.queue for node in self.nodes):
                if until is not None and next_tick > until:
                    break
                self._advance_all(next_tick)
                self._steal_tick()
                next_tick += tick
        for node in self.nodes:
            if until is None:
                node.drain()
            else:
                node.advance(until)
        self._now = max(node.sim.now for node in self.nodes)
        for hook in self.hooks:
            hook.finalize(self)
        report = build_report(self)
        if self.obs.enabled:
            if report.fleet_attainment is not None:
                self._m_attain.set(report.fleet_attainment)
            self.obs.finalize()
        return report

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetSystem({len(self.nodes)} nodes, "
            f"routing={self.config.routing!r}, now={self._now:.0f}us)"
        )
