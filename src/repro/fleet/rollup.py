"""Fleet-wide result aggregation.

One :class:`FleetReport` per run: the fleet-level serving report (the
shared SLO tracker already sees every request, so per-tenant rows come
straight from :class:`~repro.serving.slo.SLOTracker.report`), one
:class:`NodeReport` per GPU with the requests *attributed* to it
(completed there, shed by its admission controller or drain fence, or
lost in its crash), and the work-stealing / fault ledgers. Attribution
follows the request, not the route: a stolen or re-routed request
counts for the node that finished it; a lost request counts against
the node that died holding it.

The report also carries a **conservation** summary — every request the
front door opened must end in exactly one terminal bucket (completed /
shed / rate-limited / lost), and ``accounted`` says whether the ledger
balances. The fleet conformance monitor asserts the same invariant
live; the report states it so a JSON artifact is self-checking.

When the fleet's observability hub is live, :func:`export_to_tracer`
retrospectively emits one Chrome-trace **process per node** — a
complete span per request served there plus queue-depth/load counter
tracks sampled at steal ticks — so ``flep obs``-style trace files show
the whole cluster side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import FleetError
from ..metrics.stats import percentiles
from ..serving.slo import ServingReport


@dataclass
class NodeReport:
    """One GPU's share of the fleet run."""

    node: int
    mode: str
    #: Hardware this node simulated (heterogeneous fleets differ here).
    device: str = ""
    num_sms: int = 0
    #: Lifecycle state at end of run (``up`` unless faults hit it).
    state: str = "up"
    makespan_us: float = 0.0
    routed: int = 0
    completed: int = 0
    shed: int = 0
    #: Of the sheds, how many hit the node's drain deadline.
    drain_shed: int = 0
    #: In-flight requests that died in this node's crash.
    lost: int = 0
    delayed: int = 0
    stolen_in: int = 0
    stolen_out: int = 0
    #: Crash-reclaimed requests this node received / surrendered.
    rerouted_in: int = 0
    rerouted_out: int = 0
    rejoins: int = 0
    peak_queue: int = 0
    p50_us: Optional[float] = None
    p95_us: Optional[float] = None
    p99_us: Optional[float] = None
    #: Attainment over this node's attributed SLO-carrying requests.
    attainment: Optional[float] = None
    goodput_rps: float = 0.0
    #: Preemption events and their total modeled overhead (FLEP nodes).
    preemptions: int = 0
    preempt_overhead_us: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class FleetReport:
    """The whole fleet run: per-tenant rows, per-node rows, ledgers."""

    horizon_us: float
    routing: str
    n_nodes: int
    serving: ServingReport
    nodes: List[NodeReport] = field(default_factory=list)
    #: (t_us, req_id, src, dst) per migration, in order.
    steals: List[Tuple[float, int, int, int]] = field(default_factory=list)
    #: (t_us, action-kind, node) per applied fault control point.
    faults: List[Tuple[float, str, int]] = field(default_factory=list)
    #: (t_us, req_id, src, dst) per crash-reclaimed re-route.
    reroutes: List[Tuple[float, int, int, int]] = field(default_factory=list)
    #: Requests lost fleet-wide (crash in-flight + total outage).
    lost: int = 0
    p50_us: Optional[float] = None
    p95_us: Optional[float] = None
    p99_us: Optional[float] = None
    #: Terminal-outcome ledger over every opened request; ``accounted``
    #: is True iff the buckets sum back to the opened count.
    conservation: Dict[str, object] = field(default_factory=dict)

    @property
    def fleet_attainment(self) -> Optional[float]:
        """Fraction of all SLO-carrying requests (sheds and losses
        included) that completed within their SLO, fleet-wide."""
        good = total = 0
        for row in self.serving.tenants:
            if row.attainment is None:
                continue
            total += row.requests
            good += round(row.attainment * row.requests)
        return good / total if total else None

    def node(self, index: int) -> NodeReport:
        for row in self.nodes:
            if row.node == index:
                return row
        raise FleetError(f"no node {index} in this report")

    def as_dict(self) -> Dict[str, object]:
        return {
            "horizon_us": self.horizon_us,
            "routing": self.routing,
            "n_nodes": self.n_nodes,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "fleet_attainment": self.fleet_attainment,
            "steals": len(self.steals),
            "faults": [
                {"t_us": t, "action": kind, "node": node}
                for t, kind, node in self.faults
            ],
            "reroutes": len(self.reroutes),
            "lost": self.lost,
            "conservation": dict(self.conservation),
            "serving": self.serving.as_dict(),
            "nodes": [n.as_dict() for n in self.nodes],
        }

    def format(self) -> str:
        def fmt_us(v: Optional[float]) -> str:
            return f"{v:.0f}" if v is not None else "-"

        def fmt_pct(v: Optional[float]) -> str:
            return f"{100.0 * v:.1f}%" if v is not None else "-"

        header = (
            f"{'node':>4s} {'mode':14s} {'device':10s} {'st':>2s} "
            f"{'routed':>6s} {'done':>6s} {'shed':>5s} {'lost':>4s} "
            f"{'in':>4s} {'out':>4s} {'p99us':>8s} "
            f"{'attain':>7s} {'goodput':>8s} {'preempt':>7s}"
        )
        head = (
            f"fleet: {self.n_nodes} nodes, routing={self.routing}, "
            f"{len(self.steals)} steals, "
            f"p99={fmt_us(self.p99_us)}us, "
            f"attainment={fmt_pct(self.fleet_attainment)}"
        )
        if self.faults:
            head += (
                f", {len(self.faults)} fault actions, "
                f"{len(self.reroutes)} reroutes, {self.lost} lost"
            )
        lines = [head, header, "-" * len(header)]
        for n in self.nodes:
            dev = f"{n.device}@{n.num_sms}" if n.device else "-"
            lines.append(
                f"{n.node:4d} {n.mode:14s} {dev:10s} {n.state[:2]:>2s} "
                f"{n.routed:6d} {n.completed:6d} {n.shed:5d} {n.lost:4d} "
                f"{n.stolen_in:4d} {n.stolen_out:4d} "
                f"{fmt_us(n.p99_us):>8s} {fmt_pct(n.attainment):>7s} "
                f"{n.goodput_rps:7.1f}/s {n.preemptions:7d}"
            )
        lines.append("")
        lines.append(self.serving.format())
        return "\n".join(lines)


def _short_device_name(device) -> str:
    """``"Tesla K40"`` → ``"k40"``-style compact label for reports."""
    if device is None:
        return ""
    return device.name.split()[-1].lower()


def build_report(fleet) -> FleetReport:
    """Aggregate one finished :class:`~repro.fleet.dispatcher.FleetSystem`."""
    horizon_us = max(node.sim.now for node in fleet.nodes)
    serving = fleet.tracker.report(horizon_us=horizon_us)
    report = FleetReport(
        horizon_us=horizon_us,
        routing=fleet.config.routing,
        n_nodes=len(fleet.nodes),
        serving=serving,
        steals=list(fleet.steals),
        faults=list(getattr(fleet, "fault_log", [])),
        reroutes=list(getattr(fleet, "reroutes", [])),
    )
    requests = fleet.tracker.requests
    all_lat = [r.latency_us for r in requests if r.latency_us is not None]
    if all_lat:
        report.p50_us, report.p95_us, report.p99_us = percentiles(all_lat)
    # conservation ledger: every opened request in exactly one bucket
    outcomes = {"completed": 0, "shed": 0, "rate_limited": 0, "lost": 0}
    pending = 0
    for r in requests:
        if r.outcome in outcomes:
            outcomes[r.outcome] += 1
        else:
            pending += 1
    report.lost = outcomes["lost"]
    report.conservation = {
        "opened": len(requests),
        **outcomes,
        "pending": pending,
        "accounted": pending == 0
        and sum(outcomes.values()) == len(requests),
    }
    horizon_s = max(horizon_us, 1.0) / 1e6
    for node in fleet.nodes:
        row = NodeReport(
            node=node.index,
            mode=node.config.mode,
            device=_short_device_name(node.device),
            num_sms=node.device.num_sms if node.device is not None else 0,
            state=node.state,
            makespan_us=node.sim.now,
            routed=node.stats.routed,
            completed=node.stats.completed,
            shed=node.stats.shed,
            drain_shed=node.stats.drain_shed,
            lost=node.stats.lost,
            delayed=node.stats.delayed,
            stolen_in=node.stats.stolen_in,
            stolen_out=node.stats.stolen_out,
            rerouted_in=node.stats.rerouted_in,
            rerouted_out=node.stats.rerouted_out,
            rejoins=node.stats.rejoins,
            peak_queue=node.stats.peak_queue,
        )
        # Attribution follows the request: completions by the node that
        # ran them, sheds by the node whose admission controller or
        # drain fence dropped them, losses by the node that died
        # holding them (front-door losses and rate-limited requests
        # attribute to no node).
        mine = [
            r for r in requests
            if (r.completed_node == node.index)
            or (r.state in ("shed", "lost") and r.node == node.index)
        ]
        latencies = []
        good = slo_total = 0
        for r in mine:
            if r.latency_us is not None:
                latencies.append(r.latency_us)
            if r.slo_us is not None:
                slo_total += 1
                if r.slo_met:
                    good += 1
        if latencies:
            row.p50_us, row.p95_us, row.p99_us = percentiles(latencies)
        if slo_total:
            row.attainment = good / slo_total
            row.goodput_rps = good / horizon_s
        else:
            row.goodput_rps = row.completed / horizon_s
        row.preemptions, row.preempt_overhead_us = node.preemptions()
        report.nodes.append(row)
    if fleet.obs.enabled:
        export_to_tracer(fleet)
    return report


def export_to_tracer(fleet) -> None:
    """Emit per-node Chrome-trace processes into the fleet's obs hub.

    Retrospective (`tracer.complete` / `counter_at`): the per-node
    simulators have already drained, so every span is closed and every
    counter sample carries its original timestamp.
    """
    tracer = fleet.obs.tracer
    for req in fleet.tracker.requests:
        if req.completed_node is None:
            continue
        tracer.complete(
            f"req#{req.req_id} {req.kernel}[{req.input_name}]",
            start_us=req.arrived_us,
            end_us=req.finished_us,
            cat="fleet",
            process=f"node:{req.completed_node}",
            track=req.tenant.priority,
            tenant=req.tenant.name,
            steals=req.steals,
        )
    for t_us, node, queue_len, load_us in fleet.load_samples:
        tracer.counter_at(
            "fleet_queue", t_us, process=f"node:{node}",
            queued=queue_len, load_us=load_us,
        )
