"""The benchmark's three workloads, built only through the public API.

Every workload is an open loop: the arrival trace is generated here from
the benchmark seed, up front, and handed to the simulator whole; the
simulator never sees the seed. Node, model and GPU seeds stay fixed at
``SYSTEM_SEED`` so that a seed change moves the inputs and nothing else.
Each tenant's stream is Poisson conditioned on its expected count (see
``poisson_stream``), so every seed asks for the same amount of work.

* ``fleet_scale`` — the CI bench-scale fleet as ``flep fleet`` configures
  it, without monitors: 4 ``flep-spatial`` K40 nodes, 6 tenants in the
  web/analytics/batch mix, 0.2 requests/ms each for 600 ms of ``small``
  SPMV/MM/PL, deadline routing, EDF, work stealing. Macro replay, CTA
  batches and dispatch carry the run; it installs no monitors, so it is
  the no-change control for monitor work.
* ``serving_preempt`` — one K40 under ``flep-temporal`` + HPF with
  admission: a batch tenant submits a ``large`` VA/NN/CFD/MD kernel every
  20 ms while a 2 ms-SLO interactive tenant sends 2.0 ``trivial``
  requests/ms for 300 ms. Hundreds of temporal preemptions keep
  dissolving macro cohorts, so the per-batch CTA path, dispatch and the
  runtime policy do the work.
* ``fleet_checked`` — ``fleet_scale`` cut to 150 ms, with the full
  conformance monitor bundle installed (``require_complete=True``) and
  finalized, as ``flep fleet`` runs it: the monitors and the ``TaskPool``
  syncs they trigger dominate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.fleet import FleetConfig, FleetSystem
from repro.gpu.trace import collected_schedule_hashes, combined_schedule_hash
from repro.metrics.stats import percentile
from repro.serving import (
    ServingConfig,
    ServingSystem,
    Tenant,
    TenantSet,
)
from repro.validate import install_monitors
from repro.workloads.synthetic import Arrival, ArrivalTrace

#: Seed of every simulator-internal RNG (node jitter, model training).
SYSTEM_SEED = 7

FLEET_NODES = 4
FLEET_TENANTS = 6
FLEET_RATE_PER_MS = 0.2
FLEET_SLO_US = 4000.0
FLEET_KERNELS = ("SPMV", "MM", "PL")

SERVING_BATCH_KERNELS = ("VA", "NN", "CFD", "MD")
SERVING_BATCH_PERIOD_MS = 20.0
SERVING_RATE_PER_MS = 2.0
SERVING_SLO_US = 2000.0

#: Arrival window of each workload at full size (ms).
DURATION_MS = {
    "fleet_scale": 600.0,
    "serving_preempt": 300.0,
    "fleet_checked": 150.0,
}

NAMES = tuple(DURATION_MS)


def fleet_tenants() -> TenantSet:
    """The ``flep fleet`` tenant mix: interactive web (tight SLO, high
    priority), analytics (5x looser SLO), best-effort batch."""
    tenants = []
    for i in range(FLEET_TENANTS):
        tier = i % 3
        if tier == 0:
            tenants.append(Tenant(f"web{i}", priority=2, slo_us=FLEET_SLO_US))
        elif tier == 1:
            tenants.append(Tenant(
                f"analytics{i}", priority=1, slo_us=5.0 * FLEET_SLO_US,
            ))
        else:
            tenants.append(Tenant(f"batch{i}", priority=0))
    return TenantSet(tenants)


def serving_tenants() -> TenantSet:
    return TenantSet([
        Tenant("batch", priority=0),
        Tenant("interactive", priority=1, slo_us=SERVING_SLO_US),
    ])


def poisson_stream(tenant: str, kernels, rate_per_ms: float,
                   window_ms: float, seed: str, input_name: str,
                   priority: int) -> ArrivalTrace:
    """A Poisson stream conditioned on sending its expected count.

    Exactly ``round(rate * window)`` arrivals, at times drawn uniformly
    over the window — how a Poisson process's arrivals fall once their
    count is known — with every kernel sent equally often, in a seeded
    order. The seed moves arrival times and kernel order; the amount of
    work and the simulated horizon stay the same, so runs on different
    seeds measure the same work.
    """
    rng = random.Random(seed)
    count = max(1, round(rate_per_ms * window_ms))
    times = sorted(rng.uniform(0.0, window_ms * 1000.0) for _ in range(count))
    names = [kernels[i % len(kernels)] for i in range(count)]
    rng.shuffle(names)
    return ArrivalTrace(arrivals=[
        Arrival(at_us=t, kernel_name=k, input_name=input_name,
                priority=priority, tenant=tenant)
        for t, k in zip(times, names)
    ])


def arrivals(name: str, seed: int, scale: float = 1.0) -> List[ArrivalTrace]:
    """The workload's open-loop input, a pure function of ``seed``."""
    duration = DURATION_MS[name] * scale
    if name == "serving_preempt":
        # the batch jobs cycle through their kernels in a fixed order, so
        # the run's drain tail (the last batch job running alone) is the
        # same for every seed; the seed drives the interactive stream
        n_batch = int(duration // SERVING_BATCH_PERIOD_MS) + 1
        batch = ArrivalTrace(arrivals=[
            Arrival(
                at_us=k * SERVING_BATCH_PERIOD_MS * 1000.0,
                kernel_name=SERVING_BATCH_KERNELS[
                    k % len(SERVING_BATCH_KERNELS)
                ],
                input_name="large", tenant="batch",
            )
            for k in range(n_batch)
        ])
        interactive = poisson_stream(
            "interactive", FLEET_KERNELS, SERVING_RATE_PER_MS, duration,
            f"{seed}:interactive", "trivial", priority=1,
        )
        return [batch, interactive]
    return [
        poisson_stream(t.name, FLEET_KERNELS, FLEET_RATE_PER_MS, duration,
                       f"{seed}:{t.name}", "small", t.priority)
        for t in fleet_tenants()
    ]


@dataclass
class Built:
    """A constructed system with its inputs submitted, not yet run."""

    name: str
    system: object
    traces: List[ArrivalTrace]
    schedules: list
    monitors: Optional[object] = None
    report: Optional[object] = None

    @property
    def n_arrivals(self) -> int:
        return sum(len(t.arrivals) for t in self.traces)

    def simulators(self) -> list:
        nodes = getattr(self.system, "nodes", None)
        if nodes is not None:
            return [node.sim for node in nodes]
        return [self.system.sim]

    def devices(self) -> list:
        nodes = getattr(self.system, "nodes", None)
        systems = (
            [node.system for node in nodes] if nodes is not None
            else [self.system.system]
        )
        return [s.gpu for s in systems]


def build(name: str, seed: int, scale: float = 1.0) -> Built:
    """Construct ``name``'s system and submit its arrivals (set-up)."""
    traces = arrivals(name, seed, scale)
    with collected_schedule_hashes() as schedules:
        if name == "serving_preempt":
            system = ServingSystem(
                serving_tenants(),
                ServingConfig(
                    mode="flep-temporal", policy="hpf", admission=True,
                    seed=SYSTEM_SEED,
                ),
            )
        else:
            system = FleetSystem(
                fleet_tenants(),
                FleetConfig(
                    node_modes=["flep-spatial"] * FLEET_NODES,
                    routing="deadline", policy="edf", seed=SYSTEM_SEED,
                ),
            )
    monitors = None
    if name == "fleet_checked":
        monitors = install_monitors(system, require_complete=True)
    for trace in traces:
        system.add_trace(trace)
    # Train and cache every duration prediction the run will ask for, so
    # model training is set-up work, not part of the timed run.
    for trace in traces:
        for a in trace.arrivals:
            system.predicted_us(a.kernel_name, a.input_name)
    return Built(name, system, traces, schedules, monitors)


TAIL_PERCENTILES = (99.0, 95.0, 90.0)
MIN_BEYOND = 10


@dataclass
class Outcome:
    """What one run produced, checked."""

    attempted: int
    failed: int
    horizon_us: float
    schedule_hash: str
    latencies_us: List[float] = field(default_factory=list)
    slo_requests: int = 0
    slo_met: int = 0
    ledger: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def terminal(self) -> int:
        return self.attempted - self.ledger.get("pending", 0)

    def tail(self):
        """(percentile, samples beyond it, value): the highest of
        p99/p95/p90 with at least ``MIN_BEYOND`` samples beyond it
        (p90 when none has)."""
        n = len(self.latencies_us)
        q = next(
            (q for q in TAIL_PERCENTILES
             if n * (100.0 - q) / 100.0 >= MIN_BEYOND),
            TAIL_PERCENTILES[-1],
        )
        beyond = int(n * (100.0 - q) / 100.0)
        return q, beyond, percentile(self.latencies_us, q)

    def sim_metrics(self) -> Dict[str, float]:
        q, beyond, tail = self.tail()
        return {
            "sim_p50_latency_us": percentile(self.latencies_us, 50.0),
            "sim_tail_latency_us": tail,
            "sim_tail_percentile": q,
            "sim_tail_beyond": beyond,
            "slo_attainment": self.slo_met / self.slo_requests,
        }


def outcome(built: Built) -> Outcome:
    """Read the finished run's request logs and check them.

    The checks: every submitted arrival was opened as a request, every
    request reached a terminal outcome, and (on a fleet) the rollup's
    conservation ledger closes. A failed check fails every request of
    the run; otherwise shed, rate-limited and lost requests are the
    failed ones.
    """
    logs = list(built.system.tracker.requests)
    attempted = max(len(logs), built.n_arrivals)
    ledger = {"completed": 0, "shed": 0, "rate_limited": 0, "lost": 0,
              "pending": 0}
    for log in logs:
        ledger[log.outcome if log.outcome in ledger else "pending"] += 1
    errors = []
    if len(logs) != built.n_arrivals:
        errors.append(
            f"{built.n_arrivals} arrivals submitted, {len(logs)} opened"
        )
    if ledger["pending"]:
        errors.append(f"{ledger['pending']} requests never reached an outcome")
    if built.report is not None and hasattr(built.report, "conservation"):
        if not built.report.conservation.get("accounted"):
            errors.append(
                f"fleet conservation ledger open: {built.report.conservation}"
            )
    horizon = max(sim.now for sim in built.simulators())
    lat = []
    slo_requests = slo_met = 0
    for log in logs:
        if log.slo_us is None:
            continue
        slo_requests += 1
        if log.slo_met:
            slo_met += 1
        if log.latency_us is not None:
            lat.append(log.latency_us)
    if not lat:
        errors.append("no SLO-carrying request completed")
    lost = ledger["shed"] + ledger["rate_limited"] + ledger["lost"]
    return Outcome(
        attempted=attempted,
        failed=attempted if errors else lost,
        horizon_us=horizon,
        schedule_hash=combined_schedule_hash(
            [s.hexdigest for s in built.schedules]
        ),
        latencies_us=lat,
        slo_requests=slo_requests,
        slo_met=slo_met,
        ledger=ledger,
        errors=errors,
    )
