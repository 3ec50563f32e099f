"""`flep bench`: the deterministic schedule-drift gate.

This module runs a fixed set of seeded simulator workloads and reports,
per scenario, the kernel-level ``schedule_hash`` and the engine block:
events, wall time, **simulated µs per wall-second** and peak queue
depth. ``flep bench --compare OLD.json`` fails (exit 3) on any scenario
whose hash differs from the old report's, and names it: schedules are
bit-reproducible at a budget, so a changed hash is a changed schedule,
never runner noise. The engine numbers are informational only; the
repository benchmark (``perfbench/``: fresh processes, alternating
runs, noise bounds) is the one speed ruler.

Each scenario runs twice, hook-free, each inside its own
:class:`~repro.obs.recorder.EngineWindow` that reads only the
simulators' own counters and the devices' schedule digests. The first
run is untimed: it warms lazy imports and memo caches so that one-time
cost stays out of the timed second run. The two runs must produce the
same hash, an in-process reproducibility check that costs nothing
extra. Reports are schema-versioned JSON files, written only when asked
for (``-o``).

Scenarios (all seeded, so the simulated *workload* — event counts, task
pulls, preemptions — is bit-identical between runs; only wall time
varies with the machine):

* ``serving_sweep`` — the multi-tenant serving stack under Poisson load
  at two offered rates (flep-spatial + EDF + admission);
* ``fig8_mix`` — canonical high-priority-first co-run pairs, the shape
  behind Figure 8's temporal preemptions (the follower arrives while the
  low kernel's launch is still in flight, so its drains are 0 µs);
* ``preempt_storm`` — one long batch kernel preempted by a train of
  short high-priority arrivals (drain mechanics dominated);
* ``fuzz_stress`` — seeded cases from the conformance fuzzer's
  generator, replayed without monitors (mixed modes and policies);
* ``fleet_sweep`` — a heterogeneous three-node fleet (spatial /
  temporal / MPS) under Poisson load with deadline routing and work
  stealing: the multi-simulator co-simulation path.

The workload sizes scale with ``--budget`` (``small`` is the one the
checked-in baseline pins). Heavy subsystem imports stay inside the
scenario bodies so ``repro.obs`` remains importable from the simulator
core.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from .recorder import EngineWindow

#: Report schema, the only one :meth:`BenchReport.from_dict` reads. v2
#: added the per-scenario ``schedule_hash`` (crc32 over the kernel-level
#: timeline, combined across devices) the drift gate compares; v3
#: dropped the environment stamps and the per-scenario ``profile``.
BENCH_SCHEMA = "flep-bench/3"

#: Workload scale factors per budget tier.
BUDGETS: Dict[str, float] = {"small": 0.5, "default": 1.0, "large": 3.0}


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def _scenario_serving_sweep(scale: float) -> Dict[str, object]:
    """Multi-tenant serving under Poisson load at two offered rates."""
    from ..serving import (
        PoissonLoadGen,
        ServingConfig,
        ServingSystem,
        Tenant,
        TenantSet,
    )

    requests = completed = 0
    for rate in (0.1, 0.25):
        tenants = TenantSet([
            Tenant("batch", priority=0),
            Tenant("interactive", priority=1, slo_us=2_000.0),
        ])
        server = ServingSystem(
            tenants,
            ServingConfig(
                mode="flep-spatial", policy="edf", seed=11,
                oracle_model=True,
            ),
        )
        server.submit_at(0.0, "batch", "VA", "large")
        server.add_generator(PoissonLoadGen(
            tenant="interactive",
            kernels=("SPMV", "MM", "PL"),
            rate_per_ms=rate,
            duration_ms=10.0 * scale,
            seed=11,
            input_names=("trivial",),
            priority=1,
        ))
        report = server.run()
        for row in report.tenants:
            requests += row.requests
            completed += row.completed
    return {"requests": requests, "completed": completed}


def _scenario_fig8_mix(scale: float) -> Dict[str, object]:
    """Figure-8-shaped HPF co-runs: low-priority large kernels preempted
    by high-priority small followers."""
    from ..core.flep import FlepSystem
    from ..runtime.engine import RuntimeConfig

    pairs = [("NN", "SPMV"), ("CFD", "MM"), ("PF", "PL"), ("MD", "VA")]
    repeats = max(1, round(scale))
    finished = 0
    for _ in range(repeats):
        for low, high in pairs:
            system = FlepSystem(
                policy="hpf", config=RuntimeConfig(oracle_model=True)
            )
            system.submit_at(0.0, f"low_{low}", low, "large", priority=0)
            system.submit_at(10.0, f"high_{high}", high, "small", priority=1)
            result = system.run()
            finished += sum(1 for inv in result.invocations if inv.finished)
    return {"co_runs": repeats * len(pairs), "invocations": finished}


def _scenario_preempt_storm(scale: float) -> Dict[str, object]:
    """One long batch kernel vs a train of short high-priority arrivals:
    temporal preemption mechanics dominate the event mix."""
    from ..core.flep import FlepSystem
    from ..runtime.engine import RuntimeConfig

    n_bursts = max(2, round(8 * scale))
    system = FlepSystem(
        policy="hpf",
        config=RuntimeConfig(oracle_model=True, spatial_enabled=False),
    )
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    for i in range(n_bursts):
        system.submit_at(
            200.0 + 2_500.0 * i, f"rt{i}", "SPMV", "trivial", priority=1
        )
    result = system.run()
    preemptions = sum(inv.record.preemptions for inv in result.invocations)
    return {"bursts": n_bursts, "preemptions": preemptions}


def _scenario_fuzz_stress(scale: float) -> Dict[str, object]:
    """Seeded cases from the fuzzer's generator (mixed modes/policies),
    replayed without monitors or oracles — raw simulator churn."""
    from ..serving.server import build_backend
    from ..validate.fuzz import generate_case, submit_jobs

    n_cases = max(4, round(12 * scale))
    invocations = 0
    for seed in range(n_cases):
        case = generate_case(seed)
        target = build_backend(case.mode, case.policy, oracle_model=True)
        submit_jobs(target, case)
        invocations += len(target.run().invocations)
    return {"cases": n_cases, "invocations": invocations}


def _scenario_fleet_sweep(scale: float) -> Dict[str, object]:
    """A small heterogeneous fleet under Poisson load: co-simulated
    multi-GPU dispatch, deadline routing and work stealing."""
    from ..fleet import FleetConfig, FleetSystem
    from ..serving import PoissonLoadGen, Tenant

    tenants = [
        Tenant("web", priority=2, slo_us=3_000.0),
        Tenant("analytics", priority=1, slo_us=25_000.0),
        Tenant("batch", priority=0),
    ]
    fleet = FleetSystem(tenants, FleetConfig(
        node_modes=("flep-spatial", "flep-temporal", "mps"),
        routing="deadline", oracle_model=True, seed=11,
    ))
    duration = 40.0 * scale
    fleet.add_generator(PoissonLoadGen(
        tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=1.5,
        duration_ms=duration, seed=11, input_names=("trivial",),
        priority=2,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="analytics", kernels=("SPMV", "MM"), rate_per_ms=0.4,
        duration_ms=duration, seed=12, input_names=("small",),
        priority=1,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.05,
        duration_ms=duration, seed=13, input_names=("large",),
        priority=0,
    ))
    report = fleet.run()
    return {
        "requests": sum(t.requests for t in report.serving.tenants),
        "steals": len(report.steals),
    }


@dataclass(frozen=True)
class BenchScenario:
    """One named macro-benchmark workload."""

    name: str
    run: Callable[[float], Dict[str, object]]
    description: str


SCENARIOS: Dict[str, BenchScenario] = {
    s.name: s
    for s in (
        BenchScenario(
            "serving_sweep", _scenario_serving_sweep,
            "multi-tenant serving under Poisson load (flep-spatial, EDF)",
        ),
        BenchScenario(
            "fig8_mix", _scenario_fig8_mix,
            "HPF co-run pairs (Figure 8's temporal-preemption shape)",
        ),
        BenchScenario(
            "preempt_storm", _scenario_preempt_storm,
            "long batch kernel preempted by a burst train (drain-heavy)",
        ),
        BenchScenario(
            "fuzz_stress", _scenario_fuzz_stress,
            "seeded fuzz-generator cases without monitors (mixed modes)",
        ),
        BenchScenario(
            "fleet_sweep", _scenario_fleet_sweep,
            "heterogeneous 3-node fleet, deadline routing + work stealing",
        ),
    )
}


# ---------------------------------------------------------------------------
# report model
# ---------------------------------------------------------------------------
@dataclass
class BenchReport:
    """One bench run: the budget plus per-scenario measurements."""

    budget: str
    scenarios: List[Dict[str, object]] = field(default_factory=list)
    schema: str = BENCH_SCHEMA

    def scenario(self, name: str) -> Dict[str, object]:
        """The named scenario's measurement dict."""
        for row in self.scenarios:
            if row["name"] == name:
                return row
        raise ObservabilityError(f"no scenario {name!r} in this report")

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view, exactly what the report file holds."""
        return {
            "schema": self.schema,
            "budget": self.budget,
            "scenarios": [dict(s) for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchReport":
        """Parse a loaded JSON document, validating the schema stamp."""
        schema = data.get("schema")
        if schema != BENCH_SCHEMA:
            raise ObservabilityError(
                f"unsupported bench schema {schema!r} "
                f"(this build reads {BENCH_SCHEMA!r})"
            )
        return cls(
            budget=str(data.get("budget", "")),
            scenarios=[dict(s) for s in data.get("scenarios", [])],
            schema=schema,
        )

    def write(self, path: str) -> None:
        """Serialize to ``path`` as indented JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def format(self) -> str:
        """Human-readable per-scenario table."""
        header = (
            f"{'scenario':16s} {'events':>10s} {'wall_s':>8s} "
            f"{'events/s':>12s} {'sim-s/wall-s':>12s} {'peak_q':>7s} "
            f"{'sched_hash':>10s}"
        )
        lines = [f"flep bench [{self.budget}]", header, "-" * len(header)]
        for s in self.scenarios:
            lines.append(
                f"{s['name']:16s} {s['events']:10d} {s['wall_s']:8.3f} "
                f"{s['events_per_sec']:12,.0f} "
                f"{s['sim_us_per_wall_s'] / 1e6:12.3f} "
                f"{s['peak_queue_depth']:7d} "
                f"{s['schedule_hash']:>10s}"
            )
        return "\n".join(lines)


def load_bench_report(path: str) -> BenchReport:
    """Load and schema-check a bench report file."""
    with open(path, "r", encoding="utf-8") as fh:
        return BenchReport.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
def run_bench(
    budget: str = "default",
    only: Optional[Sequence[str]] = None,
    on_progress: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> BenchReport:
    """Execute the suite: per scenario, one untimed warm-up run, then
    one timed run; both hook-free. ``only`` selects a subset by name.

    The warm-up keeps the scenario's one-time import and memo-cache
    cost out of the timed window, and its schedule hash must equal the
    timed run's: a scenario that does not replay its own schedule in
    one process raises :class:`ObservabilityError`.
    """
    if budget not in BUDGETS:
        raise ObservabilityError(
            f"unknown budget {budget!r} (have {sorted(BUDGETS)})"
        )
    scale = BUDGETS[budget]
    names = list(only) if only else list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ObservabilityError(
            f"unknown scenarios {unknown} (have {sorted(SCENARIOS)})"
        )
    report = BenchReport(budget=budget)
    for name in names:
        scenario = SCENARIOS[name]
        # every device built by the scenario registers its always-on
        # O(1)-memory digest here, and every simulator its event-loop
        # counters; neither adds a hook to the run
        with EngineWindow() as warm:
            scenario.run(scale)
        with EngineWindow() as window:
            extras = scenario.run(scale) or {}
        schedule_hash = window.schedule_hash()
        if schedule_hash != warm.schedule_hash():
            raise ObservabilityError(
                f"scenario {name!r} is not reproducible: its warm-up run "
                f"hashed {warm.schedule_hash()}, its timed run "
                f"{schedule_hash}"
            )
        row: Dict[str, object] = {
            "name": name,
            "description": scenario.description,
            "schedule_hash": schedule_hash,
            **window.engine_block(),
            "extras": dict(extras),
        }
        report.scenarios.append(row)
        if on_progress is not None:
            on_progress(name, row)
    return report


# ---------------------------------------------------------------------------
# comparison (the drift gate)
# ---------------------------------------------------------------------------
@dataclass
class CompareResult:
    """Old-vs-new schedule hashes, one row per old scenario."""

    rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def drifts(self) -> List[Dict[str, object]]:
        """Rows whose ``schedule_hash`` changed: the kernel-level
        timeline differs from the baseline's, which no amount of runner
        noise (or engine rework that honours the identity contract) can
        explain — schedules are bit-reproducible at a given budget."""
        return [r for r in self.rows if r["status"] == "drift"]

    def format(self) -> str:
        """One row per scenario: old hash, new hash, status."""
        header = f"{'scenario':16s} {'old':>10s} {'new':>10s}  status"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r['scenario']:16s} {r['old']:>10s} {r['new']:>10s}  "
                f"{r['status']}"
            )
        return "\n".join(lines)


def compare_reports(old: BenchReport, new: BenchReport) -> CompareResult:
    """Diff two bench reports' schedule hashes scenario by scenario.

    A mismatch is ``drift``: the kernel-level timeline changed, which
    the identity contract forbids across engine rework. A scenario the
    new report did not run (``--scenario``) is ``missing-in-new`` and
    not gated. Event counts and rates are engine-internal and
    host-dependent, so they are not compared.
    """
    result = CompareResult()
    new_by_name = {s["name"]: s for s in new.scenarios}
    for old_row in old.scenarios:
        name = old_row["name"]
        old_hash = str(old_row.get("schedule_hash") or "-")
        new_row = new_by_name.get(name)
        if new_row is None:
            new_hash, status = "-", "missing-in-new"
        else:
            new_hash = str(new_row.get("schedule_hash") or "-")
            status = "ok" if old_hash == new_hash else "drift"
        result.rows.append({
            "scenario": name, "old": old_hash, "new": new_hash,
            "status": status,
        })
    return result
