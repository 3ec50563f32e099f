"""`flep bench`: the deterministic macro-benchmark suite.

FLEP's argument is about overhead, so the reproduction must be able to
measure *itself*: this module runs a fixed set of simulator workloads
and reports, per scenario, the kernel-level ``schedule_hash``, the
engine block — events, **simulated-seconds per wall-second** (how much
GPU time one CPU second buys), peak queue depth — and the hot-loop
counts of the self-profile.

Each scenario runs twice, each inside its own
:class:`~repro.obs.recorder.EngineWindow`. The first run is observed
(the window's :class:`~repro.obs.recorder.Observability` hub takes the
``profile`` counts) and untimed; it also warms imports and memo caches.
The second run is the timed one: hook-free, its window only reading the
simulators' own counters and the devices' schedule digests, so its wall
time measures the path users run. Results are
written as schema-versioned ``BENCH_<date>_<git-sha>.json`` files,
forming the repo's tracked performance trajectory; ``flep bench
--compare OLD.json`` diffs two snapshots and exits nonzero on a >15 %
drop in sim-µs per wall-second. ``events_per_sec`` is still reported
but not gated: macro cohorts collapse events, so event rates of two
engine versions measure different work.

Scenarios (all seeded, so the simulated *workload* — event counts, task
pulls, preemptions — is bit-identical between runs; only wall time
varies with the machine):

* ``serving_sweep`` — the multi-tenant serving stack under Poisson load
  at two offered rates (flep-spatial + EDF + admission);
* ``fig8_mix`` — canonical high-priority-first co-run pairs, the shape
  behind Figure 8's temporal preemptions;
* ``preempt_storm`` — one long batch kernel preempted by a train of
  short high-priority arrivals (drain mechanics dominated);
* ``fuzz_stress`` — seeded cases from the conformance fuzzer's
  generator, replayed without monitors (mixed modes and policies);
* ``fleet_sweep`` — a heterogeneous three-node fleet (spatial /
  temporal / MPS) under Poisson load with deadline routing and work
  stealing: the multi-simulator co-simulation path.

The workload sizes scale with ``--budget`` (``small`` for CI smoke,
``default`` for the tracked trajectory, ``large`` for profiling
sessions). Heavy subsystem imports stay inside the scenario bodies so
``repro.obs`` remains importable from the simulator core.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ObservabilityError
from .recorder import EngineWindow

#: Current report schema. v2 added the per-scenario ``schedule_hash``
#: (crc32 over the kernel-level timeline, combined across devices) and
#: re-keyed the drift gate to it; v1 files are still readable — their
#: hash rows compare as ``no-baseline``.
BENCH_SCHEMA = "flep-bench/2"

#: Schemas :meth:`BenchReport.from_dict` accepts.
COMPAT_SCHEMAS = ("flep-bench/1", "flep-bench/2")

#: Workload scale factors per budget tier.
BUDGETS: Dict[str, float] = {"small": 0.5, "default": 1.0, "large": 3.0}

#: Relative drop in a gated metric that counts as a regression.
DEFAULT_REGRESSION_THRESHOLD = 0.15

#: Metrics compared between reports; all are higher-is-better rates.
GATED_METRICS = ("sim_us_per_wall_s",)


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
    """One bench run: environment stamp plus per-scenario measurements."""

    budget: str
    created: str
    git_sha: str
    python: str
    scenarios: List[Dict[str, object]] = field(default_factory=list)
    schema: str = BENCH_SCHEMA

    def scenario(self, name: str) -> Dict[str, object]:
        """The named scenario's measurement dict."""
        for row in self.scenarios:
            if row["name"] == name:
                return row
        raise ObservabilityError(f"no scenario {name!r} in this report")

    def as_dict(self) -> Dict[str, object]:
        """Plain-data view, exactly what lands in ``BENCH_*.json``."""
        return {
            "schema": self.schema,
            "budget": self.budget,
            "created": self.created,
            "git_sha": self.git_sha,
            "python": self.python,
            "scenarios": [dict(s) for s in self.scenarios],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BenchReport":
        """Parse a loaded JSON document, validating the schema stamp."""
        schema = data.get("schema")
        if schema not in COMPAT_SCHEMAS:
            raise ObservabilityError(
                f"unsupported bench schema {schema!r} "
                f"(this build reads {', '.join(map(repr, COMPAT_SCHEMAS))})"
            )
        return cls(
            budget=str(data.get("budget", "")),
            created=str(data.get("created", "")),
            git_sha=str(data.get("git_sha", "")),
            python=str(data.get("python", "")),
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
        lines = [
            f"flep bench [{self.budget}] @ {self.git_sha} ({self.created})",
            header,
            "-" * len(header),
        ]
        for s in self.scenarios:
            lines.append(
                f"{s['name']:16s} {s['events']:10d} {s['wall_s']:8.3f} "
                f"{s['events_per_sec']:12,.0f} "
                f"{s['sim_us_per_wall_s'] / 1e6:12.3f} "
                f"{s['peak_queue_depth']:7d} "
                f"{str(s.get('schedule_hash', '-')):>10s}"
            )
        return "\n".join(lines)


def load_bench_report(path: str) -> BenchReport:
    """Load and schema-check a ``BENCH_*.json`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return BenchReport.from_dict(json.load(fh))


def git_sha(short: bool = True) -> str:
    """The current git commit (short) hash, or ``"unknown"``."""
    cmd = ["git", "rev-parse", "--short" if short else "--verify", "HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True
        )
        return out.stdout.strip() or "unknown"
    except Exception:  # noqa: BLE001 - environment probe, never fatal
        return "unknown"


def default_bench_filename(report: BenchReport) -> str:
    """``BENCH_<yyyymmdd>_<sha>.json`` — the tracked-trajectory name."""
    date = report.created.split("T", 1)[0].replace("-", "")
    return f"BENCH_{date}_{report.git_sha}.json"


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------
def run_bench(
    budget: str = "default",
    only: Optional[Sequence[str]] = None,
    scenarios: Optional[Dict[str, BenchScenario]] = None,
    on_progress: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> BenchReport:
    """Execute the suite: per scenario, one observed run for the
    ``profile`` counts, then one hook-free timed run.

    ``only`` selects a subset by name; ``scenarios`` swaps the whole
    table (the tests inject tiny synthetic workloads this way).

    The observed run comes first and doubles as the warm-up: scenario
    functions import their subsystems lazily, and in a cold process that
    one-time import/bytecode cost would otherwise land inside the timed
    window. Schedules are unaffected (runs are bit-deterministic at a
    budget, observed or not).
    """
    if budget not in BUDGETS:
        raise ObservabilityError(
            f"unknown budget {budget!r} (have {sorted(BUDGETS)})"
        )
    scale = BUDGETS[budget]
    table = scenarios if scenarios is not None else SCENARIOS
    names = list(only) if only else list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        raise ObservabilityError(
            f"unknown scenarios {unknown} (have {sorted(table)})"
        )
    report = BenchReport(
        budget=budget,
        created=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        git_sha=git_sha(),
        python=platform.python_version(),
    )
    for name in names:
        with EngineWindow(hub=True) as window:
            table[name].run(scale)
        profile = window.hub.profile_block()
        # every device built by the scenario registers its always-on
        # O(1)-memory digest here, and every simulator its event-loop
        # counters; neither adds a hook to the timed window
        with EngineWindow() as window:
            extras = table[name].run(scale) or {}
        row: Dict[str, object] = {
            "name": name,
            "description": table[name].description,
            "schedule_hash": window.schedule_hash(),
            **window.engine_block(),
            "extras": dict(extras),
            "profile": profile,
        }
        report.scenarios.append(row)
        if on_progress is not None:
            on_progress(name, row)
    return report


# ---------------------------------------------------------------------------
# comparison (the regression gate)
# ---------------------------------------------------------------------------
@dataclass
class CompareResult:
    """Old-vs-new delta table plus the regression verdict."""

    threshold: float
    rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def regressions(self) -> List[Dict[str, object]]:
        """Rows whose gated metric dropped by more than the threshold."""
        return [r for r in self.rows if r["status"] == "regression"]

    @property
    def drifts(self) -> List[Dict[str, object]]:
        """Rows whose ``schedule_hash`` changed: the kernel-level
        timeline differs from the baseline's, which no amount of runner
        noise (or engine rework that honours the identity contract) can
        explain — schedules are bit-reproducible at a given budget.
        Event *counts* are engine-internal and may legitimately change
        (macro fast-forward collapses them); they compare as ``changed``,
        never ``drift``."""
        return [r for r in self.rows if r["status"] == "drift"]

    @property
    def unhashed(self) -> List[Dict[str, object]]:
        """``schedule_hash`` rows with no hash on one side (a
        ``flep-bench/1`` baseline): schedules that were not compared."""
        return [
            r for r in self.rows
            if r["metric"] == "schedule_hash" and r["status"] == "no-baseline"
        ]

    @property
    def ok(self) -> bool:
        """True when no gated metric regressed."""
        return not self.regressions

    def format(self) -> str:
        """Per-metric delta table (one row per scenario × metric)."""
        header = (
            f"{'scenario':16s} {'metric':18s} {'old':>12s} {'new':>12s} "
            f"{'delta':>8s}  status"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            old, new = r["old"], r["new"]
            delta = f"{100.0 * r['delta']:+.1f}%" if r["delta"] is not None \
                else "-"
            # schedule_hash rows carry hex digests, not rates
            old_s = old if isinstance(old, str) else f"{old:12,.0f}"
            new_s = new if isinstance(new, str) else f"{new:12,.0f}"
            lines.append(
                f"{r['scenario']:16s} {r['metric']:18s} "
                f"{old_s:>12s} {new_s:>12s} {delta:>8s}  {r['status']}"
            )
        verdict = (
            "OK: no gated metric regressed"
            if self.ok
            else f"REGRESSION: {len(self.regressions)} metric(s) dropped "
                 f">{100.0 * self.threshold:.0f}%"
        )
        lines.append(verdict)
        return "\n".join(lines)


def compare_reports(
    old: BenchReport,
    new: BenchReport,
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> CompareResult:
    """Diff two bench reports scenario by scenario.

    The gated metric (sim-µs per wall-second) is a higher-is-better
    rate: a relative drop beyond ``threshold`` marks the row
    ``regression``. Identity is gated on ``schedule_hash``: a mismatch
    means the kernel-level timeline changed (``drift``), which the
    identity contract forbids across engine rework. A baseline without
    hashes (a ``flep-bench/1`` file) yields ``no-baseline``. The
    ``events`` count is engine-internal — macro fast-forward
    legitimately collapses it — so a mismatch is reported as the
    informational ``changed``, never ``drift``.
    """
    if threshold <= 0:
        raise ObservabilityError("threshold must be positive")
    result = CompareResult(threshold=threshold)
    new_by_name = {s["name"]: s for s in new.scenarios}
    for old_row in old.scenarios:
        name = old_row["name"]
        new_row = new_by_name.get(name)
        if new_row is None:
            result.rows.append({
                "scenario": name, "metric": "-", "old": 0.0, "new": 0.0,
                "delta": None, "status": "missing-in-new",
            })
            continue
        old_hash = old_row.get("schedule_hash")
        new_hash = new_row.get("schedule_hash")
        if old_hash is None or new_hash is None:
            hash_status = "no-baseline"
        else:
            hash_status = "ok" if old_hash == new_hash else "drift"
        result.rows.append({
            "scenario": name,
            "metric": "schedule_hash",
            "old": str(old_hash or "-"),
            "new": str(new_hash or "-"),
            "delta": None,
            "status": hash_status,
        })
        old_events, new_events = old_row.get("events"), new_row.get("events")
        result.rows.append({
            "scenario": name,
            "metric": "events",
            "old": float(old_events or 0),
            "new": float(new_events or 0),
            "delta": None,
            "status": "ok" if old_events == new_events else "changed",
        })
        for metric in GATED_METRICS:
            old_v = float(old_row.get(metric) or 0.0)
            new_v = float(new_row.get(metric) or 0.0)
            if old_v <= 0.0:
                delta, status = None, "no-baseline"
            else:
                delta = new_v / old_v - 1.0
                if delta < -threshold:
                    status = "regression"
                elif delta > threshold:
                    status = "improved"
                else:
                    status = "ok"
            result.rows.append({
                "scenario": name, "metric": metric,
                "old": old_v, "new": new_v,
                "delta": delta, "status": status,
            })
    return result
