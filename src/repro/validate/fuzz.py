"""Seed-minimizing workload fuzzer.

:func:`generate_case` derives a random co-run — execution mode
(``mps | flep-temporal | flep-spatial``), scheduling policy, and a
kernel mix with arrival times and preemption-inducing priorities — from
one integer seed. :func:`run_case` executes it under the full online
monitor set (and, where the case shape permits, the differential
oracles) and reports any :class:`~repro.errors.ValidationError`. On
failure, :func:`shrink` greedily minimizes the case — dropping jobs,
zeroing priorities and arrivals, shrinking inputs — while the failure
reproduces, and :func:`encode_case` packs the survivor into a one-line
replay token for ``flep fuzz --replay TOKEN``.

Cases run on the oracle performance model with small/trivial inputs, so
one case costs tens of milliseconds and a 200-case CI budget stays well
under a minute.

The fuzzer also has a **fleet mode** (:func:`generate_fleet_case`, the
``fleet_budget`` argument / ``flep fuzz --fleet-budget``): small 2–3
node fleets with a random routing policy, steal on/off, and an optional
injected fault (crash / drain / stall, with a possible rejoin), run
under the full :class:`~repro.validate.fleet.FleetMonitorBundle` plus a
request-conservation check on the rollup. Fleet cases shrink and replay
exactly like single-GPU ones; their tokens start with ``f``.
"""

from __future__ import annotations

import base64
import json
import random
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional

from ..errors import FleetError, ReproError, ValidationError
from ..fleet import (
    FaultEvent,
    FaultPlan,
    FleetConfig,
    FleetHook,
    FleetSystem,
)
from ..fleet.routing import ROUTERS
from ..gpu.device import GPUDeviceSpec, tesla_k40
from ..gpu.sim import Simulator
from ..obs.recorder import EngineWindow
from ..serving.server import build_backend
from ..serving.tenants import Tenant, TenantSet
from ..workloads.benchmarks import BENCHMARK_NAMES, standard_suite
from .monitors import install_monitors, off_by_one_spec
from .oracles import hpf_differential, temporal_differential

__all__ = [
    "MODES",
    "PLANTS",
    "FleetFuzzCase",
    "FuzzJob",
    "FuzzCase",
    "FuzzResult",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "generate_fleet_case",
    "run_case",
    "engine_diff",
    "shrink",
    "fuzz",
    "encode_case",
    "decode_case",
]

MODES = ("mps", "flep-temporal", "flep-spatial")
_POLICIES = ("hpf", "ffs", "fifo", "reorder", "edf")
_INPUTS = ("small", "trivial")
#: routing policies a fleet case may draw (sorted for determinism)
_FLEET_ROUTINGS = tuple(sorted(ROUTERS))
#: fuzz-case priority -> tenant; mirrors the serving experiments' tiering
_TENANT_BY_PRIORITY = {0: "batch", 1: "analytics", 2: "web"}
#: per-case event budget: a legitimate small co-run needs ~1e4 events,
#: so hitting this means a runaway loop — exactly what we want to catch
_CASE_MAX_EVENTS = 2_000_000

#: Named planted violations for self-testing the monitors end to end.
PLANTS = ("sm-budget-off-by-one",)

# the suite calibration is deterministic and costs ~0.2 s — share it
_SUITE_CACHE: Dict[str, object] = {}


def _shared_suite(device: GPUDeviceSpec):
    key = f"{device.name}/{device.num_sms}"
    if key not in _SUITE_CACHE:
        _SUITE_CACHE[key] = standard_suite(device)
    return _SUITE_CACHE[key]


# ---------------------------------------------------------------------------
# case model
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzJob:
    """One kernel invocation of a fuzz case."""

    kernel: str
    input_name: str
    priority: int
    arrival_us: float


@dataclass(frozen=True)
class FuzzCase:
    """One reproducible workload: derived from a seed, or decoded from a
    replay token after shrinking."""

    seed: int
    mode: str
    policy: str
    jobs: tuple
    plant: Optional[str] = None

    def describe(self) -> str:
        jobs = ", ".join(
            f"{j.kernel}[{j.input_name}]p{j.priority}@{j.arrival_us:.0f}us"
            for j in self.jobs
        )
        plant = f", plant={self.plant}" if self.plant else ""
        return (
            f"seed={self.seed} mode={self.mode} policy={self.policy}"
            f"{plant}: {jobs}"
        )


@dataclass
class FuzzResult:
    """Outcome of executing one case."""

    case: FuzzCase
    ok: bool
    error: Optional[str] = None
    error_type: Optional[str] = None
    checks: List[str] = field(default_factory=list)


@dataclass
class FuzzFailure:
    """A failing case, after shrinking, with its replay line."""

    original: FuzzCase
    minimal: FuzzCase
    error: str
    error_type: str
    shrink_steps: int

    @property
    def replay_token(self) -> str:
        return encode_case(self.minimal)

    @property
    def replay_command(self) -> str:
        return f"flep fuzz --replay {self.replay_token}"


@dataclass
class FuzzReport:
    """Summary of one fuzzing campaign."""

    budget: int
    seed: int
    cases_run: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"fuzz: {self.cases_run}/{self.budget} cases "
            f"(base seed {self.seed}): "
            + ("all invariants held" if self.ok
               else f"{len(self.failures)} FAILING case(s)")
        ]
        for f in self.failures:
            lines.append(f"  [{f.error_type}] {f.error}")
            lines.append(f"    minimal case: {f.minimal.describe()}")
            lines.append(
                f"    reproduce with: {f.replay_command}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------
def generate_case(seed: int, plant: Optional[str] = None) -> FuzzCase:
    """Derive one workload case deterministically from ``seed``."""
    if plant is not None and plant not in PLANTS:
        raise ValidationError(
            f"unknown plant {plant!r} (have {sorted(PLANTS)})"
        )
    rng = random.Random(seed)
    mode = rng.choice(MODES)
    policy = rng.choice(_POLICIES) if mode != "mps" else "fifo"
    n_jobs = rng.randint(2, 5)
    jobs = []
    for _ in range(n_jobs):
        jobs.append(
            FuzzJob(
                kernel=rng.choice(BENCHMARK_NAMES),
                input_name=rng.choice(_INPUTS),
                priority=rng.randint(0, 2),
                # coarse grid keeps arrivals human-readable after shrink
                arrival_us=float(rng.randrange(0, 3001, 50)),
            )
        )
    jobs.sort(key=lambda j: j.arrival_us)
    return FuzzCase(
        seed=seed, mode=mode, policy=policy, jobs=tuple(jobs), plant=plant
    )


# ---------------------------------------------------------------------------
# fleet mode
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FleetFuzzCase:
    """One reproducible fleet workload: a small 2–3 node cluster with a
    random routing policy, steal on/off, and an optional injected fault
    plan (replayed as ``f...`` tokens)."""

    seed: int
    modes: tuple
    routing: str
    steal: bool
    jobs: tuple
    faults: tuple = ()

    def describe(self) -> str:
        jobs = ", ".join(
            f"{j.kernel}[{j.input_name}]p{j.priority}@{j.arrival_us:.0f}us"
            for j in self.jobs
        )
        faults = FaultPlan(self.faults).describe()
        return (
            f"seed={self.seed} nodes={'/'.join(self.modes)} "
            f"routing={self.routing} steal={'on' if self.steal else 'off'} "
            f"faults={faults}: {jobs}"
        )


def generate_fleet_case(seed: int) -> FleetFuzzCase:
    """Derive one fleet case deterministically from ``seed``: 2–3 nodes
    with random modes, a random routing policy, steal on/off, 3–8 jobs
    on the coarse arrival grid, and (half the time) one injected fault
    — a crash (possibly with a later rejoin), a drain, or a stall."""
    rng = random.Random(seed)
    n_nodes = rng.randint(2, 3)
    modes = tuple(rng.choice(MODES) for _ in range(n_nodes))
    routing = rng.choice(_FLEET_ROUTINGS)
    steal = rng.random() < 0.5
    jobs = []
    for _ in range(rng.randint(3, 8)):
        jobs.append(
            FuzzJob(
                kernel=rng.choice(BENCHMARK_NAMES),
                input_name=rng.choice(_INPUTS),
                priority=rng.randint(0, 2),
                arrival_us=float(rng.randrange(0, 3001, 50)),
            )
        )
    jobs.sort(key=lambda j: j.arrival_us)
    faults: List[FaultEvent] = []
    if rng.random() < 0.5:
        kind = rng.choice(("crash", "drain", "stall"))
        node = rng.randrange(n_nodes)
        at = float(rng.randrange(200, 3001, 100))
        if kind == "crash":
            faults.append(FaultEvent("crash", node, at))
            if rng.random() < 0.5:
                faults.append(FaultEvent(
                    "rejoin", node, at + rng.randrange(200, 2001, 100),
                ))
        elif kind == "drain":
            faults.append(FaultEvent(
                "drain", node, at,
                deadline_us=float(rng.randrange(100, 1001, 100)),
            ))
        else:
            faults.append(FaultEvent(
                "stall", node, at,
                duration_us=float(rng.randrange(100, 1001, 100)),
            ))
    return FleetFuzzCase(
        seed=seed, modes=modes, routing=routing, steal=steal,
        jobs=tuple(jobs), faults=FaultPlan(tuple(faults)).events,
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def _planted_spec(case: FuzzCase, device: GPUDeviceSpec):
    if case.plant is None:
        return None
    if case.plant == "sm-budget-off-by-one":
        return off_by_one_spec(device)
    raise ValidationError(f"unknown plant {case.plant!r}")


class _EventBudgetHook(FleetHook):
    """Re-arm the per-node event budget on the backend a rejoin rebuilds."""

    def __init__(self, fleet: FleetSystem):
        self.fleet = fleet

    def on_fault(self, event, node: int) -> None:
        if event.kind == "rejoin":
            self.fleet.nodes[node].sim.max_events = _CASE_MAX_EVENTS


def _build_fleet(
    case: FleetFuzzCase, device: GPUDeviceSpec
) -> FleetSystem:
    """A fleet case's system, jobs not yet submitted."""
    fleet = FleetSystem(
        [
            Tenant("batch", priority=0),
            Tenant("analytics", priority=1, slo_us=25_000.0),
            Tenant("web", priority=2, slo_us=3_000.0),
        ],
        FleetConfig(
            node_modes=case.modes, routing=case.routing,
            steal=case.steal, seed=case.seed, oracle_model=True,
            faults=FaultPlan(case.faults),
        ),
        device=device, suite=_shared_suite(device),
    )
    for node in fleet.nodes:
        node.sim.max_events = _CASE_MAX_EVENTS
    fleet.hooks.append(_EventBudgetHook(fleet))
    return fleet


def _build_single(case: FuzzCase, device: GPUDeviceSpec):
    """A single-GPU case's backend, jobs not yet submitted."""
    target = build_backend(
        case.mode, case.policy, device=device, suite=_shared_suite(device),
        oracle_model=True,
    )
    target.sim.max_events = _CASE_MAX_EVENTS
    return target


def _run_fleet_case(
    case: FleetFuzzCase, device: Optional[GPUDeviceSpec] = None
) -> FuzzResult:
    """Execute one fleet case under the full monitor bundle, then check
    request conservation on the rollup (every request ends exactly one
    of done / shed / lost, nothing pending)."""
    device = device or tesla_k40()
    checks: List[str] = []
    try:
        fleet = _build_fleet(case, device)
        monitors = install_monitors(fleet, require_complete=True)
        checks.append("fleet-monitors")
        submit_jobs(fleet, case)
        report = fleet.run()
        monitors.finalize()
        monitors.uninstall()
        if not report.conservation["accounted"]:
            raise ValidationError(
                f"fleet case leaked requests: {report.conservation} "
                f"({case.describe()})"
            )
        checks.append("conservation")
    except ReproError as exc:
        return FuzzResult(
            case=case, ok=False, error=str(exc),
            error_type=type(exc).__name__, checks=checks,
        )
    return FuzzResult(case=case, ok=True, checks=checks)


def submit_jobs(target, case) -> None:
    """Submit a case's jobs: a fleet case's under its priority's tenant,
    a single-GPU case's as one process each (an MPS backend has no
    priorities)."""
    if isinstance(case, FleetFuzzCase):
        for job in case.jobs:
            target.submit_at(
                job.arrival_us, _TENANT_BY_PRIORITY[job.priority],
                job.kernel, job.input_name,
            )
        return
    for i, job in enumerate(case.jobs):
        extra = {} if case.mode == "mps" else {"priority": job.priority}
        target.submit_at(
            job.arrival_us, f"job{i}", job.kernel, job.input_name, **extra
        )


def run_case(
    case: FuzzCase, device: Optional[GPUDeviceSpec] = None
) -> FuzzResult:
    """Execute one case under the monitors (and applicable oracles)."""
    if isinstance(case, FleetFuzzCase):
        return _run_fleet_case(case, device=device)
    device = device or tesla_k40()
    suite = _shared_suite(device)
    checks: List[str] = []
    try:
        target = _build_single(case, device)
        monitors = install_monitors(
            target,
            spec=_planted_spec(case, device),
            require_complete=True,
        )
        checks.append("monitors")
        submit_jobs(target, case)
        result = target.run()
        monitors.finalize()
        if not result.all_finished:
            raise ValidationError(
                f"case did not finish every invocation: {case.describe()}"
            )

        # differential oracles, where the case shape permits them
        if case.mode == "flep-temporal" and case.policy == "fifo":
            temporal_differential(
                [(j.arrival_us, j.kernel, j.input_name) for j in case.jobs],
                device=device, suite=suite,
            ).raise_on_mismatch()
            checks.append("temporal-oracle")
        if (
            case.mode == "flep-temporal"
            and case.policy == "hpf"
            and len(case.jobs) <= 4
        ):
            hpf_differential(
                [(j.arrival_us, j.priority, j.kernel, j.input_name)
                 for j in case.jobs],
                device=device, suite=suite,
            ).raise_on_mismatch()
            checks.append("hpf-oracle")
    except ReproError as exc:
        return FuzzResult(
            case=case, ok=False, error=str(exc),
            error_type=type(exc).__name__, checks=checks,
        )
    return FuzzResult(case=case, ok=True, checks=checks)


def engine_diff(case, device: Optional[GPUDeviceSpec] = None) -> Optional[str]:
    """Run ``case``'s workload once on the macro-event loop and once on
    the per-batch reference loop (``Simulator.use_reference_loop``),
    without monitors or oracles, and compare the schedule hash and the
    task-pull and flag-poll totals. Returns ``None`` when all three
    match, else a one-line description of the difference."""
    device = device or tesla_k40()
    seen = []
    for reference in (False, True):
        Simulator.use_reference_loop = reference
        try:
            with EngineWindow(hub=True) as window:
                target = (
                    _build_fleet(case, device)
                    if isinstance(case, FleetFuzzCase)
                    else _build_single(case, device)
                )
                submit_jobs(target, case)
                target.run()
        finally:
            Simulator.use_reference_loop = False
        hub = window.hub
        seen.append((window.schedule_hash(), hub.task_pulls, hub.flag_polls))
    if seen[0] == seen[1]:
        return None
    return (
        f"macro loop (hash, pulls, polls) {seen[0]} != reference "
        f"{seen[1]}: {case.describe()}"
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------
def _fleet_candidates(case: FleetFuzzCase) -> List[FleetFuzzCase]:
    """Fleet-case simplification steps, most aggressive first. A step
    that would produce an invalid fault plan (e.g. a rejoin whose crash
    was dropped) is skipped rather than offered."""
    out: List[FleetFuzzCase] = []

    def try_add(**changes) -> None:
        try:
            candidate = replace(case, **changes)
            FaultPlan(candidate.faults).check_nodes(len(candidate.modes))
        except FleetError:
            return
        out.append(candidate)

    # drop the fault plan entirely, then one event at a time
    if case.faults:
        try_add(faults=())
        if len(case.faults) > 1:
            for i in range(len(case.faults)):
                try_add(faults=case.faults[:i] + case.faults[i + 1:])
    # drop one job at a time
    if len(case.jobs) > 1:
        for i in range(len(case.jobs)):
            try_add(jobs=case.jobs[:i] + case.jobs[i + 1:])
    # structural simplifications: steal off, boring routing, fewer /
    # uniform nodes
    if case.steal:
        try_add(steal=False)
    if case.routing != "round-robin":
        try_add(routing="round-robin")
    if len(case.modes) > 2:
        try_add(modes=case.modes[:2])
    if any(m != "mps" for m in case.modes):
        try_add(modes=tuple("mps" for _ in case.modes))
    # per-job field simplifications (same ladder as single-GPU cases)
    for i, job in enumerate(case.jobs):
        def with_job(j, i=i):
            try_add(jobs=case.jobs[:i] + (j,) + case.jobs[i + 1:])

        if job.input_name != "trivial":
            with_job(replace(job, input_name="trivial"))
        if job.priority != 0:
            with_job(replace(job, priority=0))
        if job.arrival_us != 0.0:
            with_job(replace(job, arrival_us=0.0))
            if job.arrival_us > 100.0:
                with_job(replace(job, arrival_us=job.arrival_us / 2))
        if job.kernel != "VA":
            with_job(replace(job, kernel="VA"))
    return out


def _candidates(case: FuzzCase) -> List[FuzzCase]:
    """Simplification steps, most aggressive first."""
    if isinstance(case, FleetFuzzCase):
        return _fleet_candidates(case)
    out: List[FuzzCase] = []
    # drop one job at a time
    if len(case.jobs) > 1:
        for i in range(len(case.jobs)):
            out.append(replace(
                case, jobs=case.jobs[:i] + case.jobs[i + 1:]
            ))
    # per-job field simplifications
    for i, job in enumerate(case.jobs):
        def with_job(j, i=i):
            return replace(
                case, jobs=case.jobs[:i] + (j,) + case.jobs[i + 1:]
            )

        if job.input_name != "trivial":
            out.append(with_job(replace(job, input_name="trivial")))
        if job.priority != 0:
            out.append(with_job(replace(job, priority=0)))
        if job.arrival_us != 0.0:
            out.append(with_job(replace(job, arrival_us=0.0)))
            if job.arrival_us > 100.0:
                out.append(
                    with_job(replace(job, arrival_us=job.arrival_us / 2))
                )
        if job.kernel != "VA":
            out.append(with_job(replace(job, kernel="VA")))
    return out


def shrink(
    case: FuzzCase,
    still_fails: Optional[Callable[[FuzzCase], bool]] = None,
    max_attempts: int = 400,
    device: Optional[GPUDeviceSpec] = None,
) -> tuple:
    """Greedy delta-debugging: apply the first simplification that keeps
    the case failing; repeat to a fixed point.

    Returns ``(minimal_case, steps_taken)``. ``still_fails`` defaults to
    "``run_case`` reports the same error type".
    """
    baseline = run_case(case, device=device)
    if baseline.ok:
        raise ValidationError("cannot shrink a passing case")
    if still_fails is None:
        want = baseline.error_type

        def still_fails(c: FuzzCase) -> bool:
            r = run_case(c, device=device)
            return (not r.ok) and r.error_type == want

    steps = 0
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(case):
            attempts += 1
            if attempts >= max_attempts:
                break
            if still_fails(candidate):
                case = candidate
                steps += 1
                progress = True
                break
    return case, steps


# ---------------------------------------------------------------------------
# replay tokens
# ---------------------------------------------------------------------------
def _pack(payload: dict, prefix: str) -> str:
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    packed = base64.urlsafe_b64encode(zlib.compress(raw, 9)).decode("ascii")
    return prefix + packed.rstrip("=")


def encode_case(case) -> str:
    """Pack a case into a compact replay token: ``c`` + base64url for
    single-GPU cases, ``f`` + base64url for fleet cases."""
    if isinstance(case, FleetFuzzCase):
        return _pack({
            "v": 1,
            "seed": case.seed,
            "modes": list(case.modes),
            "routing": case.routing,
            "steal": case.steal,
            "jobs": [asdict(j) for j in case.jobs],
            "faults": [ev.as_dict() for ev in case.faults],
        }, "f")
    return _pack({
        "v": 1,
        "seed": case.seed,
        "mode": case.mode,
        "policy": case.policy,
        "plant": case.plant,
        "jobs": [asdict(j) for j in case.jobs],
    }, "c")


def decode_case(token: str):
    """Inverse of :func:`encode_case`; bare integers replay
    ``generate_case(int(token))`` directly."""
    token = token.strip()
    if token.lstrip("-").isdigit():
        return generate_case(int(token))
    if not token[:1] in ("c", "f"):
        raise ValidationError(
            f"not a replay token: {token[:32]!r} (expected an integer "
            "seed or a 'c...'/'f...' token printed by flep fuzz)"
        )
    body = token[1:]
    body += "=" * (-len(body) % 4)
    try:
        raw = zlib.decompress(base64.urlsafe_b64decode(body))
        payload = json.loads(raw)
        jobs = tuple(FuzzJob(**j) for j in payload["jobs"])
        if token[0] == "f":
            return FleetFuzzCase(
                seed=int(payload["seed"]),
                modes=tuple(payload["modes"]),
                routing=payload["routing"],
                steal=bool(payload["steal"]),
                jobs=jobs,
                faults=tuple(
                    FaultEvent(**ev) for ev in payload["faults"]
                ),
            )
        return FuzzCase(
            seed=int(payload["seed"]),
            mode=payload["mode"],
            policy=payload["policy"],
            jobs=jobs,
            plant=payload.get("plant"),
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"malformed replay token: {exc}") from exc


# ---------------------------------------------------------------------------
# the campaign driver
# ---------------------------------------------------------------------------
def fuzz(
    budget: int = 200,
    seed: int = 0,
    plant: Optional[str] = None,
    device: Optional[GPUDeviceSpec] = None,
    max_failures: int = 3,
    on_progress: Optional[Callable[[int, FuzzResult], None]] = None,
    fleet_budget: int = 0,
) -> FuzzReport:
    """Run ``budget`` generated cases (plus ``fleet_budget`` fleet
    cases); shrink and report any failures.

    Stops early after ``max_failures`` distinct failures — each shrink
    costs many case executions, and one minimal reproducer per error
    type is what a human needs. Fleet cases draw from a disjoint seed
    range (``seed + 100_000 + i``) so raising one budget never reshapes
    the other campaign's cases.
    """
    if budget <= 0:
        raise ValidationError("fuzz budget must be positive")
    if fleet_budget < 0:
        raise ValidationError("fleet budget must be non-negative")
    report = FuzzReport(budget=budget + fleet_budget, seed=seed)
    seen_errors: set = set()

    def record_failure(case, result) -> None:
        minimal, steps = shrink(case, device=device)
        final = run_case(minimal, device=device)
        report.failures.append(
            FuzzFailure(
                original=case,
                minimal=minimal,
                error=final.error or result.error or "",
                error_type=final.error_type or result.error_type or "",
                shrink_steps=steps,
            )
        )

    for i in range(budget):
        case = generate_case(seed + i, plant=plant)
        result = run_case(case, device=device)
        report.cases_run += 1
        if on_progress is not None:
            on_progress(i, result)
        if result.ok:
            continue
        key = (result.error_type, case.mode, case.policy)
        if key in seen_errors:
            continue  # one reproducer per (error, mode, policy) shape
        seen_errors.add(key)
        record_failure(case, result)
        if len(report.failures) >= max_failures:
            return report
    for i in range(fleet_budget):
        case = generate_fleet_case(seed + 100_000 + i)
        result = run_case(case, device=device)
        report.cases_run += 1
        if on_progress is not None:
            on_progress(budget + i, result)
        if result.ok:
            continue
        key = (result.error_type, case.routing, case.modes)
        if key in seen_errors:
            continue  # one reproducer per (error, routing, modes) shape
        seen_errors.add(key)
        record_failure(case, result)
        if len(report.failures) >= max_failures:
            break
    return report
