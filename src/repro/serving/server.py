"""The online multi-tenant GPU service.

:class:`ServingSystem` turns the FLEP stack into a server: tenants
(:mod:`.tenants`) send requests through load generators or explicit
submissions; every arrival passes the SLO-aware admission controller
(:mod:`.admission`); admitted requests are stamped with the tenant's
priority and absolute deadline and handed to the runtime — so deadline
urgency drives FLEP's temporal/spatial preemption via the EDF policy —
and every outcome lands in the :class:`~repro.serving.slo.SLOTracker`.

Three execution modes share the one front-end:

* ``"mps"`` — the paper's baseline: untransformed kernels behind the
  non-preemptive hardware FIFO (no admission by default — plain MPS has
  no duration predictions to budget with);
* ``"flep-temporal"`` — FLEP with whole-GPU yields only;
* ``"flep-spatial"`` — full FLEP: guests take just the SMs they need.

Backlog accounting matches the mechanics: under FLEP, a request at
priority *p* only waits for admitted work at priority ≥ *p* (lower
priority work gets preempted); under MPS everything queues FIFO, so the
whole backlog counts (:class:`~repro.serving.admission.BacklogLedger`).

The fleet's nodes (:mod:`repro.fleet.node`) run the same front end:
:func:`build_backend` maps a mode to its backend and
:func:`submit_request` hands an admitted request to it, for both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Union

from ..baselines.mps_corun import MPSCoRun
from ..core.flep import FlepSystem
from ..errors import ServingError
from ..gpu.device import GPUDeviceSpec
from ..obs.recorder import Observability, adopt_hub
from ..runtime.engine import RuntimeConfig
from ..runtime.models import model_bank
from ..workloads.benchmarks import BenchmarkSuite
from ..workloads.synthetic import Arrival, ArrivalTrace
from .admission import AdmissionController, BacklogLedger, Decision
from .loadgen import ClosedLoopClient, LoadGenerator, merge_traces
from .slo import ServingReport, SLOTracker
from .tenants import Tenant, TenantSet

MODES = ("mps", "flep-temporal", "flep-spatial")


def build_backend(
    mode: str, policy: str, *, device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None, seed: Optional[int] = None,
    oracle_model: bool = False,
    observability: Union[bool, Observability, None] = None,
) -> Union[MPSCoRun, FlepSystem]:
    """The backend one of :data:`MODES` runs on: plain MPS co-runs, or
    FLEP with spatial preemption in ``"flep-spatial"`` only. An MPS
    backend takes no hub: it records only into an open window's hub."""
    if mode == "mps":
        return MPSCoRun(device=device, suite=suite, seed=seed)
    return FlepSystem(
        policy=policy, device=device, suite=suite, seed=seed,
        config=RuntimeConfig(
            spatial_enabled=(mode == "flep-spatial"),
            oracle_model=oracle_model,
        ),
        observability=observability,
    )


def submit_request(
    backend: Union[MPSCoRun, FlepSystem],
    req,
    deadline_us: Optional[float],
    on_done: Callable[[], None],
) -> None:
    """Hand one admitted request (``req_id``, ``tenant``, ``kernel``,
    ``input_name``) to ``backend`` inside the calling event; ``on_done``
    fires when it completes."""
    tenant = req.tenant
    if isinstance(backend, MPSCoRun):
        backend.submit_at(
            backend.sim.now, f"{tenant.name}#{req.req_id}", req.kernel,
            req.input_name, on_done=on_done,
        )
    else:
        backend.runtime.submit(
            tenant.name, req.kernel, req.input_name, tenant.priority,
            on_finished=lambda inv: on_done(), tenant=tenant.name,
            deadline_us=deadline_us,
        )


@dataclass
class ServingConfig:
    """Knobs of the serving layer."""

    mode: str = "flep-spatial"
    #: Scheduling policy for the FLEP modes (EDF = deadline-aware).
    policy: str = "edf"
    #: Admission control on/off; ``None`` picks the mode's default
    #: (on for FLEP — it has the runtime's predictions — off for MPS).
    admission: Optional[bool] = None
    #: DELAY verdicts allowed up to this fraction of the SLO overshoot.
    delay_headroom: float = 0.5
    #: Use the oracle duration predictor instead of the ridge models.
    oracle_model: bool = False
    seed: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ServingError(
                f"unknown serving mode {self.mode!r} (have {MODES})"
            )

    @property
    def admission_enabled(self) -> bool:
        if self.admission is not None:
            return self.admission
        return self.mode != "mps"


class TraceIntake:
    """The tenant set and the open-loop arrival traces of a front door,
    shared by :class:`ServingSystem` and the fleet's
    :class:`~repro.fleet.dispatcher.FleetSystem`."""

    #: raised for a trace naming a tenant outside the set
    error_type = ServingError

    def __init__(self, tenants: Union[TenantSet, List[Tenant]]):
        self.tenants = (
            tenants if isinstance(tenants, TenantSet) else TenantSet(tenants)
        )
        self._traces: List[ArrivalTrace] = []

    def add_trace(self, trace: ArrivalTrace) -> None:
        """Queue an open-loop arrival trace (tenants must be known)."""
        for a in trace.arrivals:
            if a.tenant not in self.tenants:
                raise self.error_type(
                    f"trace names unknown tenant {a.tenant!r}"
                )
        self._traces.append(trace)

    def add_generator(self, gen: LoadGenerator) -> None:
        self.add_trace(gen.generate())

    def submit_at(
        self, at_us: float, tenant: str, kernel: str,
        input_name: str = "large",
    ) -> None:
        """One explicit request (e.g. the long batch job) at ``at_us``."""
        self.add_trace(ArrivalTrace(arrivals=[
            Arrival(at_us=at_us, kernel_name=kernel, input_name=input_name,
                    tenant=tenant)
        ]))


@dataclass
class _Request:
    """Server-side bookkeeping for one request."""

    req_id: int
    tenant: Tenant
    arrived_us: float
    kernel: str
    input_name: str
    predicted_us: float
    client: Optional[ClosedLoopClient] = None
    span: Optional[object] = None


class ServingSystem(TraceIntake):
    """One multi-tenant serving run over a FLEP or MPS backend."""

    def __init__(
        self,
        tenants: Union[TenantSet, List[Tenant]],
        config: Optional[ServingConfig] = None,
        device: Optional[GPUDeviceSpec] = None,
        suite: Optional[BenchmarkSuite] = None,
        observability: Union[bool, Observability, None] = None,
    ):
        super().__init__(tenants)
        cfg = self.config = config or ServingConfig()
        self.backend = build_backend(
            cfg.mode, cfg.policy, device=device, suite=suite, seed=cfg.seed,
            oracle_model=cfg.oracle_model, observability=observability,
        )
        self.sim = self.backend.sim
        if isinstance(self.backend, FlepSystem):
            self.system: Optional[FlepSystem] = self.backend
            self.obs = self.system.obs
        else:
            self.system = None
            self.obs = adopt_hub(observability, lambda: self.sim.now)
        self._models = None  # MPS only: built lazily if admission needs it
        self.admission = AdmissionController(
            self.tenants, delay_headroom=self.config.delay_headroom
        )
        self.tracker = SLOTracker(self.tenants, obs=self.obs)
        self._next_req_id = 1
        self.backlog = BacklogLedger(cfg.mode)
        self._clients: List[ClosedLoopClient] = []
        self._client_issued: Dict[int, int] = {}
        self._ran = False

    # ------------------------------------------------------------------
    # workload wiring (traces: TraceIntake)
    # ------------------------------------------------------------------
    def add_closed_loop(self, client: ClosedLoopClient) -> None:
        if client.tenant not in self.tenants:
            raise ServingError(f"unknown tenant {client.tenant!r}")
        self._clients.append(client)

    # ------------------------------------------------------------------
    # predictions and backlog
    # ------------------------------------------------------------------
    def predicted_us(self, kernel: str, input_name: str) -> float:
        if self.system is not None:
            return self.system.predicted_us(kernel, input_name)
        if self._models is None:
            self._models = model_bank(
                self.backend.suite, self.backend.device,
                self.config.oracle_model,
            )
        kspec = self.backend.suite[kernel]
        return self._models.predict(kernel, kspec.input(input_name))

    def backlog_us(self, priority: int) -> float:
        """Admitted-but-unfinished predicted work ahead of ``priority``."""
        return self.backlog.ahead_of(priority)

    # ------------------------------------------------------------------
    # request lifecycle
    # ------------------------------------------------------------------
    def _on_arrival(
        self, tenant: Tenant, kernel: str, input_name: str,
        client: Optional[ClosedLoopClient] = None,
    ) -> None:
        now = self.sim.now
        req = _Request(
            req_id=self._next_req_id,
            tenant=tenant,
            arrived_us=now,
            kernel=kernel,
            input_name=input_name,
            predicted_us=(
                self.predicted_us(kernel, input_name)
                if self.config.admission_enabled or self.system is not None
                else 0.0
            ),
            client=client,
        )
        self._next_req_id += 1
        self.tracker.open_request(
            req.req_id, tenant.name, now, kernel, input_name,
            req.predicted_us,
        )
        if self.obs.enabled:
            req.span = self.obs.tracer.begin(
                f"req#{req.req_id} {kernel}[{input_name}]",
                cat="serving",
                process=f"tenant:{tenant.name}",
                track=req.req_id,
                predicted_us=req.predicted_us,
            )
        if not self.config.admission_enabled:
            self._admit(req)
            return
        verdict = self.admission.decide(
            tenant, now, req.predicted_us, self.backlog_us(tenant.priority)
        )
        if verdict.decision is Decision.SHED:
            self.tracker.mark_shed(
                req.req_id, rate_limited=(verdict.reason == "rate_limit")
            )
            if self.obs.enabled:
                self.obs.tracer.end(req.span, outcome=verdict.reason)
                req.span = None
            self._client_continue(req)
        elif verdict.decision is Decision.DELAY:
            self.tracker.mark_delayed(req.req_id)
            self.sim.schedule(
                verdict.hold_us, lambda: self._admit(req),
                label=f"serve-delay:{tenant.name}",
            )
        else:
            self._admit(req)

    def _admit(self, req: _Request) -> None:
        """Hand an admitted request to the backend."""
        self.backlog.add(req)
        deadline_rel = req.tenant.effective_deadline_us
        deadline_us = (
            req.arrived_us + deadline_rel if deadline_rel is not None else None
        )
        submit_request(
            self.backend, req, deadline_us, lambda: self._on_complete(req)
        )

    def _on_complete(self, req: _Request) -> None:
        now = self.sim.now
        self.tracker.mark_completed(req.req_id, now)
        self.backlog.sub(req)
        if self.obs.enabled and req.span is not None:
            self.obs.tracer.end(req.span, outcome="completed")
            req.span = None
        self._client_continue(req)

    # ------------------------------------------------------------------
    # closed loops
    # ------------------------------------------------------------------
    def _client_issue(self, client: ClosedLoopClient) -> None:
        key = id(client)
        issued = self._client_issued.get(key, 0)
        if issued >= client.max_requests:
            return
        self._client_issued[key] = issued + 1
        self._on_arrival(
            self.tenants[client.tenant], client.kernel, client.input_name,
            client=client,
        )

    def _client_continue(self, req: _Request) -> None:
        """After a closed-loop request resolves, think then re-issue."""
        client = req.client
        if client is None:
            return
        self.sim.schedule(
            client.think_us, lambda: self._client_issue(client),
            label=f"serve-think:{client.tenant}",
        )

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> ServingReport:
        """Schedule every queued workload, drive the sim, report."""
        if self._ran:
            raise ServingError("a ServingSystem runs once; build a new one")
        self._ran = True
        merged = merge_traces(*self._traces) if self._traces else None
        if merged is not None:
            for a in merged.sorted():
                tenant = self.tenants[a.tenant]
                self.sim.schedule_at(
                    a.at_us,
                    lambda t=tenant, k=a.kernel_name, i=a.input_name:
                        self._on_arrival(t, k, i),
                    label=f"serve-arrival:{a.tenant}",
                )
        for client in self._clients:
            for _ in range(client.concurrency):
                self.sim.schedule_at(
                    client.start_us,
                    lambda c=client: self._client_issue(c),
                    label=f"serve-start:{client.tenant}",
                )
        if not self._traces and not self._clients:
            raise ServingError("nothing to serve: add a trace or a client")
        self.result = self.backend.run(until=until)
        if self.obs.enabled:
            self.obs.finalize()
        return self.tracker.report(horizon_us=self.sim.now)
