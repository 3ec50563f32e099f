"""Per-tenant SLO accounting: latency percentiles, attainment, goodput,
deadline misses, shed counts.

Each request has one record, a :class:`RequestLog`, built by the front
door and opened here. The :class:`SLOTracker` is the serving layer's
single sink: the server reports every request outcome on that record,
and the tracker both keeps exact per-tenant samples (for the report's
interpolated percentiles, via the shared
:func:`repro.metrics.percentiles`) and mirrors the events into the
:mod:`repro.obs` metrics registry when a hub is attached:

* ``flep_serving_requests_total{tenant,outcome}`` — counter; outcome is
  ``completed`` / ``shed`` / ``rate_limited``;
* ``flep_serving_delayed_total{tenant}`` — requests admitted late;
* ``flep_serving_latency_us{tenant}`` — arrival-to-completion histogram;
* ``flep_serving_deadline_misses_total{tenant}`` — completions after
  the request's absolute deadline;
* ``flep_serving_slo_attainment_ratio{tenant}`` and
  ``flep_serving_goodput_rps{tenant}`` — gauges set when the report is
  built at end of run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ServingError
from ..metrics.stats import percentiles
from ..obs.recorder import NULL_OBS, Observability
from .tenants import Tenant, TenantSet

#: Wide buckets (µs) for serving latencies (same scale as turnarounds).
SERVING_LATENCY_BUCKETS = (
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0,
)


@dataclass(eq=False)
class RequestLog:
    """One request's lifecycle: the front door builds it, the tracker
    opens it, and admission, queues and the report all read this one
    record."""

    req_id: int
    tenant: Tenant
    arrived_us: float
    kernel: str
    input_name: str
    predicted_us: float = 0.0
    #: ``lost`` = the request died with its node (fleet fault injection);
    #: it counts as an SLO miss exactly like a shed.
    outcome: str = "pending"  # pending | completed | shed | rate_limited | lost
    #: Why a shed happened: ``admission`` (the default) or ``drain`` (a
    #: fleet node fenced for a planned drain could not finish it in time).
    shed_cause: Optional[str] = None
    delayed: bool = False
    finished_us: Optional[float] = None
    #: Absolute completion deadline, stamped from the tenant at open.
    deadline_us: Optional[float] = None

    @property
    def slo_us(self) -> Optional[float]:
        return self.tenant.slo_us

    @property
    def latency_us(self) -> Optional[float]:
        if self.finished_us is None:
            return None
        return self.finished_us - self.arrived_us

    @property
    def slo_met(self) -> Optional[bool]:
        """Did the request finish within its SLO? ``None`` if no SLO."""
        if self.slo_us is None:
            return None
        if self.latency_us is None:
            return False           # shed / never finished = missed
        return self.latency_us <= self.slo_us

    @property
    def deadline_missed(self) -> bool:
        if self.deadline_us is None or self.finished_us is None:
            return False
        return self.finished_us > self.deadline_us


@dataclass
class TenantReport:
    """Aggregated per-tenant serving statistics."""

    tenant: str
    requests: int = 0
    completed: int = 0
    shed: int = 0
    #: Of the sheds, how many were drain-sheds (fleet node fencing).
    drain_shed: int = 0
    #: Requests that died in flight with their node (fleet faults).
    lost: int = 0
    rate_limited: int = 0
    delayed: int = 0
    deadline_misses: int = 0
    p50_us: Optional[float] = None
    p95_us: Optional[float] = None
    p99_us: Optional[float] = None
    mean_us: Optional[float] = None
    #: Fraction of *all* requests (sheds count as misses) finishing
    #: within the SLO; ``None`` for best-effort tenants.
    attainment: Optional[float] = None
    #: SLO-compliant completions per second of simulated time (for
    #: best-effort tenants: all completions).
    goodput_rps: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class ServingReport:
    """The whole run: one row per tenant plus the horizon."""

    horizon_us: float
    tenants: List[TenantReport] = field(default_factory=list)

    def tenant(self, name: str) -> TenantReport:
        for row in self.tenants:
            if row.tenant == name:
                return row
        raise ServingError(f"no tenant {name!r} in this report")

    def as_dict(self) -> Dict[str, object]:
        return {
            "horizon_us": self.horizon_us,
            "tenants": [t.as_dict() for t in self.tenants],
        }

    def format(self) -> str:
        def fmt_us(v: Optional[float]) -> str:
            return f"{v:.0f}" if v is not None else "-"

        def fmt_pct(v: Optional[float]) -> str:
            return f"{100.0 * v:.1f}%" if v is not None else "-"

        header = (
            f"{'tenant':12s} {'req':>5s} {'done':>5s} {'shed':>5s} "
            f"{'rate':>5s} {'dly':>4s} {'p50us':>8s} {'p95us':>8s} "
            f"{'p99us':>8s} {'attain':>7s} {'goodput':>8s} {'ddl_miss':>8s}"
        )
        lines = [header, "-" * len(header)]
        for t in self.tenants:
            lines.append(
                f"{t.tenant:12s} {t.requests:5d} {t.completed:5d} "
                f"{t.shed:5d} {t.rate_limited:5d} {t.delayed:4d} "
                f"{fmt_us(t.p50_us):>8s} {fmt_us(t.p95_us):>8s} "
                f"{fmt_us(t.p99_us):>8s} {fmt_pct(t.attainment):>7s} "
                f"{t.goodput_rps:7.1f}/s {t.deadline_misses:8d}"
            )
        lines.append(
            f"(horizon {self.horizon_us / 1000.0:.2f} ms of simulated time)"
        )
        return "\n".join(lines)


class SLOTracker:
    """The serving layer's accounting sink (exact samples + obs mirror)."""

    def __init__(
        self, tenants: TenantSet, obs: Optional[Observability] = None
    ):
        self.tenants = tenants
        self.obs = obs if obs is not None else NULL_OBS
        self._log: List[RequestLog] = []
        if self.obs.enabled:
            m = self.obs.metrics
            self._m_requests = m.counter(
                "flep_serving_requests_total",
                "serving requests by tenant and final outcome",
                ("tenant", "outcome"),
            )
            self._m_delayed = m.counter(
                "flep_serving_delayed_total",
                "requests admitted but held back by admission control",
                ("tenant",),
            )
            self._m_latency = m.histogram(
                "flep_serving_latency_us",
                "arrival-to-completion request latency (µs)",
                ("tenant",),
                buckets=SERVING_LATENCY_BUCKETS,
            )
            self._m_ddl_miss = m.counter(
                "flep_serving_deadline_misses_total",
                "completions after the request's absolute deadline",
                ("tenant",),
            )
            self._m_attain = m.gauge(
                "flep_serving_slo_attainment_ratio",
                "fraction of requests completing within the tenant SLO",
                ("tenant",),
            )
            self._m_goodput = m.gauge(
                "flep_serving_goodput_rps",
                "SLO-compliant completions per second of simulated time",
                ("tenant",),
            )

    # ------------------------------------------------------------------
    # recording (called by the server)
    # ------------------------------------------------------------------
    def open_request(self, log: RequestLog) -> RequestLog:
        """Start accounting for ``log``, the record the front door built
        (ids are opened in increasing order); stamps its deadline."""
        if self._log and log.req_id <= self._log[-1].req_id:
            raise ServingError(
                f"request {log.req_id} opened twice or out of order"
            )
        deadline_rel = log.tenant.effective_deadline_us
        if deadline_rel is not None:
            log.deadline_us = log.arrived_us + deadline_rel
        self._log.append(log)
        return log

    def mark_delayed(self, log: RequestLog) -> None:
        log.delayed = True
        if self.obs.enabled:
            self._m_delayed.inc(tenant=log.tenant.name)

    def mark_shed(
        self, log: RequestLog, rate_limited: bool = False,
        cause: Optional[str] = None,
    ) -> None:
        log.outcome = "rate_limited" if rate_limited else "shed"
        if log.outcome == "shed":
            log.shed_cause = cause or "admission"
        if self.obs.enabled:
            self._m_requests.inc(tenant=log.tenant.name, outcome=log.outcome)

    def mark_lost(self, log: RequestLog) -> None:
        """The request died with its node (crash mid-flight): terminal,
        never completed, counts as an SLO miss like a shed."""
        if log.outcome == "completed":
            raise ServingError(
                f"request {log.req_id} completed; it cannot be lost"
            )
        log.outcome = "lost"
        if self.obs.enabled:
            self._m_requests.inc(tenant=log.tenant.name, outcome="lost")

    def mark_completed(self, log: RequestLog, finished_us: float) -> None:
        if log.outcome != "pending":
            raise ServingError(
                f"request {log.req_id} already resolved as {log.outcome}"
            )
        log.outcome = "completed"
        log.finished_us = finished_us
        if self.obs.enabled:
            tenant = log.tenant.name
            self._m_requests.inc(tenant=tenant, outcome="completed")
            self._m_latency.observe(log.latency_us, tenant=tenant)
            if log.deadline_missed:
                self._m_ddl_miss.inc(tenant=tenant)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def requests(self) -> List[RequestLog]:
        return list(self._log)

    def report(self, horizon_us: float) -> ServingReport:
        """Aggregate everything recorded so far into per-tenant rows."""
        report = ServingReport(horizon_us=horizon_us)
        horizon_s = max(horizon_us, 1.0) / 1e6
        for tenant in self.tenants:
            logs = [r for r in self._log if r.tenant.name == tenant.name]
            row = TenantReport(tenant=tenant.name, requests=len(logs))
            latencies = [
                r.latency_us for r in logs if r.latency_us is not None
            ]
            row.completed = len(latencies)
            row.shed = sum(1 for r in logs if r.outcome == "shed")
            row.drain_shed = sum(
                1 for r in logs
                if r.outcome == "shed" and r.shed_cause == "drain"
            )
            row.lost = sum(1 for r in logs if r.outcome == "lost")
            row.rate_limited = sum(
                1 for r in logs if r.outcome == "rate_limited"
            )
            row.delayed = sum(1 for r in logs if r.delayed)
            row.deadline_misses = sum(1 for r in logs if r.deadline_missed)
            if latencies:
                row.p50_us, row.p95_us, row.p99_us = percentiles(latencies)
                row.mean_us = sum(latencies) / len(latencies)
            if tenant.slo_us is not None and logs:
                good = sum(1 for r in logs if r.slo_met)
                row.attainment = good / len(logs)
                row.goodput_rps = good / horizon_s
            else:
                row.goodput_rps = row.completed / horizon_s
            if self.obs.enabled:
                if row.attainment is not None:
                    self._m_attain.set(row.attainment, tenant=tenant.name)
                self._m_goodput.set(row.goodput_rps, tenant=tenant.name)
            report.tenants.append(row)
        return report
