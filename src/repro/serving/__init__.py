"""Multi-tenant, SLO-aware serving on top of the FLEP runtime.

The subsystem the ROADMAP's north star asks for: tenants with
priorities, weights, SLO targets and rate limits (:mod:`.tenants`);
open-loop Poisson load generation (:mod:`.loadgen`); SLO-budget
admission control driven by the runtime's duration predictions
(:mod:`.admission`); per-tenant latency percentiles, attainment, goodput
and deadline accounting wired into :mod:`repro.obs` (:mod:`.slo`); and
the :class:`ServingSystem` server that runs it all over MPS,
FLEP-temporal or FLEP-spatial execution with the deadline-aware EDF
policy.

Quick start::

    from repro.serving import (
        PoissonLoadGen, ServingConfig, ServingSystem, Tenant,
    )

    tenants = [
        Tenant("batch"),
        Tenant("interactive", priority=1, slo_us=2_000.0),
    ]
    server = ServingSystem(tenants, ServingConfig(mode="flep-spatial"))
    server.submit_at(0.0, "batch", "VA", "large")
    server.add_generator(PoissonLoadGen(
        tenant="interactive", kernels=["SPMV", "MM"], rate_per_ms=0.2,
        duration_ms=25.0, seed=7, input_names=("trivial",), priority=1,
    ))
    print(server.run().format())
"""

from .admission import AdmissionController, Decision, TokenBucket, Verdict
from .loadgen import PoissonLoadGen, merge_traces
from .server import MODES, ServingConfig, ServingSystem
from .slo import (
    RequestLog,
    SERVING_LATENCY_BUCKETS,
    ServingReport,
    SLOTracker,
    TenantReport,
)
from .tenants import Tenant, TenantSet

__all__ = [
    "AdmissionController",
    "Decision",
    "MODES",
    "PoissonLoadGen",
    "RequestLog",
    "SERVING_LATENCY_BUCKETS",
    "SLOTracker",
    "ServingConfig",
    "ServingReport",
    "ServingSystem",
    "Tenant",
    "TenantReport",
    "TenantSet",
    "TokenBucket",
    "Verdict",
    "merge_traces",
]
