"""Byte-level pins on the two end-of-run reports.

A mixed flep-spatial/flep-temporal/mps fleet with a crash, a rejoin, a
drain, a rate-limited tenant and work stealing, and an MPS server with
admission on and a stream of batch jobs, each reduced to a digest of its
report's sorted-key JSON (per-node rows and per-tenant rows included).
Any change to how requests are recorded, attributed or aggregated moves
a digest; a change that means to move one must update the pin and say
why.
"""

import hashlib
import json

from repro.fleet import FleetConfig, FleetSystem, parse_fault_spec
from repro.serving import (
    PoissonLoadGen,
    ServingConfig,
    ServingSystem,
    Tenant,
)

PLAN = "crash@4000:n1,rejoin@8000:n1,drain@10000:n2+100"

#: sha256 prefixes of ``json.dumps(report.as_dict(), sort_keys=True)``
PINNED_FLEET = "e986f7da6aed11a8"
PINNED_SERVING = "3d2271eeffe1aff0"


def digest(report) -> str:
    doc = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def fleet_run(suite):
    fleet = FleetSystem(
        [
            Tenant("web", priority=2, slo_us=3_000.0),
            Tenant("analytics", priority=1, slo_us=25_000.0,
                   rate_limit_rps=200.0, burst=2),
            Tenant("batch", priority=0),
        ],
        FleetConfig(
            node_modes=("flep-spatial", "flep-temporal", "mps"),
            routing="round-robin", seed=9, oracle_model=True, max_inflight=2,
            faults=parse_fault_spec(PLAN),
        ),
        device=suite.device, suite=suite,
    )
    for tenant, kernels, rate, inputs, priority, seed in (
        ("web", ("SPMV", "MM", "PL"), 4.0, ("trivial",), 2, 9),
        ("analytics", ("SPMV", "MM"), 0.6, ("small",), 1, 10),
        ("batch", ("VA", "NN"), 0.2, ("large",), 0, 11),
    ):
        fleet.add_generator(PoissonLoadGen(
            tenant=tenant, kernels=kernels, rate_per_ms=rate,
            duration_ms=25.0, seed=seed, input_names=inputs,
            priority=priority,
        ))
    return fleet.run()


def serving_run(suite):
    server = ServingSystem(
        [Tenant("interactive", priority=1, slo_us=400.0),
         Tenant("batch", priority=0)],
        ServingConfig(mode="mps", admission=True, seed=7),
        device=suite.device, suite=suite,
    )
    server.add_generator(PoissonLoadGen(
        tenant="interactive", kernels=("SPMV", "PL"), rate_per_ms=1.5,
        duration_ms=20.0, seed=5, input_names=("trivial",), priority=1,
    ))
    for k in range(12):
        server.submit_at(k * 1500.0, "batch", "MM", "small")
    return server.run()


def test_fleet_report_is_pinned(suite):
    report = fleet_run(suite)
    doc = report.as_dict()
    actions = {f["action"] for f in doc["faults"]}
    assert {"crash", "rejoin", "drain", "drain-deadline"} <= actions
    assert doc["steals"] >= 1 and doc["lost"] >= 1
    rows = {t["tenant"]: t for t in doc["serving"]["tenants"]}
    assert rows["analytics"]["rate_limited"] > 0
    assert doc["conservation"]["accounted"]
    assert digest(report) == PINNED_FLEET


def test_serving_report_is_pinned(suite):
    report = serving_run(suite)
    rows = {t.tenant: t for t in report.tenants}
    assert rows["batch"].requests == 12
    assert rows["interactive"].shed + rows["interactive"].delayed > 0
    assert digest(report) == PINNED_SERVING
