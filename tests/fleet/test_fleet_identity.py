"""Fleet golden-trace determinism: same seed + same fault plan ⇒
byte-identical rollups across repeated runs (mirrors
``tests/gpu/test_schedule_identity.py`` one layer up).

The conservative co-simulation's reproducibility claim is the
foundation the chaos layer stands on: a fault run that cannot be
replayed bit-for-bit cannot be debugged. These tests pin the claim at
the strongest level we can observe — the full ``FleetReport.as_dict()``
serialized with sorted keys — so any nondeterminism anywhere in the
routing / stealing / fault / accounting pipeline shows up as a diff.
"""

import json

import pytest

from repro.fleet import FleetConfig, FleetSystem, parse_fault_spec, random_plan
from repro.serving import PoissonLoadGen, Tenant, TenantSet

#: A plan exercising every fault kind (and both derived control points).
FULL_PLAN = "stall@1500:n1+700,crash@3000:n0,rejoin@7000:n0,drain@9000:n2+1200"


def tenants():
    return [
        Tenant("web", priority=2, slo_us=3_000.0),
        Tenant("analytics", priority=1, slo_us=25_000.0),
        Tenant("batch", priority=0),
    ]


def build_fleet(suite, faults=None, routing="deadline",
                seed=9, duration_ms=25.0):
    fleet = FleetSystem(
        tenants(),
        FleetConfig(
            node_modes=("flep-spatial", "flep-temporal", "mps"),
            routing=routing, seed=seed, oracle_model=True,
            faults=faults,
        ),
        device=suite.device, suite=suite,
    )
    fleet.add_generator(PoissonLoadGen(
        tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=2.0,
        duration_ms=duration_ms, seed=seed, input_names=("trivial",),
        priority=2,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="analytics", kernels=("SPMV", "MM"), rate_per_ms=0.4,
        duration_ms=duration_ms, seed=seed + 1, input_names=("small",),
        priority=1,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.05,
        duration_ms=duration_ms, seed=seed + 2, input_names=("large",),
        priority=0,
    ))
    return fleet


def rollup_bytes(report) -> str:
    return json.dumps(report.as_dict(), sort_keys=True, default=str)


class TestRunToRunIdentity:
    def test_fault_free_runs_identical(self, suite):
        a = rollup_bytes(build_fleet(suite).run())
        b = rollup_bytes(build_fleet(suite).run())
        assert a == b

    def test_faulted_runs_identical(self, suite):
        plan = parse_fault_spec(FULL_PLAN)
        a = rollup_bytes(build_fleet(suite, faults=plan).run())
        b = rollup_bytes(build_fleet(suite, faults=plan).run())
        assert a == b

    @pytest.mark.parametrize("routing", ["round-robin", "least-loaded",
                                         "deadline", "affinity"])
    def test_identity_holds_per_routing_policy(self, suite, routing):
        plan = parse_fault_spec("crash@2500:n1,rejoin@6000:n1")
        a = rollup_bytes(build_fleet(suite, faults=plan,
                                     routing=routing).run())
        b = rollup_bytes(build_fleet(suite, faults=plan,
                                     routing=routing).run())
        assert a == b

    def test_seeded_random_plans_identical(self, suite):
        for fault_seed in (1, 17, 42):
            plan_a = random_plan(fault_seed, 3, 25_000.0)
            plan_b = random_plan(fault_seed, 3, 25_000.0)
            assert plan_a.describe() == plan_b.describe()
            a = rollup_bytes(build_fleet(suite, faults=plan_a).run())
            b = rollup_bytes(build_fleet(suite, faults=plan_b).run())
            assert a == b, f"fault seed {fault_seed} diverged"


class TestSensitivity:
    """The identity tests above would pass vacuously if the rollup were
    insensitive to the inputs; pin that it is not."""

    def test_different_seed_differs(self, suite):
        a = rollup_bytes(build_fleet(suite, seed=9).run())
        b = rollup_bytes(build_fleet(suite, seed=10).run())
        assert a != b

    def test_fault_plan_changes_the_rollup(self, suite):
        plan = parse_fault_spec("crash@2500:n0")
        a = rollup_bytes(build_fleet(suite).run())
        b = rollup_bytes(build_fleet(suite, faults=plan).run())
        assert a != b
