"""Fault injection: plan validation, node lifecycle, dispatcher
integration, and hypothesis-driven chaos conformance.

The chaos class is the satellite the ISSUE asks for: random fault
plans (crash / drain / stall times drawn per seed) × routing policies
× steal on/off, every combination run under the full monitor bundle —
request conservation, steal safety and clock monotonicity must hold
for *every* generated plan, not just the hand-picked ones.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FleetError
from repro.fleet import (
    FaultEvent,
    FaultPlan,
    FleetConfig,
    FleetNode,
    FleetSystem,
    NodeConfig,
    NodeRequest,
    expand_plan,
    parse_fault_spec,
    random_plan,
)
from repro.serving import PoissonLoadGen, Tenant, TenantSet
from repro.validate import install_fleet_monitor
from repro.validate.monitors import install_monitors


def three_tenants():
    return [
        Tenant("web", priority=2, slo_us=3_000.0),
        Tenant("analytics", priority=1, slo_us=25_000.0),
        Tenant("batch", priority=0),
    ]


def faulted_fleet(suite, plan, routing="deadline", seed=5, steal=True,
                  modes=("flep-temporal", "flep-spatial", "mps"),
                  duration_ms=20.0, web_rate=2.0):
    fleet = FleetSystem(
        three_tenants(),
        FleetConfig(node_modes=modes, routing=routing, seed=seed,
                    steal=steal, oracle_model=True, faults=plan),
        device=suite.device, suite=suite,
    )
    fleet.add_generator(PoissonLoadGen(
        tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=web_rate,
        duration_ms=duration_ms, seed=seed, input_names=("trivial",),
        priority=2,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.05,
        duration_ms=duration_ms, seed=seed + 2, input_names=("large",),
        priority=0,
    ))
    return fleet


# ---------------------------------------------------------------------------
# plan construction and validation
# ---------------------------------------------------------------------------
class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(FleetError, match="unknown fault kind"):
            FaultEvent("explode", 0, 100.0)

    def test_rejects_negative_time_and_node(self):
        with pytest.raises(FleetError, match="negative time"):
            FaultEvent("crash", 0, -1.0)
        with pytest.raises(FleetError, match="negative node"):
            FaultEvent("crash", -1, 100.0)

    def test_drain_needs_deadline(self):
        with pytest.raises(FleetError, match="positive deadline"):
            FaultEvent("drain", 0, 100.0)
        with pytest.raises(FleetError, match="takes no deadline"):
            FaultEvent("crash", 0, 100.0, deadline_us=50.0)

    def test_stall_needs_duration(self):
        with pytest.raises(FleetError, match="positive duration"):
            FaultEvent("stall", 0, 100.0)
        with pytest.raises(FleetError, match="takes no duration"):
            FaultEvent("rejoin", 0, 100.0, duration_us=50.0)

    def test_describe(self):
        assert FaultEvent("crash", 2, 5_000.0).describe() == "crash@5000:n2"
        ev = FaultEvent("drain", 1, 2_000.0, deadline_us=3_000.0)
        assert ev.describe() == "drain@2000:n1+3000"


class TestFaultPlan:
    def test_sorts_by_time(self):
        plan = FaultPlan((
            FaultEvent("crash", 1, 900.0),
            FaultEvent("crash", 0, 100.0),
        ))
        assert [ev.at_us for ev in plan] == [100.0, 900.0]

    def test_rejects_double_crash(self):
        with pytest.raises(FleetError, match="only an up node can crash"):
            FaultPlan((
                FaultEvent("crash", 0, 100.0),
                FaultEvent("crash", 0, 200.0),
            ))

    def test_rejects_rejoin_of_live_node(self):
        with pytest.raises(FleetError, match="only a crashed node"):
            FaultPlan((FaultEvent("rejoin", 0, 100.0),))

    def test_crash_rejoin_crash_is_legal(self):
        plan = FaultPlan((
            FaultEvent("crash", 0, 100.0),
            FaultEvent("rejoin", 0, 200.0),
            FaultEvent("crash", 0, 300.0),
        ))
        assert len(plan) == 3

    def test_rejects_fault_on_drained_node(self):
        with pytest.raises(FleetError, match="only an up node"):
            FaultPlan((
                FaultEvent("drain", 0, 100.0, deadline_us=50.0),
                FaultEvent("crash", 0, 500.0),
            ))

    def test_rejects_fault_inside_stall_window(self):
        with pytest.raises(FleetError, match="stall window"):
            FaultPlan((
                FaultEvent("stall", 0, 100.0, duration_us=500.0),
                FaultEvent("crash", 0, 300.0),
            ))

    def test_check_nodes(self):
        plan = FaultPlan((FaultEvent("crash", 3, 100.0),))
        plan.check_nodes(4)
        with pytest.raises(FleetError, match="only 2 node"):
            plan.check_nodes(2)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan((FaultEvent("crash", 0, 1.0),))


class TestParseSpec:
    def test_round_trip(self):
        spec = "stall@1000:n2+500,crash@5000:n0,rejoin@9000:n0"
        plan = parse_fault_spec(spec)
        assert plan.describe() == spec
        assert plan.events[0].duration_us == 500.0

    def test_drain_extra_is_deadline(self):
        plan = parse_fault_spec("drain@2000:n1+3000")
        assert plan.events[0].deadline_us == 3_000.0

    def test_bad_specs_raise(self):
        for bad in ("boom@1:n0", "crash@x:n0", "crash@100:0", "crash@100"):
            with pytest.raises(FleetError):
                parse_fault_spec(bad)


class TestRandomPlan:
    def test_deterministic_per_seed(self):
        a = random_plan(7, 3, 10_000.0)
        b = random_plan(7, 3, 10_000.0)
        assert a.describe() == b.describe()
        c = random_plan(8, 3, 10_000.0)
        # different seeds *may* collide, but not for these two
        assert a.describe() != c.describe()

    def test_always_valid_and_in_range(self):
        for seed in range(60):
            plan = random_plan(seed, 3, 20_000.0)
            plan.check_nodes(3)  # construction already validated lifecycle

    def test_keep_one_up_never_downs_all(self):
        for seed in range(60):
            plan = random_plan(seed, 2, 20_000.0, max_events=4)
            down = 0
            for ev in sorted(plan, key=lambda e: e.at_us):
                if ev.kind in ("crash", "drain"):
                    down += 1
                elif ev.kind == "rejoin":
                    down -= 1
                assert down <= 1  # 2 nodes: at least one always routable


class TestExpandPlan:
    def test_drain_and_stall_expand_to_paired_actions(self):
        plan = FaultPlan((
            FaultEvent("drain", 0, 1_000.0, deadline_us=2_000.0),
            FaultEvent("stall", 1, 1_500.0, duration_us=200.0),
        ))
        kinds = [(a.at_us, a.kind, a.node) for a in expand_plan(plan)]
        assert kinds == [
            (1_000.0, "drain", 0),
            (1_500.0, "stall", 1),
            (1_700.0, "unstall", 1),
            (3_000.0, "drain-deadline", 0),
        ]


# ---------------------------------------------------------------------------
# node lifecycle
# ---------------------------------------------------------------------------
def lone_node(suite, mode="flep-temporal", max_inflight=1, admission=False):
    return FleetNode(
        index=0,
        tenants=TenantSet([
            Tenant("web", priority=1, slo_us=5_000.0),
            Tenant("batch", priority=0),
        ]),
        config=NodeConfig(
            mode=mode, admission=admission, max_inflight=max_inflight,
            oracle_model=True, seed=3,
        ),
        device=suite.device,
        suite=suite,
    )


def lone_req(node, req_id, tenant="batch", predicted=500.0):
    return node.tracker.open_request(NodeRequest(
        req_id=req_id, tenant=node.tenants[tenant], kernel="SPMV",
        input_name="trivial", arrived_us=node.sim.now, predicted_us=predicted,
    ))


class TestNodeCrash:
    def test_crash_reclaims_queued_and_loses_inflight(self, suite):
        node = lone_node(suite, max_inflight=1)
        reqs = [lone_req(node, i) for i in range(1, 4)]
        for r in reqs:
            node.enqueue(r)
        assert reqs[0].state == "dispatched"
        reclaimed, lost = node.crash(now=100.0)
        assert node.state == "down" and not node.routable
        assert [r.req_id for r in reclaimed] == [2, 3]
        assert all(r.state == "routed" and r.node is None for r in reclaimed)
        assert [r.req_id for r in lost] == [1]
        assert lost[0].state == "lost"
        assert node.stats.lost == 1
        assert node.tracker.requests[0].outcome == "lost"
        assert node.load_us() == 0.0

    def test_down_node_refuses_everything(self, suite):
        node = lone_node(suite)
        node.crash(now=0.0)
        with pytest.raises(FleetError, match="already down"):
            node.crash(now=1.0)
        r = lone_req(node, 9)
        with pytest.raises(FleetError, match="state 'down'"):
            node.enqueue(r)
        with pytest.raises(FleetError, match="cannot receive"):
            node.accept_rerouted(r)

    def test_crash_freezes_the_clock(self, suite):
        node = lone_node(suite)
        node.enqueue(lone_req(node, 1))
        node.crash(now=50.0)
        frozen = node.sim.now
        node.advance(5_000.0)
        node.drain()
        assert node.sim.now == frozen

    def test_rejoin_rebuilds_fresh_backend(self, suite):
        node = lone_node(suite)
        node.enqueue(lone_req(node, 1))
        node.crash(now=50.0)
        old_sim = node.sim
        node.rejoin(now=4_000.0)
        assert node.state == "up" and node.routable
        assert node.sim is not old_sim
        assert node.sim.now == 4_000.0
        assert node.stats.rejoins == 1
        r = lone_req(node, 2)
        node.enqueue(r)
        node.drain()
        assert r.state == "done"

    def test_rejoin_requires_down(self, suite):
        node = lone_node(suite)
        with pytest.raises(FleetError, match="only a down node"):
            node.rejoin(now=0.0)


class TestNodeDrain:
    def test_drain_fences_then_sheds_leftovers(self, suite):
        node = lone_node(suite, max_inflight=1)
        reqs = [lone_req(node, i) for i in range(1, 4)]
        for r in reqs:
            node.enqueue(r)
        node.begin_drain(now=0.0, deadline_us=100.0)
        assert node.state == "draining" and not node.routable
        with pytest.raises(FleetError, match="state 'draining'"):
            node.enqueue(lone_req(node, 9))
        shed = node.finish_drain()
        assert node.state == "drained"
        assert [r.req_id for r in shed] == [2, 3]
        assert all(r.state == "shed" and r.shed_cause == "drain"
                   for r in shed)
        assert node.stats.drain_shed == 2
        # in-flight request still finishes on the node's own clock
        node.drain()
        assert reqs[0].state == "done"
        log = node.tracker.requests[1]
        assert log.outcome == "shed" and log.shed_cause == "drain"

    def test_draining_node_keeps_pumping_its_queue(self, suite):
        node = lone_node(suite, max_inflight=1)
        reqs = [lone_req(node, i) for i in range(1, 3)]
        for r in reqs:
            node.enqueue(r)
        node.begin_drain(now=0.0, deadline_us=1e9)
        node.drain()  # deadline far away: everything completes
        assert all(r.state == "done" for r in reqs)
        assert node.finish_drain() == []


class TestNodeStall:
    def test_stall_pauses_dispatch_only(self, suite):
        node = lone_node(suite, max_inflight=1)
        node.stall(now=0.0, duration_us=500.0)
        assert node.state == "stalled"
        assert node.routable  # slow, not gone: routing still sees it
        r = lone_req(node, 1)
        node.enqueue(r)
        assert r.state == "queued"  # accepted but not dispatched
        node.unstall()
        assert r.state == "dispatched"
        node.drain()
        assert r.state == "done"

    def test_stalled_queue_is_stealable(self, suite):
        node = lone_node(suite, max_inflight=1)
        node.stall(now=0.0, duration_us=500.0)
        r = lone_req(node, 1)
        node.enqueue(r)
        taken = node.take(r)
        assert taken.state == "routed"

    def test_transitions_are_guarded(self, suite):
        node = lone_node(suite)
        node.stall(now=0.0, duration_us=10.0)
        with pytest.raises(FleetError, match="only an up node"):
            node.begin_drain(now=0.0, deadline_us=10.0)
        with pytest.raises(FleetError, match="only an up node"):
            node.stall(now=0.0, duration_us=10.0)
        node.unstall()
        with pytest.raises(FleetError, match="not stalled"):
            node.unstall()


# ---------------------------------------------------------------------------
# dispatcher integration
# ---------------------------------------------------------------------------
class TestDispatcherFaults:
    def test_crash_reroutes_and_accounts(self, suite):
        plan = parse_fault_spec("crash@3000:n0")
        fleet = faulted_fleet(suite, plan, web_rate=3.0)
        monitor = install_fleet_monitor(fleet)
        report = fleet.run()
        row = report.node(0)
        assert row.state == "down"
        assert monitor.faults_seen == 1
        # everything the dead node surrendered is accounted somewhere
        assert row.rerouted_out == len(report.reroutes)
        assert row.rerouted_out == sum(
            n.rerouted_in for n in report.nodes
        )
        assert report.lost == row.lost
        assert report.conservation["accounted"]
        assert report.conservation["pending"] == 0

    def test_drain_sheds_with_drain_cause(self, suite):
        # fence node 0 with a grace window far smaller than its queue:
        # a burst of ~31 ms batch jobs right before the drain leaves
        # work queued past the deadline, which must shed with cause
        # "drain" while the in-flight jobs still complete
        plan = parse_fault_spec("drain@2000:n0+300")
        fleet = faulted_fleet(suite, plan, routing="round-robin",
                              web_rate=1.0, steal=False)
        for i in range(30):
            fleet.submit_at(1_500.0, "batch", "VA", "large")
        report = fleet.run()
        row = report.node(0)
        assert row.state == "drained"
        assert row.drain_shed > 0
        drained = [
            t.drain_shed for t in report.serving.tenants
        ]
        assert sum(drained) == sum(n.drain_shed for n in report.nodes)
        assert report.conservation["accounted"]

    def test_total_outage_loses_at_front_door(self, suite):
        plan = parse_fault_spec("crash@1000:n0,crash@1000:n1")
        fleet = faulted_fleet(suite, plan, modes=("mps", "mps"),
                              duration_ms=10.0, steal=False)
        report = fleet.run()
        assert all(n.state == "down" for n in report.nodes)
        # arrivals after t=1000 had no routable node: lost, not dropped
        assert report.lost > 0
        assert report.conservation["accounted"]
        total_lost = sum(t.lost for t in report.serving.tenants)
        assert total_lost == report.conservation["lost"]

    def test_rejoined_node_serves_again(self, suite):
        plan = parse_fault_spec("crash@2000:n0,rejoin@4000:n0")
        fleet = faulted_fleet(suite, plan, routing="round-robin",
                              duration_ms=30.0)
        report = fleet.run()
        row = report.node(0)
        assert row.state == "up"
        assert row.rejoins == 1
        # it received work after coming back (round-robin cycles it in)
        assert row.routed + row.rerouted_in + row.stolen_in > 0

    def test_fault_runs_are_bit_identical(self, suite):
        plan = parse_fault_spec(
            "stall@1000:n1+500,crash@2500:n0,rejoin@6000:n0"
        )
        docs = []
        for _ in range(2):
            report = faulted_fleet(suite, plan).run()
            docs.append(json.dumps(report.as_dict(), sort_keys=True,
                                   default=str))
        assert docs[0] == docs[1]

    def test_plan_nodes_checked_against_fleet(self, suite):
        plan = parse_fault_spec("crash@1000:n5")
        with pytest.raises(FleetError, match="only 3 node"):
            faulted_fleet(suite, plan)


# ---------------------------------------------------------------------------
# hypothesis chaos: monitors stay green for every generated plan
# ---------------------------------------------------------------------------
class TestChaos:
    @given(
        fault_seed=st.integers(min_value=0, max_value=10_000),
        load_seed=st.integers(min_value=0, max_value=50),
        routing=st.sampled_from(
            ("round-robin", "least-loaded", "deadline", "affinity")
        ),
        steal=st.booleans(),
    )
    @settings(max_examples=25)
    def test_random_plans_conserve_requests(
        self, suite, fault_seed, load_seed, routing, steal,
    ):
        duration_ms = 15.0
        plan = random_plan(
            fault_seed, n_nodes=3, horizon_us=duration_ms * 1_000.0,
        )
        fleet = faulted_fleet(
            suite, plan, routing=routing, seed=load_seed, steal=steal,
            duration_ms=duration_ms,
        )
        bundle = install_monitors(fleet, require_complete=True)
        # run() raises InvariantViolation the instant conservation,
        # steal safety or clock monotonicity breaks; finalize() adds
        # the end-of-run node-level checks on every surviving backend.
        report = fleet.run()
        bundle.finalize()
        bundle.uninstall()
        assert report.conservation["accounted"], report.conservation
        con = report.conservation
        assert con["opened"] == (
            con["completed"] + con["shed"] + con["rate_limited"]
            + con["lost"]
        )
        # fleet-level ledger and per-node attribution must agree on
        # crash losses (front-door losses belong to no node)
        outage_losses = sum(
            1 for r in fleet.tracker.requests
            if r.state == "lost" and r.node is None
        )
        assert report.lost == (
            sum(n.lost for n in report.nodes) + outage_losses
        )
