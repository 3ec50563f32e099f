"""FleetSystem dispatcher tests: determinism, stealing, co-simulation."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import (
    FleetConfig,
    FleetNode,
    FleetSystem,
    NodeConfig,
    RoutingPolicy,
    WorkStealer,
)
from repro.serving import PoissonLoadGen, Tenant, TenantSet
from repro.validate import install_fleet_monitor


def three_tenants():
    return [
        Tenant("web", priority=2, slo_us=3_000.0),
        Tenant("analytics", priority=1, slo_us=25_000.0),
        Tenant("batch", priority=0),
    ]


def loaded_fleet(suite, routing="round-robin", seed=5, steal=True,
                 modes=("flep-temporal", "mps"), duration_ms=40.0,
                 web_rate=2.0):
    fleet = FleetSystem(
        three_tenants(),
        FleetConfig(node_modes=modes, routing=routing, seed=seed,
                    steal=steal, oracle_model=True),
        device=suite.device, suite=suite,
    )
    fleet.add_generator(PoissonLoadGen(
        tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=web_rate,
        duration_ms=duration_ms, seed=seed, input_names=("trivial",),
        priority=2,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="analytics", kernels=("SPMV", "MM"), rate_per_ms=0.5,
        duration_ms=duration_ms, seed=seed + 1, input_names=("small",),
        priority=1,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.05,
        duration_ms=duration_ms, seed=seed + 2, input_names=("large",),
        priority=0,
    ))
    return fleet


class TestLifecycle:
    def test_runs_once(self, suite):
        fleet = loaded_fleet(suite, duration_ms=5.0)
        fleet.run()
        with pytest.raises(FleetError, match="runs once"):
            fleet.run()

    def test_needs_a_workload(self, suite):
        fleet = FleetSystem(three_tenants(), device=suite.device,
                            suite=suite)
        with pytest.raises(FleetError, match="nothing to serve"):
            fleet.run()

    def test_rejects_unknown_tenant_trace(self, suite):
        fleet = FleetSystem(three_tenants(), device=suite.device,
                            suite=suite)
        with pytest.raises(FleetError, match="unknown tenant"):
            fleet.add_generator(PoissonLoadGen(
                tenant="nobody", kernels=("SPMV",), rate_per_ms=1.0,
                duration_ms=5.0, seed=0,
            ))

    def test_needs_at_least_one_node(self):
        with pytest.raises(FleetError, match="at least one node"):
            FleetConfig(node_modes=())

    def test_out_of_range_router_is_caught(self, suite):
        class BadRouter(RoutingPolicy):
            name = "bad"

            def choose(self, req, nodes, now):
                return len(nodes)

        fleet = loaded_fleet(suite, duration_ms=5.0)
        fleet.router = BadRouter()
        with pytest.raises(FleetError, match="chose node"):
            fleet.run()


class TestDeterminism:
    def test_same_seed_identical_rollup(self, suite):
        docs = []
        for _ in range(2):
            report = loaded_fleet(suite, routing="deadline",
                                  duration_ms=25.0).run()
            docs.append(json.dumps(report.as_dict(), sort_keys=True,
                                   default=str))
        assert docs[0] == docs[1]

    def test_different_seed_differs(self, suite):
        a = loaded_fleet(suite, seed=5, duration_ms=25.0).run()
        b = loaded_fleet(suite, seed=6, duration_ms=25.0).run()
        assert (json.dumps(a.as_dict(), sort_keys=True, default=str)
                != json.dumps(b.as_dict(), sort_keys=True, default=str))


class TestWorkStealing:
    def test_steals_fire_and_stay_safe_under_imbalance(self, suite):
        # round-robin at high load imbalances FLEP-vs-MPS service rates;
        # the monitor vetoes any migration of non-queued work.
        fleet = loaded_fleet(suite, routing="round-robin", web_rate=3.0,
                             duration_ms=60.0)
        monitor = install_fleet_monitor(fleet)
        report = fleet.run()
        assert report.steals, "expected migrations under imbalance"
        assert monitor.steals_seen == len(report.steals)
        moved = {req_id for _, req_id, _, _ in report.steals}
        by_id = {r.req_id: r for r in fleet.tracker.requests}
        assert all(by_id[m].steals >= 1 for m in moved)
        assert sum(n.stats.stolen_out for n in fleet.nodes) >= len(moved)

    def test_no_steal_flag_disables_migration(self, suite):
        fleet = loaded_fleet(suite, steal=False, web_rate=3.0,
                             duration_ms=40.0)
        report = fleet.run()
        assert report.steals == []

    def test_rebalancer_moves_tail_from_hot_to_cold(self, suite):
        tenants = TenantSet(three_tenants())
        cfg = NodeConfig(mode="flep-temporal", admission=False,
                         max_inflight=1, oracle_model=True, seed=1)
        hot = FleetNode(0, tenants, cfg, device=suite.device, suite=suite)
        cold = FleetNode(1, tenants,
                         NodeConfig(mode="flep-temporal", admission=False,
                                    max_inflight=1, oracle_model=True,
                                    seed=2),
                         device=suite.device, suite=suite)
        from repro.fleet.node import NodeRequest
        reqs = []
        for i in range(1, 5):
            r = hot.tracker.open_request(NodeRequest(
                req_id=i, tenant=tenants["batch"], kernel="SPMV",
                input_name="trivial", arrived_us=0.0, predicted_us=500.0,
            ))
            hot.enqueue(r)
            reqs.append(r)
        assert hot.queue_len == 3          # window of 1 holds req 1
        stealer = WorkStealer(threshold_us=200.0, max_per_tick=2)
        moves = stealer.rebalance([hot, cold])
        assert len(moves) == 2
        # tail-first order, and the dispatched head never moved
        assert [m[0].req_id for m in moves] == [4, 3]
        assert all(src == 0 and dst == 1 for _, src, dst in moves)
        assert reqs[0].state == "dispatched" and reqs[0].node == 0

    def test_rebalancer_respects_threshold(self, suite):
        tenants = TenantSet(three_tenants())
        nodes = [
            FleetNode(i, tenants,
                      NodeConfig(mode="flep-temporal", admission=False,
                                 max_inflight=1, oracle_model=True, seed=i),
                      device=suite.device, suite=suite)
            for i in range(2)
        ]
        from repro.fleet.node import NodeRequest
        t = tenants["batch"]
        for i in (1, 2):
            nodes[0].enqueue(nodes[0].tracker.open_request(NodeRequest(
                req_id=i, tenant=t, kernel="SPMV", input_name="trivial",
                arrived_us=0.0, predicted_us=100.0,
            )))
        # gap is 200us total; threshold above it -> nothing moves
        stealer = WorkStealer(threshold_us=500.0, max_per_tick=4)
        assert stealer.rebalance(nodes) == []


class TestBoundedRun:
    def test_until_window_stops_early(self, suite):
        fleet = loaded_fleet(suite, duration_ms=40.0)
        install_fleet_monitor(fleet, full_drain=False)
        report = fleet.run(until=10_000.0)
        assert report.horizon_us <= 41_000.0
        total = sum(t.requests for t in report.serving.tenants)
        full = loaded_fleet(suite, duration_ms=40.0).run()
        assert total < sum(t.requests for t in full.serving.tenants)


class TestObservability:
    def test_fleet_metrics_exported(self, suite):
        from repro.obs import Observability

        hub = Observability()
        fleet = FleetSystem(
            three_tenants(),
            FleetConfig(node_modes=("flep-temporal", "mps"),
                        routing="round-robin", seed=2, oracle_model=True),
            device=suite.device, suite=suite, observability=hub,
        )
        fleet.submit_at(0.0, "web", "SPMV", "trivial")
        fleet.submit_at(0.0, "batch", "VA", "small")
        fleet.run()
        text = hub.metrics.render_prometheus()
        assert 'flep_fleet_routed_total{node="0"} 1' in text
        assert 'flep_fleet_routed_total{node="1"} 1' in text
        assert "flep_fleet_attainment_ratio 1" in text
