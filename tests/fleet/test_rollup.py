"""Fleet rollup tests: attribution, conservation, report surface."""

import json

import pytest

from repro.errors import FleetError
from repro.fleet import FleetConfig, FleetSystem, NodeRequest, parse_fault_spec
from repro.serving import PoissonLoadGen, Tenant


def run_small_fleet(suite, observability=None, **overrides):
    cfg = dict(
        node_modes=("flep-spatial", "flep-temporal", "mps"),
        routing="deadline", seed=9, oracle_model=True,
    )
    cfg.update(overrides)
    fleet = FleetSystem(
        [
            Tenant("web", priority=2, slo_us=3_000.0),
            Tenant("batch", priority=0),
        ],
        FleetConfig(**cfg),
        device=suite.device, suite=suite, observability=observability,
    )
    fleet.add_generator(PoissonLoadGen(
        tenant="web", kernels=("SPMV", "MM"), rate_per_ms=1.0,
        duration_ms=30.0, seed=9, input_names=("trivial",), priority=2,
    ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("VA",), rate_per_ms=0.05,
        duration_ms=30.0, seed=10, input_names=("large",), priority=0,
    ))
    return fleet, fleet.run()


class TestAttribution:
    def test_conservation_across_nodes(self, suite):
        fleet, report = run_small_fleet(suite)
        total = sum(t.requests for t in report.serving.tenants)
        # the tracker's records are the fleet's only request objects
        assert all(isinstance(r, NodeRequest) for r in fleet.tracker.requests)
        assert total == len(fleet.tracker.requests)  # no rate limits here
        assert sum(n.routed for n in report.nodes) == total
        completed = sum(t.completed for t in report.serving.tenants)
        assert sum(n.completed for n in report.nodes) == completed
        shed = sum(t.shed for t in report.serving.tenants)
        assert sum(n.shed for n in report.nodes) == shed
        assert completed + shed == total

    def test_stolen_requests_credit_the_finisher(self, suite):
        fleet, report = run_small_fleet(suite, routing="round-robin")
        for _, req_id, _src, dst in report.steals:
            req = next(
                r for r in fleet.tracker.requests if r.req_id == req_id
            )
            if req.state == "done":
                # finished where it last landed, not where it was routed
                assert req.completed_node is not None

    def test_node_modes_and_makespans(self, suite):
        _, report = run_small_fleet(suite)
        assert [n.mode for n in report.nodes] == [
            "flep-spatial", "flep-temporal", "mps",
        ]
        assert all(n.makespan_us <= report.horizon_us for n in report.nodes)
        flep_preempts = sum(
            n.preemptions for n in report.nodes if n.mode != "mps"
        )
        assert flep_preempts >= 0
        assert report.node(2).preemptions == 0     # MPS never preempts


    def test_preemptions_survive_a_rejoin(self, suite):
        """A node's row counts the preemptions its crashed runtime made
        (requests lost in the crash included) plus its rejoined one's."""
        fleet = FleetSystem(
            [
                Tenant("web", priority=2, slo_us=3_000.0),
                Tenant("batch", priority=0),
            ],
            FleetConfig(
                node_modes=("flep-temporal", "flep-temporal"), seed=5,
                oracle_model=True,
                faults=parse_fault_spec("crash@20000:n0,rejoin@25000:n0"),
            ),
            device=suite.device, suite=suite,
        )
        fleet.add_generator(PoissonLoadGen(
            tenant="web", kernels=("SPMV", "PL"), rate_per_ms=1.0,
            duration_ms=40.0, seed=5, input_names=("small",), priority=2,
        ))
        fleet.add_generator(PoissonLoadGen(
            tenant="batch", kernels=("NN", "VA"), rate_per_ms=0.2,
            duration_ms=40.0, seed=5, input_names=("large",), priority=0,
        ))
        crashed = fleet.nodes[0].system.runtime
        report = fleet.run()
        rejoined = fleet.nodes[0].system.runtime
        assert rejoined is not crashed

        def totals(rt):
            invs = [i for i in rt.invocations if i.record.preemptions]
            return (
                sum(i.record.preemptions for i in invs),
                sum(i.record.preemptions * rt.preemption_overhead_us(i)
                    for i in invs),
            )

        (old_n, old_us), (new_n, new_us) = totals(crashed), totals(rejoined)
        assert old_n > 0 and new_n > 0
        row = report.node(0)
        assert row.preemptions == old_n + new_n
        assert row.preempt_overhead_us == pytest.approx(old_us + new_us)


class TestReportSurface:
    def test_percentiles_ordered(self, suite):
        _, report = run_small_fleet(suite)
        assert report.p50_us <= report.p95_us <= report.p99_us

    def test_fleet_attainment_bounds(self, suite):
        _, report = run_small_fleet(suite)
        assert 0.0 <= report.fleet_attainment <= 1.0

    def test_unknown_node_raises(self, suite):
        _, report = run_small_fleet(suite)
        with pytest.raises(FleetError, match="no node 99"):
            report.node(99)

    def test_format_mentions_everything(self, suite):
        _, report = run_small_fleet(suite)
        text = report.format()
        assert "fleet: 3 nodes" in text
        assert "routing=deadline" in text
        for name in ("web", "batch", "flep-spatial", "mps"):
            assert name in text

    def test_as_dict_is_json_serializable(self, suite):
        _, report = run_small_fleet(suite)
        doc = json.loads(json.dumps(report.as_dict(), default=str))
        assert doc["n_nodes"] == 3
        assert len(doc["nodes"]) == 3
        assert doc["serving"]["tenants"]


class TestTraceExport:
    def test_load_samples_only_record_changes(self, suite):
        """A counter track holds its value until the next sample, so a
        steal tick records a node only when its (queue, load) moved —
        and only while observed: the samples feed the trace export."""
        from repro.obs import Observability

        assert run_small_fleet(suite)[0].load_samples == []
        fleet, _ = run_small_fleet(suite, observability=Observability())
        last = {}
        for _t, node, queue_len, load_us in fleet.load_samples:
            assert last.get(node) != (queue_len, load_us)
            last[node] = (queue_len, load_us)
        assert sorted(last) == [0, 1, 2]

    def test_per_node_processes_in_trace(self, suite):
        from repro.obs import Observability

        hub = Observability()
        fleet = FleetSystem(
            [Tenant("web", priority=1, slo_us=5_000.0)],
            FleetConfig(node_modes=("flep-temporal", "mps"),
                        routing="round-robin", seed=4, oracle_model=True),
            device=suite.device, suite=suite, observability=hub,
        )
        for at in (0.0, 100.0, 200.0, 300.0):
            fleet.submit_at(at, "web", "SPMV", "trivial")
        fleet.run()
        doc = hub.tracer.chrome_trace()
        payload = json.dumps(doc)
        assert "node:0" in payload and "node:1" in payload
        assert "fleet_queue" in payload or "req#" in payload
