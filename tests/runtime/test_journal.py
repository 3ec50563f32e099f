"""Decision-log tests: what the hub records for each runtime decision."""

import gc

import pytest

from repro.core.flep import FlepSystem
from repro.fleet import FleetConfig, FleetSystem
from repro.obs import (
    DecisionEvent,
    DecisionKind,
    EngineWindow,
    format_decisions,
)
from repro.runtime.engine import RuntimeConfig
from repro.serving import PoissonLoadGen, Tenant


def run_priority_pair(suite):
    system = FlepSystem(
        policy="hpf", device=suite.device, suite=suite,
        config=RuntimeConfig(oracle_model=True), observability=True,
    )
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(100.0, "high", "SPMV", "small", priority=1)
    system.run()
    return system.obs.decisions


def kinds_of(events, kind):
    return [e for e in events if e.kind is kind]


class TestJournalContents:
    def test_full_preemption_story(self, suite):
        events = run_priority_pair(suite)
        kinds = [e.kind for e in events]
        # arrival(low) launch(low) arrival(high) preempt launch(high)
        # drained(low) complete(high) resume(low) complete(low)
        assert kinds[0] is DecisionKind.ARRIVAL
        assert DecisionKind.PREEMPT_TEMPORAL in kinds
        assert DecisionKind.DRAINED in kinds
        assert DecisionKind.RESUME in kinds
        assert kinds[-1] is DecisionKind.COMPLETE
        assert len(kinds_of(events, DecisionKind.COMPLETE)) == 2

    def test_events_time_ordered(self, suite):
        times = [e.at_us for e in run_priority_pair(suite)]
        assert times == sorted(times)

    def test_spatial_preemption_logged(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True), observability=True,
        )
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        system.run()
        events = system.obs.decisions
        spatial = kinds_of(events, DecisionKind.PREEMPT_SPATIAL)
        assert len(spatial) == 1
        assert "yield_sms=5" in spatial[0].detail
        assert len(kinds_of(events, DecisionKind.TOP_UP)) == 1
        assert not kinds_of(events, DecisionKind.PREEMPT_TEMPORAL)

    def test_format_is_readable(self, suite):
        text = format_decisions(run_priority_pair(suite))
        assert "preempt_temporal" in text
        assert "SPMV@high" in text
        assert text.count("complete") == 2

    def test_preemptions_helper(self, suite):
        events = run_priority_pair(suite)
        preemptions = [
            e for e in events
            if e.kind in (
                DecisionKind.PREEMPT_TEMPORAL, DecisionKind.PREEMPT_SPATIAL,
            )
        ]
        assert len(preemptions) == 1

    def test_empty_journal(self):
        assert format_decisions([]) == ""


def live_decisions():
    gc.collect()
    return sum(isinstance(o, DecisionEvent) for o in gc.get_objects())


class TestUnobservedRuns:
    def test_unobserved_run_keeps_no_decisions(self, suite):
        """An unobserved run pays nothing for the log: no entry outlives
        the run (earlier tests' observed hubs may still hold theirs)."""
        before = live_decisions()
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
        )
        for i in range(40):
            system.submit_at(i * 100.0, f"p{i}", "SPMV", "trivial")
        assert system.run().all_finished
        assert live_decisions() == before
        assert system.obs.decisions == []


class TestFleetDecisions:
    def test_each_node_stamps_its_own_clock(self, suite):
        """Fleet nodes share one hub whose tracer clock is a single
        node's; every decision carries its invocation's own time."""
        with EngineWindow(hub=True) as window:
            fleet = FleetSystem(
                [Tenant("web", priority=1, slo_us=3_000.0)],
                FleetConfig(
                    node_modes=("flep-temporal", "flep-temporal"),
                    routing="round-robin", seed=3, oracle_model=True,
                ),
                device=suite.device, suite=suite,
            )
            fleet.add_generator(PoissonLoadGen(
                tenant="web", kernels=("SPMV", "MM"), rate_per_ms=2.0,
                duration_ms=10.0, seed=3, input_names=("trivial",),
                priority=1,
            ))
            fleet.run()
        invocations = {
            inv.inv_id: inv
            for node in fleet.nodes
            for inv in node.system.runtime.invocations
        }
        events = window.hub.decisions
        arrivals = kinds_of(events, DecisionKind.ARRIVAL)
        completes = kinds_of(events, DecisionKind.COMPLETE)
        assert len(arrivals) == len(invocations) > 4
        assert len(completes) == len(invocations)
        nodes_used = {
            node.index for node in fleet.nodes
            if node.system.runtime.invocations
        }
        assert nodes_used == {0, 1}
        for e in arrivals:
            assert e.at_us == invocations[e.inv_id].record.arrived_at
        for e in completes:
            assert e.at_us == invocations[e.inv_id].record.finished_at

    @staticmethod
    def _two_node_drains(suite):
        """Two temporal nodes under one window hub, with batch work for
        web requests to preempt on both."""
        with EngineWindow(hub=True) as window:
            fleet = FleetSystem(
                [Tenant("web", priority=1, slo_us=3_000.0),
                 Tenant("batch", priority=0)],
                FleetConfig(
                    node_modes=("flep-temporal", "flep-temporal"),
                    routing="round-robin", seed=3, oracle_model=True,
                    admission=False,
                ),
                device=suite.device, suite=suite,
            )
            for tenant, kernels, rate, inp, prio in (
                ("batch", ("NN", "VA"), 0.3, "large", 0),
                ("web", ("SPMV", "MM"), 1.0, "trivial", 1),
            ):
                fleet.add_generator(PoissonLoadGen(
                    tenant=tenant, kernels=kernels, rate_per_ms=rate,
                    duration_ms=20.0, seed=5, input_names=(inp,),
                    priority=prio,
                ))
            fleet.run()
        return fleet, window.hub

    def test_drain_stalls_use_each_node_clock(self, suite):
        """A temporal stall (its ``drain`` span) runs from the
        invocation's first open preemption request to its DRAINED
        decision, on its own node's clock."""
        fleet, hub = self._two_node_drains(suite)
        stalls = [
            s for s in hub.tracer.spans_named("drain")
            if "latency_us" in s.args
        ]
        nodes_with_stalls = {
            node.index for node in fleet.nodes
            for inv in node.system.runtime.invocations
            if any(s.track == inv.inv_id for s in stalls)
        }
        assert nodes_with_stalls == {0, 1}
        for span in stalls:
            mine = [e for e in hub.decisions if e.inv_id == span.track]
            drained = [
                i for i, e in enumerate(mine)
                if e.kind is DecisionKind.DRAINED and e.at_us == span.end_us
            ]
            assert drained, (span.track, span.end_us)
            before = mine[:drained[0]]
            opened = max(
                (i for i, e in enumerate(before)
                 if e.kind is DecisionKind.DRAINED),
                default=-1,
            )
            requests = [
                e for e in before[opened + 1:]
                if e.kind is DecisionKind.PREEMPT_TEMPORAL
            ]
            assert requests and requests[0].at_us == span.start_us

    def test_stall_histogram_is_the_drain_spans(self, suite):
        """Each closed drain span is observed once into the stall
        histogram, with its own duration, on its node's clock."""
        _, hub = self._two_node_drains(suite)
        drains = [s for s in hub.tracer.spans_named("drain") if not s.open]
        closed = [s for s in drains if "latency_us" in s.args]
        assert closed
        for span in closed:
            assert span.args["latency_us"] == span.duration_us
        assert any(s.duration_us > 0.0 for s in closed)
        assert hub.m_stall.count(kind="temporal") == len(closed)
        assert hub.m_stall.sum(kind="temporal") == pytest.approx(
            sum(s.duration_us for s in closed)
        )
        assert hub.m_preempt_done.value(kind="temporal") == len(closed)
