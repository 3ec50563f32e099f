"""FleetNode queue-manager tests: dispatch window, steal API, states."""

import pytest

from repro.errors import FleetError
from repro.fleet import FleetNode, LeastLoadedRouter, NodeConfig, NodeRequest
from repro.serving import Tenant, TenantSet


def tenants():
    return TenantSet([
        Tenant("web", priority=1, slo_us=5_000.0),
        Tenant("batch", priority=0),
    ])


def make_node(suite, mode="flep-temporal", max_inflight=1, admission=False):
    return FleetNode(
        index=0,
        tenants=tenants(),
        config=NodeConfig(
            mode=mode, admission=admission, max_inflight=max_inflight,
            oracle_model=True, seed=3,
        ),
        device=suite.device,
        suite=suite,
    )


def make_req(node, req_id, tenant="batch", predicted=500.0):
    return node.tracker.open_request(NodeRequest(
        req_id=req_id, tenant=node.tenants[tenant], kernel="SPMV",
        input_name="trivial", arrived_us=node.sim.now, predicted_us=predicted,
    ))


class TestNodeConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(FleetError, match="unknown node mode"):
            NodeConfig(mode="cuda-graphs")

    def test_rejects_zero_window(self):
        with pytest.raises(FleetError, match="max_inflight"):
            NodeConfig(max_inflight=0)

    def test_admission_default_follows_mode(self):
        assert NodeConfig(mode="flep-spatial").admission_enabled
        assert not NodeConfig(mode="mps").admission_enabled
        assert NodeConfig(mode="mps", admission=True).admission_enabled


class TestDispatchWindow:
    def test_window_caps_inflight(self, suite):
        node = make_node(suite, max_inflight=1)
        reqs = [make_req(node, i) for i in range(1, 4)]
        for r in reqs:
            node.enqueue(r)
        assert len(node.inflight) == 1
        assert node.queue_len == 2
        assert reqs[0].state == "dispatched"
        assert reqs[1].state == "queued" and reqs[2].state == "queued"
        assert node.stats.peak_queue == 2

    def test_completion_refills_window(self, suite):
        node = make_node(suite, max_inflight=1)
        reqs = [make_req(node, i) for i in range(1, 4)]
        for r in reqs:
            node.enqueue(r)
        node.drain()
        assert all(r.state == "done" for r in reqs)
        assert all(r.completed_node == 0 for r in reqs)
        assert node.stats.completed == 3
        assert not node.inflight and not node.queue
        assert node.idle
        # the backend released each request's completion closure
        invs = node.system.runtime.invocations
        assert len(invs) == 3
        assert all(inv.on_finished is None for inv in invs)

    def test_enqueue_requires_routed_state(self, suite):
        node = make_node(suite)
        r = make_req(node, 1)
        r.state = "queued"
        with pytest.raises(FleetError, match="state"):
            node.enqueue(r)

    def test_backlog_tracks_admitted_work(self, suite):
        node = make_node(suite, max_inflight=1)
        node.enqueue(make_req(node, 1, "batch", predicted=400.0))
        node.enqueue(make_req(node, 2, "web", predicted=300.0))
        assert node.load_us() == pytest.approx(700.0)
        # FLEP: priority-1 work only waits behind >= priority-1 backlog
        assert node.backlog_for(1) == pytest.approx(300.0)
        assert node.backlog_for(0) == pytest.approx(700.0)
        node.drain()
        assert node.load_us() == pytest.approx(0.0)

    def test_mps_backlog_is_total(self, suite):
        node = make_node(suite, mode="mps", max_inflight=1)
        node.enqueue(make_req(node, 1, "batch", predicted=400.0))
        node.enqueue(make_req(node, 2, "web", predicted=300.0))
        assert node.backlog_for(1) == pytest.approx(700.0)


class TestPreemptiveDispatch:
    """A window full of lower-priority work must not convoy a
    higher-priority request on a preemption-capable node: the request
    bypasses the window and the backend preempts (the FLEP property,
    surfaced at the dispatch layer). On MPS the window is a hard cap —
    there is no preemption to hand the request to."""

    def test_higher_priority_bypasses_full_flep_window(self, suite):
        node = make_node(suite, max_inflight=1)
        batch = make_req(node, 1, "batch")
        node.enqueue(batch)
        web = make_req(node, 2, "web")
        node.enqueue(web)
        assert batch.state == "dispatched"
        assert web.state == "dispatched"      # bypassed the full window
        assert len(node.inflight) == 2

    def test_equal_priority_still_queues(self, suite):
        node = make_node(suite, max_inflight=1)
        reqs = [make_req(node, i, "batch") for i in range(1, 3)]
        for r in reqs:
            node.enqueue(r)
        assert reqs[1].state == "queued"

    def test_mps_window_is_a_hard_cap(self, suite):
        node = make_node(suite, mode="mps", max_inflight=1)
        node.enqueue(make_req(node, 1, "batch"))
        web = make_req(node, 2, "web")
        node.enqueue(web)
        assert web.state == "queued"
        node.drain()
        assert web.state == "done"

    def test_bypassed_request_completes_and_accounts(self, suite):
        node = make_node(suite, max_inflight=1)
        node.enqueue(make_req(node, 1, "batch", predicted=4_000.0))
        web = make_req(node, 2, "web", predicted=300.0)
        node.enqueue(web)
        node.drain()
        assert web.state == "done"
        assert node.stats.completed == 2
        assert node.load_us() == pytest.approx(0.0)


class TestStealAPI:
    def test_take_only_queued(self, suite):
        node = make_node(suite, max_inflight=1)
        reqs = [make_req(node, i) for i in range(1, 3)]
        for r in reqs:
            node.enqueue(r)
        assert reqs[0].state == "dispatched"
        with pytest.raises(FleetError, match="only queued"):
            node.take(reqs[0])
        taken = node.take(reqs[1])
        assert taken is reqs[1]
        assert taken.state == "routed" and taken.node is None
        assert node.stats.stolen_out == 1
        assert node.queue_len == 0

    def test_take_twice_raises(self, suite):
        node = make_node(suite, max_inflight=1)
        reqs = [make_req(node, i) for i in range(1, 3)]
        for r in reqs:
            node.enqueue(r)
        node.take(reqs[1])
        with pytest.raises(FleetError):
            node.take(reqs[1])

    def test_peek_tail_is_most_recent(self, suite):
        node = make_node(suite, max_inflight=1)
        assert node.peek_tail() is None
        reqs = [make_req(node, i) for i in range(1, 4)]
        for r in reqs:
            node.enqueue(r)
        assert node.peek_tail() is reqs[2]

    def test_accept_stolen_requeues_without_readmission(self, suite):
        src = make_node(suite, max_inflight=1)
        dst = make_node(suite, max_inflight=1)
        reqs = [make_req(src, i) for i in range(1, 3)]
        for r in reqs:
            src.enqueue(r)
        moved = src.take(reqs[1])
        dst.accept_stolen(moved)
        assert moved.state == "dispatched"    # dst window was empty
        assert moved.steals == 1
        assert dst.stats.stolen_in == 1
        assert dst.stats.routed == 0          # stolen work is not a route

    def test_accept_stolen_requires_routed(self, suite):
        node = make_node(suite)
        r = make_req(node, 1)
        r.state = "queued"
        with pytest.raises(FleetError, match="arrives in state"):
            node.accept_stolen(r)


class TestAdmission:
    def test_overloaded_node_sheds(self, suite):
        node = make_node(suite, mode="flep-spatial", admission=True,
                         max_inflight=1)
        # web slo = 5000us, delay headroom 0.5: a second 4000us request
        # behind a 4000us backlog predicts finish at 8000us — overshoot
        # 3000us > 2500us headroom -> shed, not held
        first = make_req(node, 1, "web", predicted=4_000.0)
        node.enqueue(first)
        assert first.state == "dispatched"
        r = make_req(node, 2, "web", predicted=4_000.0)
        node.enqueue(r)
        assert r.state == "shed"
        assert node.stats.shed == 1
        log = node.tracker.requests[-1]
        assert log.outcome == "shed"

    def test_moderate_overshoot_is_held_not_shed(self, suite):
        node = make_node(suite, mode="flep-spatial", admission=True,
                         max_inflight=1)
        node.enqueue(make_req(node, 1, "web", predicted=4_000.0))
        # finish 6000us: overshoot 1000us <= 2500us headroom -> delayed
        r = make_req(node, 2, "web", predicted=2_000.0)
        node.enqueue(r)
        assert r.state == "held"
        node.drain()
        assert r.state == "done"
        assert node.tracker.requests[-1].delayed


def held_node(suite):
    """A node holding one admission-delayed (``held``) 2000 µs request
    behind one dispatched 4000 µs request (the TestAdmission recipe)."""
    node = make_node(suite, mode="flep-spatial", admission=True,
                     max_inflight=1)
    node.enqueue(make_req(node, 1, "web", predicted=4_000.0))
    held = make_req(node, 2, "web", predicted=2_000.0)
    node.enqueue(held)
    assert held.state == "held"
    return node, held


class TestHeldBacklog:
    """Regression: admission-delayed (``held``) requests are committed
    work — they must be visible to ``load_us`` / ``backlog_for`` so
    load-aware routing and the work stealer do not treat a node drowning
    in delayed work as idle."""

    def test_held_work_counts_in_load_and_backlog(self, suite):
        node, _ = held_node(suite)
        assert node.load_us() == pytest.approx(6_000.0)
        assert node.backlog_for(1) == pytest.approx(6_000.0)
        node.drain()
        assert node.load_us() == pytest.approx(0.0)
        assert not node.held

    def test_held_work_pins_the_routing_decision(self, suite):
        # node 0 carries 6000us of work but 2000us of it is *held*;
        # node 1 carries 4000us dispatched. Before the fix node 0
        # appeared to hold only 4000us and least-loaded tied toward
        # index 0 — the held request must tip the decision to node 1.
        node0, _ = held_node(suite)
        node1 = make_node(suite, mode="flep-spatial", admission=True,
                          max_inflight=1)
        node1.index = 1
        node1.enqueue(make_req(node1, 3, "web", predicted=4_000.0))
        assert node0.load_us() > node1.load_us()
        probe = make_req(node1, 4, "web", predicted=100.0)
        assert LeastLoadedRouter().choose(probe, [node0, node1], 0.0) == 1

    def test_drain_fence_sheds_held_work(self, suite):
        node, held = held_node(suite)
        node.begin_drain(now=0.0, deadline_us=10.0)
        shed = node.finish_drain()
        assert held in shed
        assert held.state == "shed" and held.shed_cause == "drain"
        # the delay timer still fires inside the backend sim — it must
        # find the held table empty and do nothing (stale-timer rule)
        node.drain()
        assert held.state == "shed"
        assert node.stats.completed == 1  # only the dispatched request

    def test_crash_reclaims_held_work(self, suite):
        node, held = held_node(suite)
        reclaimed, lost = node.crash(now=10.0)
        assert held in reclaimed
        assert held.state == "routed" and held.node is None
        assert [r.req_id for r in lost] == [1]
