"""Observability-hub tests: hooks, the null recorder, the window's hub."""

from types import SimpleNamespace

import pytest

from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import LaunchConfig
from repro.gpu.sim import Simulator
from repro.obs import (
    NULL_OBS,
    DecisionKind,
    EngineWindow,
    NullObservability,
    Observability,
    get_global,
    observed,
)


class FakeInv:
    """Just enough of a KernelInvocation for the lifecycle hooks."""

    class _Record:
        predicted_us = 100.0
        remaining_us = 40.0
        gpu_time_us = 90.0
        waited_us = 10.0
        turnaround_us = 110.0
        preemptions = 1

    class _KSpec:
        name = "NN"

    class _Inp:
        name = "large"

    def __init__(self, inv_id=1, process="p"):
        self.inv_id = inv_id
        self.process = process
        self.priority = 0
        self.deadline_us = None
        self.engine = SimpleNamespace(sim=SimpleNamespace(now=0.0))
        self.record = self._Record()
        self.kspec = self._KSpec()
        self.inp = self._Inp()


class TestDeviceHooks:
    def test_sim_event_kind_collapsing(self):
        hub = Observability()
        hub.on_event("NN__flep/ctx3/batch", 0, 1.0)
        hub.on_event("launch:NN", 0, 2.0)
        hub.on_event("", 0, 3.0)
        c = hub.m_sim_events
        assert c.value(kind="batch") == 1
        assert c.value(kind="launch") == 1
        assert c.value(kind="unlabelled") == 1

    def test_sm_residency_tracks_gauge_and_counter(
        self, make_kernel, tiny_gpu_spec
    ):
        """Residency has one record, the capped per-SM timeline, fed by
        the device's listener list and stamped with its simulator's
        time; no tracer counter sample is written per admission or
        release, only one hardware-queue sample per launch and terminal."""
        hub = Observability()
        sim = Simulator()
        gpu = SimulatedGPU(sim, tiny_gpu_spec)
        gpu.obs = hub
        gpu.obs = hub
        assert gpu.listeners == [hub]  # joined once
        gpu.launch(make_kernel(task_us=10.0), LaunchConfig.original(3))
        sim.run()
        placed = gpu.spec.costs.kernel_launch_us
        assert hub.m_cta_admissions.total == 3
        assert hub.m_sm_resident.value(device="0", sm="0") == 0
        assert hub.sm_samples == [
            (placed, 0, 0, 1), (placed, 0, 1, 1), (placed, 0, 0, 2),
            (placed + 10.0, 0, 0, 1), (placed + 10.0, 0, 1, 0),
            (placed + 10.0, 0, 0, 0),
        ]
        assert [
            (c.name, c.process, c.at_us, c.values)
            for c in hub.tracer.counters
        ] == [
            ("hw_queue_depth", "device:0", placed, (("grids", 1.0),)),
            ("hw_queue_depth", "device:0", placed + 10.0, (("grids", 0.0),)),
        ]

    def test_task_pulls_and_polls_batched(self):
        hub = Observability()
        hub.on_batch(64, 4)
        hub.on_batch(0, 0)  # no-op batch
        assert hub.m_task_pulls.total == 64
        assert hub.m_flag_polls.total == 4

    def test_hot_series_are_built_when_read(self):
        """Hot hooks bump plain counters; every read path (the family
        attribute, the registry, the Prometheus text) sees them."""
        hub = Observability()
        text = hub.metrics.render_prometheus()
        assert "flep_task_pulls_total 0" not in text
        hub.on_batch(10, 1)
        hub.on_macro_collapse(3)
        hub.on_event("k/ctx0/batch", 0, 0.0)
        text = hub.metrics.render_prometheus()
        assert "flep_task_pulls_total 10" in text
        assert "flep_batches_collapsed_total 3" in text
        assert 'flep_sim_events_total{kind="batch"} 1' in text
        hub.on_batch(5, 0)
        assert hub.metrics.get("flep_task_pulls_total").total == 15


class TestInvocationLifecycle:
    def test_temporal_story_produces_spans_and_metrics(self):
        inv = FakeInv()
        # the hub keeps no clock: every record reads the invocation's
        # own simulator
        hub = Observability()

        def at(us):
            inv.engine.sim.now = us

        hub.inv_arrived(inv)
        at(5.0)
        hub.inv_scheduled(inv, resumed=False, ctas=120)
        at(50.0)
        hub.inv_preempt_requested(inv, "temporal", 15)
        at(60.0)
        hub.inv_drained(inv)
        at(70.0)
        hub.inv_scheduled(inv, resumed=True, ctas=120)
        at(200.0)
        hub.inv_finished(inv)

        assert hub.m_preempt_req.value(kind="temporal") == 1
        assert hub.m_preempt_done.value(kind="temporal") == 1
        stall = hub.m_stall
        assert stall.count(kind="temporal") == 1
        assert stall.sum(kind="temporal") == 10.0
        assert stall.count(kind="spatial") == 0
        (drain,) = hub.tracer.spans_named("drain")
        assert (drain.start_us, drain.end_us) == (50.0, 60.0)
        assert drain.args["latency_us"] == drain.duration_us == 10.0
        assert hub.m_relaunches.value(reason="resume") == 1
        assert hub.m_pred_err.count() == 1
        assert hub.m_turnaround.count() == 1

        (outer,) = hub.tracer.spans_named("NN[large]")
        segments = [s.name for s in hub.tracer.spans_in(outer)]
        assert segments == ["wait", "execute", "drain", "wait", "resume"]
        assert not hub.tracer.open_spans()

        assert [(e.at_us, e.kind, e.detail) for e in hub.decisions] == [
            (0.0, DecisionKind.ARRIVAL, "prio=0, T_e=100us"),
            (5.0, DecisionKind.LAUNCH, "ctas=120"),
            (50.0, DecisionKind.PREEMPT_TEMPORAL, ""),
            (60.0, DecisionKind.DRAINED, "T_r=40us"),
            (70.0, DecisionKind.RESUME, "ctas=120"),
            (200.0, DecisionKind.COMPLETE, ""),
        ]

    def test_spatial_story(self):
        hub = Observability()
        inv = FakeInv()
        hub.inv_arrived(inv)
        hub.inv_scheduled(inv, resumed=False, ctas=120)
        inv.engine.sim.now = 30.0
        hub.inv_preempt_requested(inv, "spatial", 5)
        inv.engine.sim.now = 75.0
        hub.inv_topped_up(inv, ctas=40)
        hub.inv_finished(inv)
        assert hub.m_preempt_done.value(kind="spatial") == 1
        assert hub.m_relaunches.value(reason="top_up") == 1
        (span,) = hub.tracer.spans_named("spatial_yield")
        assert span.duration_us == span.args["latency_us"] == 45.0
        assert hub.m_stall.count(kind="spatial") == 1
        assert hub.m_stall.sum(kind="spatial") == 45.0
        assert not hub.tracer.open_spans()
        assert [(e.kind, e.detail) for e in hub.decisions[2:4]] == [
            (DecisionKind.PREEMPT_SPATIAL, "yield_sms=5"),
            (DecisionKind.TOP_UP, "ctas=40"),
        ]

    def test_repeated_request_joins_the_open_stall(self):
        """A stall runs from the first request: a repeat while its span
        is open is logged and counted but opens no second stall."""
        hub = Observability()
        inv = FakeInv()
        inv.engine.sim.now = 10.0
        hub.inv_preempt_requested(inv, "temporal", 15)
        inv.engine.sim.now = 20.0
        hub.inv_preempt_requested(inv, "temporal", 15)
        inv.engine.sim.now = 35.0
        hub.inv_drained(inv)
        assert hub.m_preempt_req.value(kind="temporal") == 2
        (drain,) = hub.tracer.spans_named("drain")
        assert (drain.start_us, drain.end_us) == (10.0, 35.0)
        assert hub.m_stall.count(kind="temporal") == 1
        assert hub.m_stall.sum(kind="temporal") == 25.0

    def test_top_up_without_refill_is_not_a_decision(self):
        """A guest leaving always closes the victim's spatial yield, but
        only a top-up that launches workers is logged."""
        hub = Observability()
        inv = FakeInv()
        hub.inv_preempt_requested(inv, "spatial", 5)
        hub.inv_topped_up(inv, ctas=0)
        assert hub.m_relaunches.value(reason="top_up") == 1
        assert [e.kind for e in hub.decisions] == [
            DecisionKind.PREEMPT_SPATIAL
        ]

    def test_finalize_closes_leftover_spans(self):
        hub = Observability()
        hub.inv_arrived(FakeInv())
        assert hub.tracer.open_spans()
        hub.finalize(42.0)
        assert not hub.tracer.open_spans()
        assert {s.end_us for s in hub.tracer.spans} == {42.0}


class TestNullRecorder:
    def test_disabled_and_inert(self):
        null = NullObservability()
        assert null.enabled is False
        inv = FakeInv()
        null.on_event("x", 0, 0.0)
        null.kernel_launched("k")
        null.on_batch(10, 1)
        null.on_macro_collapse(2)
        null.inv_arrived(inv)
        null.inv_scheduled(inv, resumed=False, ctas=120)
        null.inv_preempt_requested(inv, "temporal", 15)
        null.inv_drained(inv)
        null.inv_topped_up(inv, ctas=40)
        null.inv_finished(inv)
        null.queue_depth(None, "hpf", 3, 0.0)
        null.finalize(0.0)
        assert null.m_sim_events.total == 0
        assert len(null.tracer) == 0
        assert null.decisions == []

    def test_singleton_is_shared_and_disabled(self):
        assert isinstance(NULL_OBS, NullObservability)
        assert not NULL_OBS.enabled


class TestGlobalHub:
    """The hub an open window hands to systems built inside it."""

    def test_install_and_uninstall(self):
        assert get_global() is None
        hub = Observability()
        with EngineWindow(hub=hub) as window:
            assert window.hub is hub
            assert get_global() is hub
        assert get_global() is None

    def test_window_without_hub_installs_none(self):
        with EngineWindow() as window:
            assert window.hub is None
            assert get_global() is None
        with EngineWindow(hub=True) as window:
            assert window.hub.enabled
            assert get_global() is window.hub

    def test_window_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with EngineWindow(hub=True):
                raise RuntimeError("boom")
        assert get_global() is None

    def test_inner_window_shadows_outer(self):
        with EngineWindow(hub=True) as outer:
            with EngineWindow() as inner:
                assert get_global() is None
            assert inner.hub is None
            assert get_global() is outer.hub
            with EngineWindow(hub=True) as inner:
                assert get_global() is inner.hub
            assert get_global() is outer.hub
        assert get_global() is None

    def test_observed_context_manager(self):
        with observed() as hub:
            assert get_global() is hub
        assert get_global() is None

    def test_observed_accepts_existing_hub(self):
        mine = Observability()
        with observed(mine) as hub:
            assert hub is mine

    def test_observed_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with observed():
                raise RuntimeError("boom")
        assert get_global() is None
