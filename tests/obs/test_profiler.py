"""Self-profile tests: the observability hub's hot-loop counters and
timelines, and the engine window's shared event accounting — null path,
a hand-built schedule, trace export, the window's hub."""

from types import SimpleNamespace

import pytest

from repro.baselines.mps_corun import MPSCoRun
from repro.core.flep import FlepSystem
from repro.errors import SimulationError
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.sim import Simulator
from repro.gpu.trace import (
    Timeline,
    collected_schedule_hashes,
    combined_schedule_hash,
)
from repro.obs import (
    NULL_OBS,
    EngineWindow,
    NullObservability,
    Observability,
    SpanTracer,
    get_global,
)
from repro.obs.recorder import _event_kind
from repro.runtime.engine import RuntimeConfig


def _three_kernel_run(hub):
    """The hand-built schedule the counter assertions run against: a
    long low-priority NN, a high-priority SPMV arriving mid-flight (one
    guaranteed temporal preemption under hpf), and a trailing MM."""
    system = FlepSystem(
        policy="hpf",
        config=RuntimeConfig(oracle_model=True, spatial_enabled=False),
        observability=hub,
    )
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(200.0, "rt", "SPMV", "trivial", priority=1)
    system.submit_at(400.0, "rt2", "MM", "trivial", priority=1)
    result = system.run()
    assert result.all_finished
    return system


# ---------------------------------------------------------------------------
# null path (the zero-cost default)
# ---------------------------------------------------------------------------
class TestNullProfiler:
    def test_default_system_uses_null_profiler(self):
        system = FlepSystem(policy="hpf")
        assert system.obs is NULL_OBS
        assert system.sim.obs is NULL_OBS
        assert system.gpu.prof is NULL_OBS
        assert not system.obs.enabled

    def test_null_hooks_record_nothing(self):
        null = NullObservability()
        null.on_event("x/batch", 3, 0.0)
        null.on_batch(100, 5)
        null.on_macro_collapse(7)
        assert null.events_by_kind == {}
        assert null.task_pulls == 0 and null.flag_polls == 0
        assert null.batches_collapsed == 0
        assert not null.queue_samples and not null.sm_samples

    def test_explicit_null_instance_stays_null(self):
        system = FlepSystem(policy="hpf", observability=NULL_OBS)
        assert system.obs is NULL_OBS

    def test_run_results_identical_with_and_without_profiler(self):
        bare = _three_kernel_run(None)
        inst = _three_kernel_run(Observability())
        assert bare.sim.now == inst.sim.now
        assert bare.sim.stats.processed == inst.sim.stats.processed
        assert bare.sim.stats.peak_pending == inst.sim.stats.peak_pending


# ---------------------------------------------------------------------------
# shared event accounting (no double bookkeeping)
# ---------------------------------------------------------------------------
class TestSharedCounter:
    def test_profiler_reads_the_simulators_own_counter(self):
        hub = Observability()
        with EngineWindow() as window:
            system = _three_kernel_run(hub)
        assert window.events == system.sim.stats.processed
        assert window.events > 0
        # 'macro-batch' counts per-batch events the fast-forward engine
        # *avoided* firing — the only synthetic kind in the breakdown
        by_kind = dict(hub.events_by_kind)
        collapsed = by_kind.pop("macro-batch", 0)
        assert collapsed == hub.batches_collapsed
        assert sum(by_kind.values()) == window.events
        assert window.peak_queue_depth == system.sim.stats.peak_pending
        assert window.events_scheduled == system.sim.stats.scheduled

    def test_attach_baselines_prior_activity(self):
        """Only simulators built inside the window are counted: earlier
        activity never leaks into a report."""
        before = Simulator()
        for i in range(5):
            before.schedule_at(float(i), lambda: None, label="warmup")
        before.run()
        with EngineWindow() as window:
            sim = Simulator()
            sim.schedule_at(10.0, lambda: None, label="counted")
            sim.run()
            before.schedule_at(20.0, lambda: None, label="outside")
            before.run()
        assert window.sims == [sim]
        assert window.events == 1
        assert window.sim_us == 10.0

    def test_max_events_exhaustion_uses_the_same_counter(self):
        with EngineWindow() as window:
            sim = Simulator(max_events=10)

            def rearm():
                sim.schedule(1.0, rearm, label="loop")

            rearm()
            with pytest.raises(SimulationError, match="event budget exceeded"):
                sim.run()
        # both views agree even after the abort mid-loop
        assert window.events == sim.stats.processed

    def test_window_registers_devices_and_timelines(self):
        with EngineWindow(timelines=True) as window:
            system = _three_kernel_run(None)
            corun = MPSCoRun()
        devices = [system.gpu, corun.gpu]
        assert window.scheds == [gpu.sched for gpu in devices]
        assert window.sims == [system.sim, corun.sim]
        assert [gpu.listeners for gpu in devices] == [
            [tl] for tl in window.timelines
        ]
        assert all(isinstance(tl, Timeline) for tl in window.timelines)
        assert window.timelines[0].schedule_hash() == system.gpu.sched.hexdigest
        assert window.schedule_hash() == combined_schedule_hash(
            [gpu.sched.hexdigest for gpu in devices]
        )

    def test_traced_system_inside_a_timeline_window_fills_both(self):
        """A traced system's own timeline and the window's are two
        listeners on one device: each records every interval."""
        with EngineWindow(timelines=True) as window:
            system = FlepSystem(
                policy="hpf", config=RuntimeConfig(oracle_model=True),
                trace=True,
            )
            system.submit_at(0.0, "batch", "NN", "large", priority=0)
            system.submit_at(200.0, "rt", "SPMV", "trivial", priority=1)
            system.run()
        (timeline,) = window.timelines
        assert len(system.timeline.intervals) > 0
        assert timeline.intervals == system.timeline.intervals

    def test_window_without_timelines_attaches_none(self):
        with EngineWindow() as window:
            gpu = SimulatedGPU(Simulator())
        assert window.scheds == [gpu.sched]
        assert gpu.listeners == [] and window.timelines is None

    def test_outer_window_sees_nothing_from_an_inner_one(self):
        with EngineWindow() as outer:
            with EngineWindow() as inner:
                first = SimulatedGPU(Simulator())
            second = SimulatedGPU(Simulator())
        assert inner.scheds == [first.sched] and outer.scheds == [second.sched]
        assert inner.sims == [first.sim] and outer.sims == [second.sim]

    def test_collected_schedule_hashes_yields_device_digests(self):
        with collected_schedule_hashes() as scheds:
            system = _three_kernel_run(None)
        assert scheds == [system.gpu.sched]

    def test_multi_sim_aggregation(self):
        hub = Observability()
        with EngineWindow() as window:
            a = _three_kernel_run(hub)
            b = _three_kernel_run(hub)
        assert len(window.sims) == 2
        assert window.events == (
            a.sim.stats.processed + b.sim.stats.processed
        )
        assert window.sim_us == a.sim.now + b.sim.now


# ---------------------------------------------------------------------------
# hot-loop counters on the hand-built schedule
# ---------------------------------------------------------------------------
class TestCounters:
    @pytest.fixture(scope="class")
    def run(self):
        hub = Observability()
        with EngineWindow() as window:
            system = _three_kernel_run(hub)
        return hub, window, system

    def test_hot_loop_counters_fire(self, run):
        hub, _, _ = run
        assert hub.task_pulls > 0
        assert hub.flag_polls > 0
        assert hub.cta_admissions > 0
        # amortized polling: far fewer flag polls than task pulls
        assert hub.flag_polls < hub.task_pulls
        # the registry series are the same counters
        assert hub.m_task_pulls.total == hub.task_pulls
        assert hub.m_flag_polls.total == hub.flag_polls
        assert hub.m_cta_admissions.total == hub.cta_admissions
        assert hub.m_batches_collapsed.total == hub.batches_collapsed

    def test_event_kinds_are_bounded_classes(self, run):
        hub, _, _ = run
        assert "batch" in hub.events_by_kind
        assert "submit" in hub.events_by_kind
        # no raw per-context labels leaked through
        assert all("/" not in k and ":" not in k for k in hub.events_by_kind)

    def test_temporal_preemption_latency_recorded(self, run):
        hub, _, _ = run
        assert hub.preempt_requested.get("temporal", 0) >= 1
        stat = hub.stall_latency()["temporal"]
        assert stat["count"] >= 1
        assert 0.0 < stat["mean_us"] <= stat["max_us"]
        # one stall record: the histogram observes exactly the closed
        # drain spans' durations
        drains = [
            s for s in hub.tracer.spans_named("drain")
            if "latency_us" in s.args
        ]
        assert stat["count"] == len(drains) == hub.m_stall.count(
            kind="temporal"
        )
        assert stat["sum_us"] == pytest.approx(
            sum(s.duration_us for s in drains)
        )

    def test_queue_and_sm_timelines_sampled(self, run):
        hub, _, _ = run
        assert hub.queue_samples, "event-queue timeline is empty"
        assert hub.sm_samples, "SM occupancy timeline is empty"
        assert all(r >= 0 for _, _, _, r in hub.sm_samples)

    def test_rates_need_a_wall_window(self, run):
        _, window, _ = run
        block = window.engine_block()
        assert block["wall_s"] > 0.0
        assert block["events_per_sec"] > 0.0
        assert block["sim_us_per_wall_s"] > 0.0

    def test_engine_block_shape(self, run):
        _, window, system = run
        block = window.engine_block()
        assert set(block) == {
            "events", "events_per_sec", "wall_s", "peak_queue_depth",
            "sim_us", "sim_us_per_wall_s", "sims",
        }
        assert block["events"] == system.sim.stats.processed
        assert block["sims"] == 1

    def test_snapshot_and_summary(self, run):
        hub, window, _ = run
        text = hub.format_profile(window)
        assert "simulator self-profile" in text
        assert "preempt[temporal]" in text
        assert f"batches_collapsed={hub.batches_collapsed}" in text

    def test_export_to_tracer(self, run):
        hub, _, _ = run
        tracer = SpanTracer()
        n = hub.export_to_tracer(tracer)
        assert n == len(hub.queue_samples) + len(hub.sm_samples)
        assert len(tracer.counters) == n
        # stalls already are the hub's own drain spans: none is copied
        assert tracer.spans == []
        tracks = {c.name for c in tracer.counters}
        assert "event_queue_depth" in tracks
        assert {f"sm{sm}_resident" for _, _, sm, _ in hub.sm_samples} <= tracks

    def test_counters_do_not_grow_with_cta_admissions(self, run):
        """SM residency is recorded once, in the capped timeline: the
        tracer holds no per-admission counter sample."""
        hub, _, _ = run
        assert hub.cta_admissions > len(hub.tracer.counters)
        assert {c.name for c in hub.tracer.counters} <= {
            "hw_queue_depth", "policy_queue_depth",
        }


# ---------------------------------------------------------------------------
# sampling bounds
# ---------------------------------------------------------------------------
class TestSamplingBounds:
    def test_timelines_are_bounded_and_truncation_is_counted(self):
        hub = Observability()
        hub.sample_every = 1
        hub.max_samples = 10
        for i in range(25):
            hub.on_event("x", i, float(i))
        assert len(hub.queue_samples) == 10
        assert hub.dropped_samples == 15
        with EngineWindow() as window:
            pass
        assert "truncated" in hub.format_profile(window)

    def test_event_kind_collapse(self):
        assert _event_kind("NN__flep/ctx3/batch") == "batch"
        assert _event_kind("launch:NN") == "launch"
        assert _event_kind("submit:p:NN") == "submit"
        assert _event_kind("") == "unlabelled"

    def test_latency_stat_buckets(self):
        """The per-kind stall summary: buckets from the histogram, the
        extremes from the stall spans."""
        hub = Observability()
        for inv_id, stall_us in enumerate((5.0, 75.0, 1e9)):
            inv = SimpleNamespace(
                inv_id=inv_id, process="p", kspec=SimpleNamespace(name="k"),
                engine=SimpleNamespace(sim=SimpleNamespace(now=0.0)),
                record=SimpleNamespace(remaining_us=0.0),
            )
            hub.inv_preempt_requested(inv, "temporal", 0)
            inv.engine.sim.now = stall_us
            hub.inv_drained(inv)
        d = hub.stall_latency()["temporal"]
        assert d["count"] == 3
        assert d["bucket_counts"][0] == 1
        assert d["bucket_counts"][-1] == 1  # beyond the last bound
        assert d["min_us"] == 5.0 and d["max_us"] == 1e9
        assert "spatial" not in hub.stall_latency()


# ---------------------------------------------------------------------------
# the window's hub
# ---------------------------------------------------------------------------
class TestGlobalProfiler:
    def test_install_and_uninstall(self):
        hub = Observability()
        with EngineWindow(hub=hub):
            assert get_global() is hub
        assert get_global() is None

    def test_new_systems_pick_up_the_global(self):
        with EngineWindow(hub=True) as window:
            hub = window.hub
            system = FlepSystem(policy="hpf")
            assert system.obs is hub
            assert system.sim.obs is hub
            assert system.gpu.prof is hub
        assert get_global() is None
        assert FlepSystem(policy="hpf").obs is NULL_OBS

    def test_mps_baseline_picks_up_the_global(self):
        with EngineWindow(hub=True) as window:
            corun = MPSCoRun()
            corun.submit_at(0.0, "solo", "VA", "trivial")
            corun.run()
        hub = window.hub
        assert corun.sim.obs is hub and corun.gpu.prof is hub
        assert sum(hub.events_by_kind.values()) == corun.sim.stats.processed
        assert window.events == corun.sim.stats.processed > 0
        assert hub.cta_admissions > 0

    def test_explicit_profiler_beats_the_global(self):
        mine = Observability()
        with EngineWindow(hub=True):
            system = FlepSystem(policy="hpf", observability=mine)
            assert system.obs is mine

    def test_profiled_runs_the_wall_clock(self):
        with EngineWindow(hub=True) as window:
            _three_kernel_run(None)  # picked up from the window
        block = window.engine_block()
        assert block["wall_s"] > 0.0
        assert block["sims"] == 1
        assert block["events_per_sec"] > 0.0
        assert window.hub.task_pulls > 0
