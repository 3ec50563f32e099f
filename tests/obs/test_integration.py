"""End-to-end observability: a real FlepSystem co-run under the hub."""

import pytest

from repro.core.flep import FlepSystem
from repro.fleet import FleetConfig, FleetSystem
from repro.obs import NULL_OBS, EngineWindow, Observability
from repro.runtime.engine import RuntimeConfig
from repro.serving import PoissonLoadGen, Tenant


def run_temporal_pair(suite, **kwargs):
    """NN (low) preempted temporally by SPMV (high) under HPF."""
    system = FlepSystem(
        policy="hpf", device=suite.device, suite=suite,
        config=RuntimeConfig(oracle_model=True), **kwargs,
    )
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(200.0, "high", "SPMV", "small", priority=1)
    result = system.run()
    return system, result


class TestSystemWiring:
    def test_default_is_null(self, suite):
        system = FlepSystem(policy="hpf", device=suite.device, suite=suite)
        assert system.obs is NULL_OBS
        assert system.sim.obs is NULL_OBS
        assert system.gpu.obs is NULL_OBS

    def test_true_builds_hub_on_sim_clock(self, suite):
        system, result = run_temporal_pair(suite, observability=True)
        hub = system.obs
        assert hub.enabled
        assert system.sim.obs is hub
        assert system.gpu.obs is hub and system.gpu.prof is hub
        assert system.gpu.listeners == [hub]
        # every record is stamped by the run's one simulator, up to its end
        assert max(s.end_us for s in hub.tracer.spans) == result.makespan_us
        assert hub.sm_samples[-1][0] == result.makespan_us

    def test_explicit_instance_used_directly(self, suite):
        hub = Observability()
        system, _ = run_temporal_pair(suite, observability=hub)
        assert system.obs is hub

    def test_global_hub_picked_up(self, suite):
        with EngineWindow(hub=True) as window:
            system, _ = run_temporal_pair(suite)
            assert system.obs is window.hub
        assert window.hub.m_invocations.total == 2


class TestRecordedRun:
    @pytest.fixture(scope="class")
    def observed_run(self, suite):
        return run_temporal_pair(suite, observability=True)

    def test_preemption_metrics(self, observed_run):
        system, _ = observed_run
        m = system.obs
        assert m.m_invocations.total == 2
        assert m.m_finished.total == 2
        assert m.m_preempt_req.value(kind="temporal") == 1
        assert m.m_preempt_done.value(kind="temporal") == 1
        assert m.m_stall.count(kind="temporal") == 1
        assert m.m_relaunches.value(reason="resume") == 1
        assert m.m_launches.total == 3  # NN, SPMV, NN-resume
        assert m.m_task_pulls.total > 0
        assert m.m_flag_polls.total > 0
        assert m.m_sim_events.total > 0

    def test_drain_metric_matches_record(self, observed_run):
        system, _ = observed_run
        nn = system.runtime.invocations[0]
        assert nn.record.preemptions == 1
        assert system.obs.m_stall.count(kind="temporal") == 1
        (drain,) = system.obs.tracer.spans_named("drain")
        assert system.obs.m_stall.sum(kind="temporal") == drain.duration_us

    def test_invocation_spans_complete(self, observed_run):
        system, result = observed_run
        tracer = system.obs.tracer
        assert not tracer.open_spans()
        (nn,) = tracer.spans_named("NN[large]")
        segments = [s.name for s in tracer.spans_in(nn)]
        assert segments == ["wait", "execute", "drain", "wait", "resume"]
        (spmv,) = tracer.spans_named("SPMV[small]")
        assert [s.name for s in tracer.spans_in(spmv)] == ["wait", "execute"]
        assert nn.end_us <= result.makespan_us

    def test_chrome_trace_valid(self, observed_run):
        system, _ = observed_run
        doc = system.obs.tracer.chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) >= 2
        for e in xs:
            assert e["dur"] >= 0
            assert {"name", "ts", "pid", "tid"} <= set(e)
        # one process per FLEP process name plus device/scheduler tracks
        meta = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"low", "high"} <= meta

    def test_prometheus_round_trip_from_live_run(self, observed_run):
        from repro.obs.metrics import parse_prometheus

        system, _ = observed_run
        parsed = parse_prometheus(system.obs.metrics.render_prometheus())
        key = ("flep_invocations_total", ())
        assert parsed[key] == 2

    def test_metrics_consistent_with_timeline(self, suite):
        """CTA admissions equal the Timeline's interval count."""
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
            trace=True, observability=True,
        )
        system.submit_at(0.0, "a", "MM", "small")
        system.run()
        assert system.obs.m_cta_admissions.total == len(
            system.timeline.intervals
        )


class TestSpatialRun:
    def test_spatial_metrics_and_span(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True), observability=True,
        )
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        system.run()
        m = system.obs
        assert m.m_preempt_req.value(kind="spatial") == 1
        assert m.m_preempt_done.value(kind="spatial") == 1
        assert m.m_relaunches.value(reason="top_up") == 1
        (span,) = m.tracer.spans_named("spatial_yield")
        assert not span.open
        assert span.args["yield_sms"] == 5


class DeviceProbe:
    """What the hub must record for one device, read at each listener
    event and policy queue change from that device's own simulator."""

    def __init__(self, node):
        self.gpu = gpu = node.system.gpu
        self.sm, self.hw, self.policy = [], [], []
        gpu.listeners.append(self)
        policy = node.system.runtime.policy
        waiting_count = policy.waiting_count

        def spy():
            depth = waiting_count()
            self.policy.append((gpu.sim.now, float(depth)))
            return depth

        policy.waiting_count = spy

    def context_placed(self, ctx, grid):
        sm = ctx.sm
        self.sm.append((self.gpu.sim.now, sm.sm_id, len(sm.resident)))

    def context_retired(self, ctx, now):
        self.context_placed(ctx, ctx.grid)

    def grid_launched(self, grid):
        self.hw.append((self.gpu.sim.now, float(len(self.gpu._queue))))

    grid_terminal = grid_launched


class TestFleetUnderOneHub:
    def test_samples_carry_their_own_device_clock_and_key(self, suite):
        """Four FLEP nodes share one window hub: every SM, hardware-queue
        and policy-queue sample carries its own node's simulator time and
        sits under that node's device key (numbered in build order)."""
        with EngineWindow(hub=True) as window:
            fleet = FleetSystem(
                [Tenant("web", priority=1), Tenant("batch", priority=0)],
                FleetConfig(
                    node_modes=("flep-spatial",) * 4, routing="round-robin",
                    seed=5, oracle_model=True,
                ),
                device=suite.device, suite=suite,
            )
            fleet.add_generator(PoissonLoadGen(
                tenant="web", kernels=("SPMV", "MM"), rate_per_ms=1.0,
                duration_ms=20.0, seed=5, input_names=("small",), priority=1,
            ))
            fleet.add_generator(PoissonLoadGen(
                tenant="batch", kernels=("VA", "NN"), rate_per_ms=0.2,
                duration_ms=20.0, seed=5, input_names=("large",), priority=0,
            ))
            probes = [DeviceProbe(node) for node in fleet.nodes]
            fleet.run()
        hub = window.hub
        assert hub.dropped_samples == 0

        def counters(name, process):
            return [
                (c.at_us, c.values[0][1]) for c in hub.tracer.counters
                if c.name == name and c.process == process
            ]

        assert {d for _, d, _, _ in hub.sm_samples} == {0, 1, 2, 3}
        for device, probe in enumerate(probes):
            assert probe.sm and probe.hw and probe.policy
            assert [
                (t, sm, n) for t, d, sm, n in hub.sm_samples if d == device
            ] == probe.sm
            assert counters("hw_queue_depth", f"device:{device}") == probe.hw
            assert counters(
                "policy_queue_depth", f"scheduler:{device}"
            ) == probe.policy
        assert len(hub.sm_samples) == sum(len(p.sm) for p in probes)
        assert hub.m_sm_resident.value(device="3", sm="0") == 0
