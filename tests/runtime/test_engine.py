"""FLEP runtime-engine mechanics tests.

These drive the engine directly with a do-nothing policy, so the
launch/preempt/resume/top-up mechanics are observable without HPF/FFS
decision logic in the way.
"""

import pytest

from repro.core.policies.base import SchedulingPolicy
from repro.errors import RuntimeEngineError
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.sim import Simulator
from repro.runtime.engine import FlepRuntime, RuntimeConfig
from repro.runtime.tracker import InvocationState
from repro.workloads.benchmarks import standard_suite


class ManualPolicy(SchedulingPolicy):
    """Records events; scheduling is driven by the test."""

    name = "manual"

    def __init__(self):
        super().__init__()
        self.events = []

    def on_kernel_arrival(self, inv):
        self.events.append(("arrival", inv.kspec.name))

    def on_kernel_finished(self, inv):
        self.events.append(("finished", inv.kspec.name))

    def on_preemption_drained(self, inv):
        self.events.append(("drained", inv.kspec.name))


@pytest.fixture
def rt(suite):
    sim = Simulator()
    gpu = SimulatedGPU(sim, suite.device)
    policy = ManualPolicy()
    runtime = FlepRuntime(sim, gpu, suite, policy,
                          RuntimeConfig(oracle_model=True))
    return runtime


class TestSubmission:
    def test_submit_notifies_policy_not_gpu(self, rt):
        inv = rt.submit("p", "VA", "small")
        assert rt.policy.events == [("arrival", "VA")]
        assert rt.gpu.launch_count == 0
        assert inv.record.state is InvocationState.WAITING

    def test_oracle_prediction_close_to_truth(self, rt):
        inv = rt.submit("p", "MM", "large")
        assert inv.record.predicted_us == pytest.approx(2579, rel=0.05)

    def test_schedule_runs_to_completion(self, rt):
        inv = rt.submit("p", "SPMV", "small")
        rt.schedule_to_gpu(inv)
        assert rt.running is inv
        rt.sim.run()
        assert inv.finished
        assert rt.running is None
        assert ("finished", "SPMV") in rt.policy.events

    def test_double_schedule_rejected(self, rt):
        inv = rt.submit("p", "VA", "small")
        rt.schedule_to_gpu(inv)
        with pytest.raises(RuntimeEngineError):
            rt.schedule_to_gpu(inv)

    def test_unknown_kernel_rejected(self, rt):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            rt.submit("p", "NOPE")


class TestTemporalPreemption:
    def test_preempt_drains_and_notifies(self, rt):
        inv = rt.submit("p", "NN", "large")
        rt.schedule_to_gpu(inv)
        rt.sim.run(until=1_000.0)
        rt.preempt(inv)
        assert rt.running is None
        rt.sim.run(until=2_000.0)
        assert ("drained", "NN") in rt.policy.events
        assert inv.record.state is InvocationState.WAITING
        assert inv.record.preemptions == 1
        assert 0 < inv.pool.done < inv.pool.total

    def test_resume_completes_remaining(self, rt):
        inv = rt.submit("p", "NN", "large")
        rt.schedule_to_gpu(inv)
        rt.sim.run(until=1_000.0)
        rt.preempt(inv)
        rt.sim.run(until=2_000.0)
        rt.schedule_to_gpu(inv)  # resume
        rt.sim.run()
        assert inv.finished
        assert inv.pool.complete
        assert len(inv.grids) == 2

    def test_preempt_non_running_rejected(self, rt):
        inv = rt.submit("p", "VA", "small")
        with pytest.raises(RuntimeEngineError):
            rt.preempt(inv)


class TestSpatialGuest:
    def test_guest_runs_while_victim_continues(self, rt):
        victim = rt.submit("batch", "CFD", "large")
        rt.schedule_to_gpu(victim)
        rt.sim.run(until=500.0)
        guest = rt.submit("query", "NN", "trivial")
        width = rt.spatial_width_for(guest)
        assert width == 5  # 40 CTAs at 8/SM
        rt.preempt(victim, yield_sms=width)
        rt.schedule_to_gpu(guest)
        assert rt.running is victim
        assert guest in rt.guests
        rt.sim.run()
        assert guest.finished and victim.finished
        # victim was never fully off the GPU
        assert victim.record.preemptions == 0
        assert len(victim.record.run_segments) == 1

    def test_victim_topped_up_after_guest(self, rt):
        victim = rt.submit("batch", "CFD", "large")
        rt.schedule_to_gpu(victim)
        rt.sim.run(until=500.0)
        guest = rt.submit("query", "NN", "trivial")
        rt.preempt(victim, yield_sms=rt.spatial_width_for(guest))
        rt.schedule_to_gpu(guest)
        rt.sim.run()
        # a top-up grid was launched to refill the yielded SMs
        assert len(victim.grids) == 2
        assert victim.flag.last_written == 0  # flag cleared at top-up

    def test_forced_spatial_width(self, suite):
        sim = Simulator()
        gpu = SimulatedGPU(sim, suite.device)
        rt = FlepRuntime(
            sim, gpu, suite, ManualPolicy(),
            RuntimeConfig(oracle_model=True, spatial_force_sms=9),
        )
        guest = rt.submit("q", "NN", "trivial")
        assert rt.spatial_width_for(guest) == 9

    def test_yield_zero_sms_rejected(self, rt):
        inv = rt.submit("p", "NN", "large")
        rt.schedule_to_gpu(inv)
        with pytest.raises(RuntimeEngineError):
            rt.preempt(inv, yield_sms=0)


class TestBookkeeping:
    def test_results_and_all_finished(self, rt):
        a = rt.submit("p1", "VA", "small")
        rt.schedule_to_gpu(a)
        assert not rt.all_finished
        rt.sim.run()
        assert rt.all_finished
        assert [inv.inv_id for inv in rt.invocations] == [a.inv_id]
        assert a.record.finished_at is not None

    def test_sms_required_for_trivial(self, rt):
        inv = rt.submit("p", "MD", "trivial")
        assert inv.sms_required == 5
