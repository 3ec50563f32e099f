"""HPF policy tests (Figure 6's decision paths)."""

import pytest

from repro.core.flep import FlepSystem
from repro.gpu.memory import PinnedFlag
from repro.runtime.engine import RuntimeConfig


def flep_system(suite, policy="hpf", **cfg):
    return FlepSystem(
        policy=policy,
        device=suite.device,
        suite=suite,
        config=RuntimeConfig(oracle_model=True, **cfg),
    )


class TestPriorityPaths:
    def test_higher_priority_arrival_preempts(self, suite):
        system = flep_system(suite)
        system.submit_at(0.0, "low", "NN", "large", priority=0)
        system.submit_at(100.0, "high", "SPMV", "small", priority=1)
        result = system.run()
        high = result.by_process("high")[0]
        low = result.by_process("low")[0]
        assert high.record.finished_at < low.record.finished_at
        assert low.record.preemptions == 1
        # high barely waited (drain + launch, not NN's 15ms)
        assert high.record.turnaround_us < 1_000.0

    def test_lower_priority_arrival_queued(self, suite):
        system = flep_system(suite)
        system.submit_at(0.0, "high", "SPMV", "large", priority=1)
        system.submit_at(100.0, "low", "VA", "small", priority=0)
        result = system.run()
        high = result.by_process("high")[0]
        low = result.by_process("low")[0]
        assert high.record.preemptions == 0
        assert low.record.finished_at > high.record.finished_at

    def test_equal_priority_srt_preempts_long_kernel(self, suite):
        system = flep_system(suite)
        system.submit_at(0.0, "long", "NN", "large", priority=0)
        system.submit_at(100.0, "short", "SPMV", "small", priority=0)
        result = system.run()
        long_inv = result.by_process("long")[0]
        short_inv = result.by_process("short")[0]
        assert long_inv.record.preemptions == 1
        assert short_inv.record.finished_at < long_inv.record.finished_at

    def test_equal_priority_no_preempt_when_not_worth_it(self, suite):
        """A nearly-finished kernel is not preempted: remaining time
        vs remaining + overhead (Figure 6 line 30)."""
        system = flep_system(suite)
        system.submit_at(0.0, "a", "MM", "small", priority=0)  # ~1.5ms
        # arrives with only ~100us of 'a' left
        system.submit_at(1_400.0, "b", "MM", "small", priority=0)
        result = system.run()
        a = result.by_process("a")[0]
        assert a.record.preemptions == 0

    def test_queued_kernels_run_in_srt_order(self, suite):
        system = flep_system(suite)
        system.submit_at(0.0, "blocker", "NN", "large", priority=0)
        # three equal-priority waiters with distinct durations
        system.submit_at(50.0, "mid", "PL", "small", priority=0)
        system.submit_at(60.0, "tiny", "SPMV", "small", priority=0)
        system.submit_at(70.0, "big", "MM", "small", priority=0)
        result = system.run()
        finish = {
            p: result.by_process(p)[0].record.finished_at
            for p in ("tiny", "mid", "big")
        }
        assert finish["tiny"] < finish["mid"] < finish["big"]

    def test_three_priority_levels(self, suite):
        system = flep_system(suite)
        system.submit_at(0.0, "p0", "NN", "large", priority=0)
        system.submit_at(50.0, "p1", "PL", "small", priority=1)
        system.submit_at(60.0, "p2", "SPMV", "small", priority=2)
        result = system.run()
        finish = {
            p: result.by_process(p)[0].record.finished_at
            for p in ("p0", "p1", "p2")
        }
        assert finish["p2"] < finish["p1"] < finish["p0"]
        assert result.all_finished


@pytest.fixture
def flag_writes(monkeypatch):
    """Every non-zero value the host writes to any preemption flag, as
    (flag, value) pairs in write order."""
    writes = []
    host_write = PinnedFlag.host_write

    def recording(flag, value):
        if value:
            writes.append((flag, value))
        host_write(flag, value)

    monkeypatch.setattr(PinnedFlag, "host_write", recording)
    return writes


def written(writes, inv):
    return [value for flag, value in writes if flag is inv.flag]


class TestSpatialPath:
    """Figure 6's cross-priority rule, checked on the values written to
    the victim's flag. ``TestSpatialPathEDF`` reruns it under EDF."""

    policy = "hpf"

    def test_trivial_guest_triggers_spatial(self, suite, flag_writes):
        system = flep_system(suite, self.policy, spatial_enabled=True)
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        guest = result.by_process("guest")[0]
        # spatial: the victim never fully left the GPU
        assert victim.record.preemptions == 0
        assert written(flag_writes, victim) == [guest.sms_required]
        assert result.all_finished

    def test_spatial_disabled_forces_temporal(self, suite, flag_writes):
        system = flep_system(suite, self.policy, spatial_enabled=False)
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        assert victim.record.preemptions == 1
        assert written(flag_writes, victim) == [suite.device.num_sms]

    def test_small_input_guest_goes_temporal(self, suite, flag_writes):
        """Small inputs need all SMs (§6.1), so spatial never applies."""
        system = flep_system(suite, self.policy, spatial_enabled=True)
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "small", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        assert victim.record.preemptions == 1
        assert written(flag_writes, victim) == [suite.device.num_sms]

    def test_two_spatial_guests_stack(self, suite, flag_writes):
        system = flep_system(suite, self.policy, spatial_enabled=True)
        system.submit_at(0.0, "victim", "VA", "large", priority=0)
        system.submit_at(500.0, "g1", "NN", "trivial", priority=1)
        system.submit_at(520.0, "g2", "MD", "trivial", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        g1, g2 = (result.by_process(p)[0] for p in ("g1", "g2"))
        assert written(flag_writes, victim) == [
            g1.sms_required, g1.sms_required + g2.sms_required,
        ]
        assert result.all_finished

    def test_guests_reaching_every_sm_go_temporal(self, suite, flag_writes):
        """Three 5-SM guests on the 15-SM K40: the third would leave the
        victim no SM, so it yields temporally."""
        system = flep_system(suite, self.policy, spatial_enabled=True)
        system.submit_at(0.0, "victim", "VA", "large", priority=0)
        for i, at in enumerate((500.0, 510.0, 520.0)):
            system.submit_at(at, f"g{i}", "NN", "trivial", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        need = result.by_process("g0")[0].sms_required
        assert 3 * need == suite.device.num_sms
        assert written(flag_writes, victim) == [
            need, 2 * need, suite.device.num_sms,
        ]
        assert victim.record.preemptions == 1
        assert result.all_finished

    def test_forced_width_is_written(self, suite, flag_writes):
        """``spatial_force_sms`` (Figure 16's sweep) sets the yield."""
        system = flep_system(
            suite, self.policy, spatial_enabled=True, spatial_force_sms=8
        )
        system.submit_at(0.0, "victim", "CFD", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        result = system.run()
        victim = result.by_process("victim")[0]
        assert written(flag_writes, victim) == [8]
        assert victim.record.preemptions == 0


class TestSpatialPathEDF(TestSpatialPath):
    policy = "edf"
