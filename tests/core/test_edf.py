"""EDF policy tests: deadline order within a priority level, HPF
behaviour across levels."""

from types import SimpleNamespace

import math

import pytest

from repro.core.flep import FlepSystem
from repro.core.policies import POLICIES
from repro.core.policies.edf import EDFPolicy, deadline_key
from repro.runtime.engine import RuntimeConfig


def edf_system(suite):
    return FlepSystem(
        policy="edf",
        device=suite.device,
        suite=suite,
        config=RuntimeConfig(oracle_model=True),
    )


def fake_inv(deadline_us, arrived_at=0.0):
    return SimpleNamespace(
        deadline_us=deadline_us,
        record=SimpleNamespace(arrived_at=arrived_at),
    )


class TestDeadlineKey:
    def test_orders_by_deadline(self):
        assert deadline_key(fake_inv(100.0)) < deadline_key(fake_inv(200.0))

    def test_none_sorts_last(self):
        assert deadline_key(fake_inv(None)) == (math.inf, 0.0)
        assert deadline_key(fake_inv(1e12)) < deadline_key(fake_inv(None))

    def test_arrival_breaks_ties(self):
        early = fake_inv(500.0, arrived_at=1.0)
        late = fake_inv(500.0, arrived_at=2.0)
        assert deadline_key(early) < deadline_key(late)

    def test_registered(self):
        assert POLICIES["edf"] is EDFPolicy


class TestWithinPriority:
    def test_queued_waiters_run_in_deadline_order(self, suite):
        """Arrival order is late/mid/early deadline; completion must be
        early/mid/late — deadline decides, not FIFO or remaining time."""
        system = edf_system(suite)
        system.submit_at(0.0, "blocker", "NN", "large", priority=0)
        system.submit_at(50.0, "late", "MM", "small", priority=0,
                         deadline_us=100_000.0)
        system.submit_at(60.0, "mid", "MM", "small", priority=0,
                         deadline_us=50_000.0)
        system.submit_at(70.0, "early", "MM", "small", priority=0,
                         deadline_us=10_000.0)
        result = system.run()
        finish = {
            p: result.by_process(p)[0].record.finished_at
            for p in ("early", "mid", "late")
        }
        assert finish["early"] < finish["mid"] < finish["late"]

    def test_deadline_preempts_best_effort(self, suite):
        """No-deadline work sorts last: a deadline arrival takes the GPU
        from a running best-effort kernel of the same priority."""
        system = edf_system(suite)
        system.submit_at(0.0, "batch", "NN", "large", priority=0)
        system.submit_at(100.0, "query", "SPMV", "small", priority=0,
                         deadline_us=2_000.0)
        result = system.run()
        batch = result.by_process("batch")[0]
        query = result.by_process("query")[0]
        assert batch.record.preemptions == 1
        assert query.record.finished_at < batch.record.finished_at

    def test_earlier_running_deadline_not_preempted(self, suite):
        system = edf_system(suite)
        system.submit_at(0.0, "a", "MM", "small", priority=0,
                         deadline_us=5_000.0)
        system.submit_at(100.0, "b", "MM", "small", priority=0,
                         deadline_us=50_000.0)
        result = system.run()
        a = result.by_process("a")[0]
        b = result.by_process("b")[0]
        assert a.record.preemptions == 0
        assert a.record.finished_at < b.record.finished_at

    def test_no_deadline_ties_fall_back_to_fifo(self, suite):
        system = edf_system(suite)
        system.submit_at(0.0, "blocker", "NN", "large", priority=0)
        system.submit_at(50.0, "first", "MM", "small", priority=0)
        system.submit_at(60.0, "second", "MM", "small", priority=0)
        result = system.run()
        first = result.by_process("first")[0]
        second = result.by_process("second")[0]
        assert first.record.finished_at < second.record.finished_at

    def test_not_worth_preempting_a_nearly_done_kernel(self, suite):
        """Even an earlier deadline leaves a nearly-finished victim
        alone (remaining work below the preemption overhead)."""
        system = edf_system(suite)
        system.submit_at(0.0, "a", "MM", "small", priority=0,
                         deadline_us=50_000.0)
        # 'a' (~1.5 ms) has ~50 µs left when 'b' shows up — less than
        # MM's ~74 µs preemption overhead
        system.submit_at(1_450.0, "b", "MM", "small", priority=0,
                         deadline_us=2_000.0)
        result = system.run()
        assert result.by_process("a")[0].record.preemptions == 0


class TestAcrossPriorities:
    def test_priority_trumps_deadline(self, suite):
        """An early deadline never saves low-priority work from a
        higher-priority arrival (HPF across levels)."""
        system = edf_system(suite)
        system.submit_at(0.0, "low", "NN", "large", priority=0,
                         deadline_us=1_000.0)
        system.submit_at(100.0, "high", "SPMV", "small", priority=1)
        result = system.run()
        low = result.by_process("low")[0]
        high = result.by_process("high")[0]
        assert low.record.preemptions == 1
        assert high.record.finished_at < low.record.finished_at

    def test_lower_priority_arrival_queued(self, suite):
        system = edf_system(suite)
        system.submit_at(0.0, "high", "SPMV", "large", priority=1)
        system.submit_at(100.0, "low", "VA", "small", priority=0,
                         deadline_us=100.0)
        result = system.run()
        high = result.by_process("high")[0]
        low = result.by_process("low")[0]
        assert high.record.preemptions == 0
        assert low.record.finished_at > high.record.finished_at

    def test_waiting_count(self, suite):
        policy = EDFPolicy()
        assert policy.waiting_count() == 0
