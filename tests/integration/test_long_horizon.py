"""Long-horizon stress tests: hundreds of invocations over hundreds of
simulated milliseconds, checking stability, bounded queues and sane
aggregate behaviour."""

import pytest

from repro.core.flep import FlepSystem
from repro.gpu.host import HostProgram
from repro.runtime.engine import RuntimeConfig
from repro.workloads.synthetic import poisson_trace


class TestLongHorizonHPF:
    def test_mixed_tenant_storm(self, suite):
        """3 looping batch jobs + ~100 Poisson queries over 150 ms."""
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
        )
        for i, batch in enumerate(("VA", "NN", "CFD")):
            system.run_program(
                HostProgram.single_kernel(
                    f"batch{i}", batch, "large", priority=0,
                    loop_forever=True,
                ),
                start_at_us=i * 100.0,
            )
        trace = poisson_trace(
            ["SPMV", "MM", "PL", "MD"], rate_per_ms=0.7,
            duration_ms=150.0, seed=3,
        )
        for i, a in enumerate(trace.sorted()):
            system.submit_at(
                a.at_us, f"q{i}", a.kernel_name, "trivial", priority=1
            )
        system.run(until=150_000.0)
        system.stop_all_loops()
        result = system.run()
        assert result.all_finished

        queries = [
            i for i in result.invocations if i.process.startswith("q")
        ]
        assert len(queries) >= 60
        finished_in_time = [
            q for q in queries if q.record.turnaround_us < 5_000.0
        ]
        # the overwhelming majority of queries stay responsive
        assert len(finished_in_time) / len(queries) > 0.9
        # the simulator stayed within a sane event budget
        assert system.sim.stats.processed < 2_000_000

    def test_journal_scales_linearly(self, suite):
        """The hub's decision log stays proportional to invocations (no
        event-per-task leakage)."""
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True), observability=True,
        )
        n = 40
        for i in range(n):
            system.submit_at(i * 100.0, f"p{i}", "SPMV", "trivial")
        result = system.run()
        assert result.all_finished
        # arrival + launch + complete (+ occasional preempt/resume)
        assert 3 * n <= len(system.obs.decisions) < 8 * n


class TestLongHorizonFFS:
    def test_shares_stable_over_long_run(self, suite):
        from repro.core.policies.ffs import FFSPolicy
        from repro.metrics.fairness import max_share_error

        policy = FFSPolicy(weights={1: 2.0, 0: 1.0})
        system = FlepSystem(policy=policy, device=suite.device, suite=suite)
        system.run_program(
            HostProgram.single_kernel("lo", "CFD", "large", priority=0,
                                      loop_forever=True))
        system.run_program(
            HostProgram.single_kernel("hi", "MM", "small", priority=1,
                                      loop_forever=True),
            start_at_us=10.0,
        )
        horizon = 120_000.0
        system.run(until=horizon)
        system.stop_all_loops()
        busy = {0: 0.0, 1: 0.0}
        for inv in system.runtime.invocations:
            for start, end in inv.record.run_segments:
                end = end if end > start else horizon
                busy[inv.priority] += min(end, horizon) - start
        total = sum(busy.values())
        shares = {"hi": busy[1] / total, "lo": busy[0] / total}
        err = max_share_error(shares, {"hi": 2.0, "lo": 1.0})
        assert err < 0.05
