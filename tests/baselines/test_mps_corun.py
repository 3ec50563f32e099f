"""MPS-baseline executor tests."""

import pytest

from repro.baselines.mps_corun import MPSCoRun, solo_exec_us
from repro.workloads.calibration import TABLE1


class TestSoloTimes:
    @pytest.mark.parametrize("bench", sorted(TABLE1))
    def test_large_input_matches_table1(self, suite, bench):
        measured = solo_exec_us(bench, "large", suite.device, suite)
        assert measured == pytest.approx(TABLE1[bench].large_us, rel=0.05)

    @pytest.mark.parametrize("bench", sorted(TABLE1))
    def test_small_input_matches_table1(self, suite, bench):
        measured = solo_exec_us(bench, "small", suite.device, suite)
        assert measured == pytest.approx(TABLE1[bench].small_us, rel=0.07)

    def test_solo_cache_hits(self, suite):
        a = solo_exec_us("VA", "large", suite.device, suite)
        b = solo_exec_us("VA", "large", suite.device, suite)
        assert a == b


class TestCoRunSemantics:
    def test_second_kernel_blocked_by_first(self, suite):
        corun = MPSCoRun(suite.device, suite)
        first = corun.submit_at(0.0, "p1", "NN", "large")
        second = corun.submit_at(10.0, "p2", "SPMV", "small")
        result = corun.run()
        assert result.all_finished
        solo_nn = solo_exec_us("NN", "large", suite.device, suite)
        # SPMV waited roughly NN's whole duration
        assert second.turnaround_us > 0.9 * solo_nn
        assert second.finished_at > first.finished_at * 0.99

    def test_same_process_kernels_serialize(self, suite):
        corun = MPSCoRun(suite.device, suite)
        a = corun.submit_at(0.0, "p", "SPMV", "small")
        b = corun.submit_at(0.0, "p", "VA", "small")
        result = corun.run()
        # same stream: b starts only after a completes
        assert b.finished_at >= a.finished_at + 100.0

    def test_turnaround_measured_from_arrival(self, suite):
        corun = MPSCoRun(suite.device, suite)
        inv = corun.submit_at(500.0, "p", "VA", "trivial")
        corun.run()
        assert inv.arrived_at == 500.0
        assert inv.turnaround_us == inv.finished_at - 500.0

    def test_result_grouping(self, suite):
        corun = MPSCoRun(suite.device, suite)
        corun.submit_at(0.0, "p1", "VA", "trivial")
        corun.submit_at(0.0, "p2", "MD", "trivial")
        result = corun.run()
        assert len(result.of("p1")) == 1
        assert result.turnaround_us("p1") > 0


class TestStreamLifetime:
    def test_idle_streams_are_dropped(self, suite):
        """An MPS server opens one stream per request's process; each is
        dropped once it has no queued or running command, while the
        invocation log stays whole."""
        from repro.serving import (
            PoissonLoadGen, ServingConfig, ServingSystem, Tenant, TenantSet,
        )

        server = ServingSystem(
            TenantSet([Tenant("web", priority=1)]),
            ServingConfig(mode="mps", seed=7),
            device=suite.device, suite=suite,
        )
        server.add_generator(PoissonLoadGen(
            tenant="web", kernels=("SPMV",), rate_per_ms=2.0,
            duration_ms=25.0, seed=7, input_names=("trivial",),
        ))
        report = server.run()
        corun = server.backend
        (row,) = report.tenants
        assert row.completed == row.requests > 20
        assert len(corun.run().invocations) == row.requests
        assert corun._streams == {}

    def test_stream_reopens_for_later_work(self, suite):
        corun = MPSCoRun(suite.device, suite)
        first = corun.submit_at(0.0, "p", "SPMV", "small")
        corun.run()
        assert corun._streams == {}
        second = corun.submit_at(corun.sim.now + 10.0, "p", "SPMV", "small")
        result = corun.run()
        assert result.all_finished
        assert second.finished_at > first.finished_at
        assert corun._streams == {}
