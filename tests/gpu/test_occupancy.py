"""Occupancy-calculator tests (CC 3.5 rules)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OccupancyError
from repro.gpu.device import tesla_k40
from repro.gpu.kernel import ResourceUsage
from repro.gpu.occupancy import (
    active_slots,
    ceil_to,
    max_ctas_per_sm,
    occupancy_report,
    sms_needed,
)


class TestCeilTo:
    def test_exact_multiple(self):
        assert ceil_to(512, 256) == 512

    def test_rounds_up(self):
        assert ceil_to(513, 256) == 768

    def test_zero(self):
        assert ceil_to(0, 256) == 0

    def test_bad_granularity(self):
        with pytest.raises(OccupancyError):
            ceil_to(10, 0)


class TestK40Occupancy:
    """Hand-computed CC 3.5 cases."""

    def test_paper_geometry_256_threads(self, k40):
        # 2048 threads/SM / 256 = 8 CTAs; the paper's "120 active CTAs"
        usage = ResourceUsage(256, 16, 0)
        assert max_ctas_per_sm(k40, usage) == 8
        assert active_slots(k40, usage) == 120

    def test_thread_limited(self, k40):
        usage = ResourceUsage(1024, 16, 0)
        assert max_ctas_per_sm(k40, usage) == 2  # 2048 / 1024

    def test_register_limited(self, k40):
        # 128 regs/thread: 128*32 = 4096/warp -> 8 warps/CTA ->
        # 32768 regs/CTA -> 65536/32768 = 2 CTAs
        usage = ResourceUsage(256, 128, 0)
        report = occupancy_report(k40, usage)
        assert report.ctas_per_sm == 2
        assert report.limiter == "registers"

    def test_shared_mem_limited(self, k40):
        usage = ResourceUsage(256, 16, 16 * 1024)
        report = occupancy_report(k40, usage)
        assert report.ctas_per_sm == 3  # 48K / 16K
        assert report.limiter == "shared_mem"

    def test_register_allocation_granularity(self, k40):
        # 33 regs * 32 = 1056 -> rounds to 1280/warp
        usage = ResourceUsage(256, 33, 0)
        report = occupancy_report(k40, usage)
        assert report.regs_per_cta == 1280 * 8
        assert report.ctas_per_sm == 6  # 65536 // 10240

    def test_shared_alloc_granularity(self, k40):
        usage = ResourceUsage(256, 16, 100)  # rounds to 256
        report = occupancy_report(k40, usage)
        assert report.shared_per_cta == 256

    def test_cta_slot_cap(self, k40):
        usage = ResourceUsage(64, 8, 0)  # tiny CTAs: 2048/64 = 32 > 16
        report = occupancy_report(k40, usage)
        assert report.ctas_per_sm == 16
        assert report.limiter == "cta_slots"

    def test_too_many_threads_rejected(self, k40):
        with pytest.raises(OccupancyError):
            max_ctas_per_sm(k40, ResourceUsage(2048, 16, 0))

    def test_too_many_registers_rejected(self, k40):
        with pytest.raises(OccupancyError):
            max_ctas_per_sm(k40, ResourceUsage(256, 256, 0))

    def test_too_much_shared_rejected(self, k40):
        with pytest.raises(OccupancyError):
            max_ctas_per_sm(k40, ResourceUsage(256, 32, 64 * 1024))


class TestSmsNeeded:
    def test_just_enough_sms(self, k40):
        usage = ResourceUsage(256, 16, 0)  # 8 CTAs/SM
        assert sms_needed(k40, usage, 40) == 5   # the paper's example
        assert sms_needed(k40, usage, 41) == 6
        assert sms_needed(k40, usage, 8) == 1
        assert sms_needed(k40, usage, 0) == 0

    def test_capped_at_device(self, k40):
        usage = ResourceUsage(256, 16, 0)
        assert sms_needed(k40, usage, 10_000) == k40.num_sms


class TestProperties:
    @given(
        threads=st.integers(32, 1024),
        regs=st.integers(1, 128),
        smem=st.integers(0, 48 * 1024),
    )
    @settings(max_examples=200, deadline=None)
    def test_report_consistency(self, threads, regs, smem):
        k40 = tesla_k40()
        usage = ResourceUsage(threads, regs, smem)
        try:
            report = occupancy_report(k40, usage)
        except OccupancyError:
            return
        ctas = report.ctas_per_sm
        assert 1 <= ctas <= k40.max_ctas_per_sm
        # the reported CTA count actually fits
        assert ctas * threads <= k40.max_threads_per_sm
        assert ctas * report.regs_per_cta <= k40.registers_per_sm
        assert ctas * report.shared_per_cta <= k40.shared_mem_per_sm
        # and one more would violate some limit
        more = ctas + 1
        fits = (
            more <= k40.max_ctas_per_sm
            and more * threads <= k40.max_threads_per_sm
            and more * report.warps_per_cta <= k40.max_warps_per_sm
            and more * report.regs_per_cta <= k40.registers_per_sm
            and more * report.shared_per_cta <= k40.shared_mem_per_sm
        )
        assert not fits

    @given(
        threads=st.integers(32, 1024),
        regs=st.integers(1, 64),
        ctas=st.integers(1, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_sms_needed_is_sufficient(self, threads, regs, ctas):
        k40 = tesla_k40()
        usage = ResourceUsage(threads, regs, 0)
        try:
            per_sm = max_ctas_per_sm(k40, usage)
        except OccupancyError:
            return
        needed = sms_needed(k40, usage, ctas)
        if ctas <= per_sm * k40.num_sms:
            assert needed * per_sm >= ctas
        if needed > 1:
            assert (needed - 1) * per_sm < ctas


class TestAdmissionEquivalence:
    """occupancy_report and the dispatcher's placement scan share one
    footprint entry (repro.gpu.occupancy.cta_footprint) — reported
    occupancy must match what the scan actually places."""

    @given(
        threads=st.integers(1, 1024),
        regs=st.integers(1, 64),
        smem=st.integers(0, 48 * 1024),
    )
    @settings(max_examples=100, deadline=None)
    def test_report_footprint_matches_admission_footprint(
        self, threads, regs, smem
    ):
        from repro.gpu.occupancy import cta_footprint

        k40 = tesla_k40()
        usage = ResourceUsage(threads, regs, smem)
        try:
            report = occupancy_report(k40, usage)
        except OccupancyError:
            return
        warps, regs_cta, smem_cta = cta_footprint(usage, k40)
        assert report.warps_per_cta == warps
        assert report.regs_per_cta == regs_cta
        assert report.shared_per_cta == smem_cta

    @given(
        threads=st.integers(1, 1024),
        regs=st.integers(1, 64),
        smem=st.integers(0, 48 * 1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_admission_count_equals_reported_ctas_per_sm(
        self, threads, regs, smem
    ):
        from repro.gpu.gpu import SimulatedGPU
        from repro.gpu.grid import Grid
        from repro.gpu.kernel import KernelImage, LaunchConfig, TaskModel
        from repro.gpu.sim import Simulator

        k40 = tesla_k40()
        usage = ResourceUsage(threads, regs, smem)
        try:
            report = occupancy_report(k40, usage)
        except OccupancyError:
            return
        # the dispatcher's placement scan on an empty device
        sim = Simulator()
        gpu = SimulatedGPU(sim, k40)
        slots = k40.num_sms * k40.max_ctas_per_sm
        grid = Grid(sim, k40, KernelImage("k", usage, TaskModel(1.0)),
                    LaunchConfig.original(slots))
        order = gpu._pick_order(grid, slots)
        for sm in gpu.sms:
            assert order.count(sm) == report.ctas_per_sm
