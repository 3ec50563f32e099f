"""SM resource-accounting tests."""

import pytest

from repro.errors import ResourceError
from repro.gpu.device import tesla_k40
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.grid import Grid
from repro.gpu.kernel import KernelImage, LaunchConfig, ResourceUsage, TaskModel
from repro.gpu.occupancy import cta_footprint
from repro.gpu.sim import Simulator
from repro.gpu.sm import SM


@pytest.fixture
def sm():
    return SM(3, tesla_k40())


USAGE = ResourceUsage(256, 16, 1024)


def footprint(usage):
    """``(threads, warps, regs, smem)``: what the dispatcher charges."""
    return (usage.threads_per_cta, *cta_footprint(usage, tesla_k40()))


FP = footprint(USAGE)


class TestAdmission:
    def test_admit_charges_resources(self, sm):
        ctx = object()
        sm.admit_fp(ctx, *FP)
        assert sm.used_threads == 256
        assert sm.used_warps == 8
        assert not sm.idle
        assert sm.free_cta_slots() == 15

    def test_release_returns_resources(self, sm):
        ctx = object()
        sm.admit_fp(ctx, *FP)
        sm.release_fp(ctx, *FP)
        assert sm.idle
        assert sm.used_threads == 0
        assert sm.used_regs == 0
        assert sm.used_smem == 0

    def test_thread_limit_stops_the_dispatch_scan(self):
        """A full SM drops out of the dispatcher's placement scan."""
        sim = Simulator()
        gpu = SimulatedGPU(sim, tesla_k40())
        full = gpu.sms[3]
        for _ in range(8):  # 8 * 256 = 2048 threads: full
            full.admit_fp(object(), *FP)
        kernel = KernelImage("k", USAGE, TaskModel(1.0))
        grid = Grid(sim, gpu.spec, kernel, LaunchConfig.original(1000))
        order = gpu._pick_order(grid, 1000)
        assert full not in order
        assert gpu.sms[2] in order

    def test_double_admit_rejected(self, sm):
        ctx = object()
        sm.admit_fp(ctx, *FP)
        with pytest.raises(ResourceError):
            sm.admit_fp(ctx, *FP)

    def test_release_unknown_rejected(self, sm):
        with pytest.raises(ResourceError):
            sm.release_fp(object(), *FP)

    def test_mixed_footprints_coexist(self, sm):
        big = footprint(ResourceUsage(1024, 32, 8192))
        small = footprint(ResourceUsage(128, 8, 0))
        sm.admit_fp(object(), *big)
        sm.admit_fp(object(), *small)
        assert sm.used_threads == 1024 + 128
        assert sm.used_warps == big[1] + small[1]
        assert sm.used_regs == big[2] + small[2]
        assert sm.free_cta_slots() == tesla_k40().max_ctas_per_sm - 2
