"""Original-kernel execution semantics: waves, FIFO blocking, leftover
sharing — the §2.1 behaviours the MPS baseline depends on."""

import pytest

from repro.gpu.device import small_test_gpu, tesla_k40
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.grid import GridState
from repro.gpu.kernel import LaunchConfig
from repro.gpu.sim import Simulator

LAUNCH = 50.0  # default kernel_launch_us on the calibrated cost model


@pytest.fixture
def tiny(sim):
    """2 SMs x 2 slots device (4 concurrent CTAs), 10us tasks."""
    return SimulatedGPU(sim, small_test_gpu())


class TestSoloExecution:
    def test_single_wave(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        done = []
        tiny.launch(k, LaunchConfig.original(4),
                    on_complete=lambda g: done.append(sim.now))
        sim.run()
        assert done == [LAUNCH + 10.0]

    def test_two_waves(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        done = []
        tiny.launch(k, LaunchConfig.original(8),
                    on_complete=lambda g: done.append(sim.now))
        sim.run()
        assert done == [LAUNCH + 20.0]

    def test_partial_tail_wave(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        done = []
        tiny.launch(k, LaunchConfig.original(5),
                    on_complete=lambda g: done.append(sim.now))
        sim.run()
        assert done == [LAUNCH + 20.0]  # 4 parallel + 1 straggler

    def test_fewer_ctas_than_slots(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        done = []
        tiny.launch(k, LaunchConfig.original(2),
                    on_complete=lambda g: done.append(sim.now))
        sim.run()
        assert done == [LAUNCH + 10.0]

    def test_large_grid_event_efficiency(self, make_kernel):
        """Guided batching keeps events logarithmic in grid size."""
        sim = Simulator()
        gpu = SimulatedGPU(sim, tesla_k40())
        k = make_kernel(task_us=0.25)
        done = []
        gpu.launch(k, LaunchConfig.original(1_000_000),
                   on_complete=lambda g: done.append(sim.now))
        sim.run()
        ideal = LAUNCH + 1_000_000 * 0.25 / 120
        assert done[0] == pytest.approx(ideal, rel=0.01)
        assert sim.stats.processed < 10_000

    def test_grid_state_lifecycle(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        grid = tiny.launch(k, LaunchConfig.original(4))
        assert grid.state is GridState.QUEUED
        sim.run(until=LAUNCH + 1.0)
        assert grid.state is GridState.RUNNING
        sim.run()
        assert grid.state is GridState.COMPLETE
        assert grid.first_dispatch_at == LAUNCH
        assert grid.turnaround_us == pytest.approx(LAUNCH + 10.0)


class TestFIFOBlocking:
    def test_second_grid_waits_for_first_queue_to_drain(
        self, sim, tiny, make_kernel
    ):
        """A large grid blocks a later grid until all its CTAs are
        dispatched (§2.1)."""
        k1 = make_kernel(name="big", task_us=10.0)
        k2 = make_kernel(name="late", task_us=10.0)
        done = {}
        tiny.launch(k1, LaunchConfig.original(12),
                    on_complete=lambda g: done.setdefault("big", sim.now))
        tiny.launch(k2, LaunchConfig.original(4),
                    on_complete=lambda g: done.setdefault("late", sim.now))
        sim.run()
        # big: 12 tasks / 4 slots = 30us; late starts only at the tail
        assert done["big"] == pytest.approx(LAUNCH + 30.0)
        assert done["late"] >= done["big"]

    def test_leftover_resource_sharing(self, sim, tiny, make_kernel):
        """A fully-dispatched small grid leaves slots for the next grid
        — the MPS concurrency case."""
        k1 = make_kernel(name="small", task_us=30.0)
        k2 = make_kernel(name="filler", task_us=10.0)
        done = {}
        tiny.launch(k1, LaunchConfig.original(2),
                    on_complete=lambda g: done.setdefault("small", sim.now))
        tiny.launch(k2, LaunchConfig.original(2),
                    on_complete=lambda g: done.setdefault("filler", sim.now))
        sim.run()
        # both fit simultaneously: filler does NOT wait for small
        assert done["filler"] == pytest.approx(LAUNCH + 10.0)
        assert done["small"] == pytest.approx(LAUNCH + 30.0)

    def test_three_grids_fifo_order(self, sim, tiny, make_kernel):
        finish_order = []
        for name, tasks in (("a", 8), ("b", 8), ("c", 4)):
            tiny.launch(
                make_kernel(name=name, task_us=10.0),
                LaunchConfig.original(tasks),
                on_complete=lambda g, n=name: finish_order.append(n),
            )
        sim.run()
        assert finish_order == ["a", "b", "c"]

    def test_launch_overhead_override(self, sim, tiny, make_kernel):
        k = make_kernel(task_us=10.0)
        done = []
        tiny.launch(k, LaunchConfig.original(4),
                    on_complete=lambda g: done.append(sim.now),
                    launch_overhead_us=4.0)
        sim.run()
        assert done == [14.0]


class TestJitter:
    def test_jitter_changes_makespan_but_conserves_tasks(self, make_kernel):
        sim = Simulator()
        gpu = SimulatedGPU(sim, small_test_gpu(), seed=42)
        k = make_kernel(task_us=10.0, jitter=0.1)
        grid = gpu.launch(k, LaunchConfig.original(16))
        sim.run()
        assert grid.pool.complete
        assert grid.state is GridState.COMPLETE
