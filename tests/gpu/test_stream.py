"""Stream ordering and DMA tests (the MPS front end's per-process
streams are tested in ``test_mps.py``)."""

import pytest

from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import LaunchConfig
from repro.gpu.stream import Stream
from repro.gpu.transfer import DMAEngine, Direction

LAUNCH = 50.0


@pytest.fixture
def gpu(sim):
    return SimulatedGPU(sim, small_test_gpu())


class TestStreamOrdering:
    def test_kernels_serialize_within_stream(self, sim, gpu, make_kernel):
        stream = Stream(gpu)
        finished = []
        for name in ("first", "second"):
            stream.enqueue_kernel(
                make_kernel(name=name, task_us=10.0),
                LaunchConfig.original(4),
                on_done=lambda g, n=name: finished.append((n, sim.now)),
            )
        sim.run()
        assert [n for n, _ in finished] == ["first", "second"]
        # second starts only after first completes: 2 full launches
        assert finished[1][1] == pytest.approx(2 * (LAUNCH + 10.0))

    def test_callback_runs_in_order(self, sim, gpu, make_kernel):
        """A kernel's ``on_done`` runs before the stream issues its
        next command."""
        stream = Stream(gpu)
        order = []
        stream.enqueue_kernel(
            make_kernel(name="first", task_us=10.0), LaunchConfig.original(4),
            on_done=lambda g: order.append("first done"),
        )
        stream.enqueue_kernel(
            make_kernel(name="second", task_us=10.0), LaunchConfig.original(4),
            on_grid=lambda g: order.append("second launched"),
        )
        sim.run()
        assert order == ["first done", "second launched"]

    def test_two_streams_overlap(self, sim, gpu, make_kernel):
        s1, s2 = Stream(gpu), Stream(gpu)
        done = {}
        s1.enqueue_kernel(make_kernel(name="a", task_us=10.0),
                          LaunchConfig.original(2),
                          on_done=lambda g: done.setdefault("a", sim.now))
        s2.enqueue_kernel(make_kernel(name="b", task_us=10.0),
                          LaunchConfig.original(2),
                          on_done=lambda g: done.setdefault("b", sim.now))
        sim.run()
        # both grids fit simultaneously: identical finish times
        assert done["a"] == done["b"] == pytest.approx(LAUNCH + 10.0)

    def test_idle_property(self, sim, gpu, make_kernel):
        stream = Stream(gpu)
        assert stream.idle
        stream.enqueue_kernel(make_kernel(task_us=10.0),
                              LaunchConfig.original(2))
        assert not stream.idle
        sim.run()
        assert stream.idle


class TestDMA:
    def test_transfer_time_model(self, k40):
        c = k40.costs
        assert c.transfer_time_us(0) == 0.0
        t_small = c.transfer_time_us(1)
        t_big = c.transfer_time_us(10**9)
        assert t_small >= c.pcie_latency_us
        assert t_big > 100 * t_small

    def test_same_direction_serializes(self, sim, k40):
        dma = DMAEngine(sim, k40.costs)
        times = []
        dma.copy(Direction.H2D, 8_000_000, lambda: times.append(sim.now))
        dma.copy(Direction.H2D, 8_000_000, lambda: times.append(sim.now))
        sim.run()
        one = k40.costs.transfer_time_us(8_000_000)
        assert times == [pytest.approx(one), pytest.approx(2 * one)]

    def test_opposite_directions_overlap(self, sim, k40):
        dma = DMAEngine(sim, k40.costs)
        times = []
        dma.copy(Direction.H2D, 8_000_000, lambda: times.append(sim.now))
        dma.copy(Direction.D2H, 8_000_000, lambda: times.append(sim.now))
        sim.run()
        one = k40.costs.transfer_time_us(8_000_000)
        assert times == [pytest.approx(one), pytest.approx(one)]


class TestStreamPreemptionPath:
    def test_stream_advances_when_kernel_preempted(self, sim, gpu,
                                                   make_kernel):
        """A preempted kernel also completes its stream command (the
        host observes the yield and decides what to do next)."""
        from repro.gpu.kernel import TaskPool
        from repro.gpu.stream import Stream

        stream = Stream(gpu)
        k = make_kernel(mode="persistent", task_us=10.0, amortize_l=1)
        flag = gpu.new_flag()
        pool = TaskPool(1000)
        from repro.gpu.kernel import LaunchConfig

        outcomes = []
        stream.enqueue_kernel(
            k, LaunchConfig.persistent(1000, 4), pool=pool, flag=flag,
            on_done=lambda g: outcomes.append(g.state.value),
        )
        stream.enqueue_kernel(
            make_kernel(name="next", task_us=10.0), LaunchConfig.original(1),
            on_grid=lambda g: outcomes.append("next-command"),
        )
        sim.schedule(120.0, lambda: flag.host_write(99))
        sim.run()
        assert outcomes == ["preempted", "next-command"]
        assert not pool.complete

    def test_double_advance_guard(self, sim, gpu, make_kernel):
        from repro.errors import SimulationError
        from repro.gpu.stream import Stream

        stream = Stream(gpu)
        captured = []

        def bad_command(advance):
            captured.append(advance)
            advance()

        stream._push(bad_command)
        with pytest.raises(SimulationError, match="advanced twice"):
            captured[0]()
