"""MPS front-end tests: each host process gets its own in-order stream
(:meth:`MPSCoRun._stream_for`), and the device's FIFO dispatcher then
gives the baseline behaviour the paper attributes to MPS (§2.1) —
sharing when resources allow, head-of-line blocking otherwise."""

from repro.baselines.mps_corun import MPSCoRun
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import KernelImage, LaunchConfig, ResourceUsage, TaskModel
from repro.gpu.stream import Stream


def light_kernel(name, task_us=10.0):
    """64 threads / few regs: two of these co-reside on the 2x2 device."""
    return KernelImage(name, ResourceUsage(64, 8, 0), TaskModel(task_us))


class TestClients:
    def test_connect_returns_named_stream(self, suite):
        corun = MPSCoRun(suite.device, suite)
        stream = corun._stream_for("proc_a")
        assert stream.name == "mps:proc_a"
        # a process keeps its one stream for every later kernel
        assert corun._stream_for("proc_a") is stream

    def test_each_client_gets_a_distinct_stream(self, suite):
        corun = MPSCoRun(suite.device, suite)
        inv_a = corun.submit_at(0.0, "a", "SPMV", "trivial")
        inv_b = corun.submit_at(0.0, "b", "SPMV", "trivial")
        corun.run()
        assert corun._stream_for("a") is not corun._stream_for("b")
        assert inv_a.grid.tag["stream"] == "mps:a"
        assert inv_b.grid.tag["stream"] == "mps:b"


class TestSharedDispatch:
    def test_two_light_clients_overlap_on_the_device(self, sim):
        """Neither client fills the GPU, so MPS runs them concurrently:
        the co-run makespan is far below the serial sum."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        done = {}
        for proc in ("a", "b"):
            Stream(gpu, name=f"mps:{proc}").enqueue_kernel(
                light_kernel(f"k_{proc}"),
                LaunchConfig.original(2),
                on_done=lambda g, p=proc: done.setdefault(p, sim.now),
            )
        end = sim.run()
        assert set(done) == {"a", "b"}
        # 4 slots, 2+2 light CTAs of 10us each: both grids co-resident,
        # so they finish together instead of back-to-back
        assert abs(done["a"] - done["b"]) < 5.0
        launch = gpu.spec.costs.kernel_launch_us
        serial = launch + 10.0 + 10.0  # b waits out a's wave
        assert end < serial

    def test_heavy_head_kernel_blocks_the_other_client(self, sim):
        """Head-of-line blocking: a device-filling kernel from client a
        delays client b's start until it finishes (the Figure 1 problem
        MPS cannot solve)."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        heavy = KernelImage(
            "heavy", ResourceUsage(1024, 16, 0), TaskModel(100.0)
        )
        order = []
        Stream(gpu, name="mps:a").enqueue_kernel(
            heavy, LaunchConfig.original(8),
            on_done=lambda g: order.append(("a", sim.now)),
        )
        Stream(gpu, name="mps:b").enqueue_kernel(
            light_kernel("late"), LaunchConfig.original(1),
            on_done=lambda g: order.append(("b", sim.now)),
        )
        sim.run()
        assert [p for p, _ in order] == ["a", "b"]
        finish_a = dict(order)["a"]
        finish_b = dict(order)["b"]
        assert finish_b > finish_a  # b's single task ran after the drain
