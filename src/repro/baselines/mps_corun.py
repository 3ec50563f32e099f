"""The paper's baseline: untransformed kernels co-running under MPS.

Each process gets its own MPS stream; kernels launch as ORIGINAL grids,
so the hardware FIFO's head-of-line blocking applies — a large kernel
blocks every later kernel until all of its CTAs are dispatched (§2.1).
This executor produces the "default co-runs based on MPS" numbers that
Figures 1, 8, 10, 11, 12 normalize against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..errors import ExperimentError
from ..gpu.device import GPUDeviceSpec, tesla_k40
from ..gpu.gpu import SimulatedGPU
from ..gpu.grid import Grid
from ..gpu.kernel import LaunchConfig
from ..gpu.mps import MPSServer
from ..gpu.sim import Simulator
from ..obs.recorder import adopt_hub
from ..workloads.benchmarks import BenchmarkSuite, standard_suite


@dataclass
class BaselineInvocation:
    """One kernel invocation in a baseline co-run."""

    process: str
    kernel: str
    input_name: str
    arrived_at: float
    finished_at: Optional[float] = None
    grid: Optional[Grid] = None

    @property
    def turnaround_us(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return self.finished_at - self.arrived_at


@dataclass
class BaselineResult:
    invocations: List[BaselineInvocation] = field(default_factory=list)
    makespan_us: float = 0.0

    def of(self, process: str) -> List[BaselineInvocation]:
        return [i for i in self.invocations if i.process == process]

    def turnaround_us(self, process: str) -> float:
        invs = self.of(process)
        if not invs or any(i.finished_at is None for i in invs):
            raise ExperimentError(f"process {process!r} did not finish")
        return max(i.finished_at for i in invs) - min(
            i.arrived_at for i in invs
        )

    @property
    def all_finished(self) -> bool:
        return all(i.finished_at is not None for i in self.invocations)


class MPSCoRun:
    """Drive a set of processes' kernel invocations through plain MPS."""

    def __init__(
        self,
        device: Optional[GPUDeviceSpec] = None,
        suite: Optional[BenchmarkSuite] = None,
        seed: Optional[int] = None,
        with_jitter: bool = False,
    ):
        self.device = device or tesla_k40()
        self.suite = suite or standard_suite(self.device)
        self.sim = Simulator()
        self.gpu = SimulatedGPU(self.sim, self.device, seed=seed)
        # only an open window's hub observes baseline co-runs
        hub = adopt_hub(None, lambda: self.sim.now)
        if hub.enabled:
            self.sim.obs = hub
            self.gpu.obs = hub
        self.mps = MPSServer(self.gpu)
        self.with_jitter = with_jitter
        self._streams: Dict[str, object] = {}
        self._invocations: List[BaselineInvocation] = []

    # ------------------------------------------------------------------
    def _stream_for(self, process: str):
        if process not in self._streams:
            self._streams[process] = self.mps.connect(process)
        return self._streams[process]

    def submit_at(
        self,
        at_us: float,
        process: str,
        kernel: str,
        input_name: str,
        on_done: Optional[Callable[[], None]] = None,
    ) -> BaselineInvocation:
        """One kernel invocation arriving at ``at_us``. ``on_done`` (if
        given) fires when the grid completes — how the serving layer
        observes per-request completions on the baseline."""
        kspec = self.suite[kernel]
        inp = kspec.input(input_name)
        image = kspec.original_image(inp, with_jitter=self.with_jitter)
        inv = BaselineInvocation(process, kernel, input_name, at_us)
        self._invocations.append(inv)

        def _completed(_grid):
            inv.finished_at = self.sim.now
            if on_done is not None:
                on_done()

        def _enqueue():
            inv.arrived_at = self.sim.now
            stream = self._stream_for(process)
            stream.enqueue_kernel(
                image,
                LaunchConfig.original(inp.tasks),
                tag={"process": process},
                on_grid=lambda g: setattr(inv, "grid", g),
                on_done=_completed,
            )

        if at_us <= self.sim.now:
            _enqueue()
        else:
            self.sim.schedule_at(at_us, _enqueue, label=f"mps:{process}")
        return inv

    def run(self, until: Optional[float] = None) -> BaselineResult:
        self.sim.run(until=until)
        return BaselineResult(
            invocations=list(self._invocations), makespan_us=self.sim.now
        )


# ----------------------------------------------------------------------
# solo execution times (the normalizer for slowdown / ANTT / STP)
# ----------------------------------------------------------------------
_SOLO_CACHE: Dict[tuple, float] = {}


def solo_exec_us(
    kernel: str,
    input_name: str,
    device: Optional[GPUDeviceSpec] = None,
    suite: Optional[BenchmarkSuite] = None,
) -> float:
    """Measured solo execution time (launch to completion, alone on the
    GPU) of one original-kernel invocation. Cached; deterministic."""
    device = device or tesla_k40()
    key = (kernel, input_name, device.name, device.num_sms,
           device.costs.kernel_launch_us)
    if key in _SOLO_CACHE:
        return _SOLO_CACHE[key]
    corun = MPSCoRun(device=device, suite=suite)
    inv = corun.submit_at(0.0, "solo", kernel, input_name)
    result = corun.run()
    if not result.all_finished:
        raise ExperimentError(f"solo run of {kernel}[{input_name}] hung")
    _SOLO_CACHE[key] = inv.turnaround_us
    return inv.turnaround_us
