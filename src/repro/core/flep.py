"""The FLEP system facade.

One object wiring everything together: a fresh simulator + simulated
GPU, the calibrated benchmark suite, the trained performance models, a
scheduling policy, and the online runtime engine. This is the public
entry point downstream users (and all experiments) drive:

    system = FlepSystem(policy="hpf")
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(0.0, "interactive", "SPMV", "small", priority=1)
    result = system.run()
    print(result.turnaround_us("interactive"))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..errors import ExperimentError, RuntimeEngineError
from ..gpu.device import GPUDeviceSpec, tesla_k40
from ..gpu.gpu import SimulatedGPU
from ..gpu.host import HostProgram
from ..gpu.sim import Simulator
from ..obs.recorder import Observability, adopt_hub
from ..runtime.engine import FlepRuntime, KernelInvocation, RuntimeConfig
from ..workloads.benchmarks import BenchmarkSuite, standard_suite
from .interception import InterceptedProcess
from .policies import POLICIES, SchedulingPolicy


@dataclass
class CoRunResult:
    """Outcome of one FLEP co-run."""

    invocations: List[KernelInvocation] = field(default_factory=list)
    makespan_us: float = 0.0

    def by_process(self, process: str) -> List[KernelInvocation]:
        return [i for i in self.invocations if i.process == process]

    def turnaround_us(self, process: str) -> float:
        """Total turnaround of a process's invocations: first arrival to
        last completion."""
        invs = self.by_process(process)
        if not invs or any(not i.finished for i in invs):
            raise ExperimentError(
                f"process {process!r} has no finished invocations"
            )
        start = min(i.record.arrived_at for i in invs)
        end = max(i.record.finished_at for i in invs)
        return end - start

    @property
    def all_finished(self) -> bool:
        return all(i.finished for i in self.invocations)


class FlepSystem:
    """Compile-once, run-many facade over the FLEP runtime."""

    def __init__(
        self,
        policy: Union[str, SchedulingPolicy] = "hpf",
        device: Optional[GPUDeviceSpec] = None,
        suite: Optional[BenchmarkSuite] = None,
        config: Optional[RuntimeConfig] = None,
        seed: Optional[int] = None,
        trace: bool = False,
        observability: Union[bool, Observability, None] = None,
    ):
        self.device = device or tesla_k40()
        self.suite = suite or standard_suite(self.device)
        self.sim = Simulator()
        self.gpu = SimulatedGPU(self.sim, self.device, seed=seed)
        self.timeline = None
        if trace:
            from ..gpu.trace import Timeline

            self.timeline = Timeline()
            self.gpu.listeners.append(self.timeline)
        self.obs = adopt_hub(observability, lambda: self.sim.now)
        if self.obs.enabled:
            self.sim.obs = self.obs
            self.gpu.obs = self.obs
        if isinstance(policy, str):
            if policy not in POLICIES:
                raise RuntimeEngineError(
                    f"unknown policy {policy!r} (have {sorted(POLICIES)})"
                )
            policy = POLICIES[policy]()
        self.policy = policy
        self.runtime = FlepRuntime(
            self.sim, self.gpu, self.suite, policy, config, obs=self.obs,
        )
        self.processes: List[InterceptedProcess] = []

    # ------------------------------------------------------------------
    # submission API
    # ------------------------------------------------------------------
    def submit_at(
        self,
        at_us: float,
        process: str,
        kernel: str,
        input_name: str = "large",
        priority: int = 0,
        tenant: str = "default",
        deadline_us: Optional[float] = None,
        on_finished=None,
    ) -> None:
        """Schedule one kernel invocation to arrive at ``at_us``."""
        if at_us < self.sim.now:
            raise ExperimentError(f"cannot submit in the past ({at_us})")
        self.sim.schedule_at(
            at_us,
            lambda: self.runtime.submit(
                process, kernel, input_name, priority,
                on_finished=on_finished, tenant=tenant,
                deadline_us=deadline_us,
            ),
            label=f"submit:{process}:{kernel}",
        )

    def run_program(self, program: HostProgram, start_at_us: float = 0.0):
        """Run a full host program through Figure 5's state machine."""
        proc = InterceptedProcess(self.runtime, program)
        self.processes.append(proc)
        if start_at_us <= self.sim.now:
            proc.start()
        else:
            self.sim.schedule_at(
                start_at_us, proc.start, label=f"start:{program.name}"
            )
        return proc

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> CoRunResult:
        """Drive the simulation to completion (or ``until``)."""
        self.sim.run(until=until)
        if self.timeline is not None:
            self.timeline.close_open(self.sim.now)
        if self.obs.enabled:
            self.obs.finalize()
        return CoRunResult(
            invocations=list(self.runtime.invocations),
            makespan_us=self.sim.now,
        )

    def stop_all_loops(self) -> None:
        """Stop every loop-forever process (FFS experiments)."""
        for proc in self.processes:
            proc.stop()

    # convenient passthroughs ------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def predicted_us(self, kernel: str, input_name: str) -> float:
        kspec = self.suite[kernel]
        return self.runtime.models.predict(kernel, kspec.input(input_name))
