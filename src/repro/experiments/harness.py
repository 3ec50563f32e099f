"""Shared co-run drivers for the evaluation experiments.

All the paper's co-run experiments follow the same shape: launch a
long-running kernel, launch one or two shorter kernels "immediately
after" (we use a small follow delay for the launch command to return),
run to completion under an executor (MPS baseline, FLEP with a policy,
or reordering), and compare turnarounds against solo execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..baselines.mps_corun import MPSCoRun, solo_exec_us
from ..baselines.reordering import ReorderingCoRun
from ..core.flep import FlepSystem
from ..errors import ExperimentError
from ..gpu.device import CostModel, GPUDeviceSpec, tesla_k40
from ..metrics.multiprogram import antt
from ..runtime.engine import RuntimeConfig
from ..workloads.benchmarks import BenchmarkSuite, standard_suite

#: "We invoke A's kernel immediately after B's kernel is launched": the
#: follow-up invocation arrives this long after the first (µs), 10 µs
#: after the first launch completes, so B's CTAs are already running
#: when A preempts them (60 µs on the K40 cost model).
LAUNCH_FOLLOW_US = CostModel().kernel_launch_us + 10.0


@dataclass(frozen=True)
class Entry:
    """One kernel invocation in a co-run scenario."""

    at_us: float
    process: str
    kernel: str
    input_name: str
    priority: int = 0


@dataclass
class Scenario:
    """A co-run scenario: a list of timed invocations."""

    entries: List[Entry] = field(default_factory=list)

    @staticmethod
    def pair(
        low: str,
        high: str,
        low_input: str = "large",
        high_input: str = "small",
        delay_us: float = LAUNCH_FOLLOW_US,
        low_priority: int = 0,
        high_priority: int = 1,
    ) -> "Scenario":
        """The canonical two-kernel co-run: B (low) first, A (high)
        ``delay_us`` later."""
        return Scenario(
            entries=[
                Entry(0.0, f"proc_{low}", low, low_input, low_priority),
                Entry(delay_us, f"proc_{high}", high, high_input, high_priority),
            ]
        )

    @staticmethod
    def triplet(
        first: str, second: str, third: str, priority: int = 0
    ) -> "Scenario":
        """Figure 12's shape: A on large, then B and C on small."""
        return Scenario(
            entries=[
                Entry(0.0, f"p1_{first}", first, "large", priority),
                Entry(LAUNCH_FOLLOW_US, f"p2_{second}", second, "small", priority),
                Entry(2 * LAUNCH_FOLLOW_US, f"p3_{third}", third, "small", priority),
            ]
        )


@dataclass
class CoRunOutcome:
    """Per-invocation turnaround/solo for one executed scenario."""

    executor: str
    makespan_us: float
    # keyed by (process, kernel, input)
    turnaround_us: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    solo_us: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    waited_us: Dict[Tuple[str, str, str], float] = field(default_factory=dict)
    preemptions: Dict[Tuple[str, str, str], int] = field(default_factory=dict)
    #: Event-loop accounting from the executor's simulator (the shared
    #: :class:`~repro.gpu.sim.EventLoopStats` counters, always on).
    events_processed: int = 0
    peak_pending: int = 0

    def keys_in_order(self, scenario: Scenario) -> List[Tuple[str, str, str]]:
        return [(e.process, e.kernel, e.input_name) for e in scenario.entries]

    def antt(self, scenario: Scenario) -> float:
        keys = self.keys_in_order(scenario)
        return antt(
            [self.turnaround_us[k] for k in keys],
            [self.solo_us[k] for k in keys],
        )

    def slowdown(self, key: Tuple[str, str, str]) -> float:
        return self.turnaround_us[key] / self.solo_us[key]


class CoRunHarness:
    """Run scenarios through the three executors with shared caching."""

    def __init__(
        self,
        device: Optional[GPUDeviceSpec] = None,
        suite: Optional[BenchmarkSuite] = None,
    ):
        self.device = device or tesla_k40()
        self.suite = suite or standard_suite(self.device)
        self._solo_cache: Dict[Tuple[str, str], float] = {}

    # ------------------------------------------------------------------
    def solo_us(self, kernel: str, input_name: str) -> float:
        key = (kernel, input_name)
        if key not in self._solo_cache:
            self._solo_cache[key] = solo_exec_us(
                kernel, input_name, self.device, self.suite
            )
        return self._solo_cache[key]

    def _fill_solo(self, outcome: CoRunOutcome, scenario: Scenario) -> None:
        for e in scenario.entries:
            outcome.solo_us[(e.process, e.kernel, e.input_name)] = self.solo_us(
                e.kernel, e.input_name
            )

    # ------------------------------------------------------------------
    def run_mps(self, scenario: Scenario) -> CoRunOutcome:
        """The paper's baseline: untransformed kernels under MPS."""
        corun = MPSCoRun(self.device, self.suite)
        handles = [
            (e, corun.submit_at(e.at_us, e.process, e.kernel, e.input_name))
            for e in scenario.entries
        ]
        result = corun.run()
        if not result.all_finished:
            raise ExperimentError("MPS co-run did not finish")
        outcome = CoRunOutcome(
            "mps", result.makespan_us,
            events_processed=corun.sim.stats.processed,
            peak_pending=corun.sim.stats.peak_pending,
        )
        for e, inv in handles:
            outcome.turnaround_us[(e.process, e.kernel, e.input_name)] = (
                inv.turnaround_us
            )
        self._fill_solo(outcome, scenario)
        return outcome

    def run_flep(
        self,
        scenario: Scenario,
        policy: str = "hpf",
        config: Optional[RuntimeConfig] = None,
    ) -> CoRunOutcome:
        """FLEP with the given policy."""
        system = FlepSystem(
            policy=policy, device=self.device, suite=self.suite, config=config
        )
        for e in scenario.entries:
            system.submit_at(e.at_us, e.process, e.kernel, e.input_name, e.priority)
        result = system.run()
        if not result.all_finished:
            raise ExperimentError(f"FLEP co-run ({policy}) did not finish")
        outcome = CoRunOutcome(
            f"flep:{policy}", result.makespan_us,
            events_processed=system.sim.stats.processed,
            peak_pending=system.sim.stats.peak_pending,
        )
        for inv in result.invocations:
            key = (inv.process, inv.kspec.name, inv.inp.name)
            outcome.turnaround_us[key] = inv.record.turnaround_us
            outcome.waited_us[key] = inv.record.waited_us
            outcome.preemptions[key] = inv.record.preemptions
        self._fill_solo(outcome, scenario)
        return outcome

    def run_reorder(self, scenario: Scenario) -> CoRunOutcome:
        """Kernel-reordering baseline: SJF launch order, no preemption."""
        corun = ReorderingCoRun(self.device, self.suite)
        handles = [
            (e, corun.submit_at(e.at_us, e.process, e.kernel, e.input_name))
            for e in scenario.entries
        ]
        result = corun.run()
        outcome = CoRunOutcome(
            "reorder", result.makespan_us,
            events_processed=corun.sim.stats.processed,
            peak_pending=corun.sim.stats.peak_pending,
        )
        for e, inv in handles:
            outcome.turnaround_us[(e.process, e.kernel, e.input_name)] = (
                inv.turnaround_us
            )
        self._fill_solo(outcome, scenario)
        return outcome
