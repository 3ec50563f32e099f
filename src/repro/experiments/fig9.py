"""Figure 9: high-priority speedup vs delay between the two invocations.

As the high-priority kernel's launch is delayed, the low-priority kernel
retires work, shrinking the waiting the baseline would have suffered —
so the speedup decays roughly linearly and plateaus near 1 once the
delay exceeds the low-priority kernel's duration.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..gpu.device import GPUDeviceSpec
from .harness import LAUNCH_FOLLOW_US, CoRunHarness, Scenario
from .report import ExperimentReport

#: Representative pairs (high, low); one per low-priority benchmark.
DEFAULT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("SPMV", "NN"),
    ("MM", "CFD"),
    ("VA", "PF"),
    ("NN", "PL"),
)

#: Delays as fractions of the low-priority kernel's solo duration.
DEFAULT_FRACTIONS: Tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2)


def run(
    device: Optional[GPUDeviceSpec] = None,
    harness: Optional[CoRunHarness] = None,
    pairs: Sequence[Tuple[str, str]] = DEFAULT_PAIRS,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> ExperimentReport:
    """Sweep the high-priority invocation delay; returns the report."""
    harness = harness or CoRunHarness(device)
    report = ExperimentReport(
        "fig9",
        "High-priority speedup vs invocation delay",
        paper={"plateau_speedup": 1.0},
    )
    plateau: List[float] = []
    for high, low in pairs:
        low_solo = harness.solo_us(low, "large")
        for frac in fractions:
            delay = max(LAUNCH_FOLLOW_US, frac * low_solo)
            scenario = Scenario.pair(low=low, high=high, delay_us=delay)
            mps = harness.run_mps(scenario)
            flep = harness.run_flep(scenario, policy="hpf")
            key = (f"proc_{high}", high, "small")
            speedup = mps.turnaround_us[key] / flep.turnaround_us[key]
            report.add_row(
                pair=f"{high}_{low}",
                delay_frac=frac,
                delay_us=delay,
                mps_us=mps.turnaround_us[key],
                flep_us=flep.turnaround_us[key],
                speedup=speedup,
            )
            if frac >= 1.0:
                plateau.append(speedup)
    report.summarize("speedup")
    report.headline["plateau_speedup"] = (
        sum(plateau) / len(plateau) if plateau else float("nan")
    )
    report.notes.append(
        "speedup decays with delay; delays past the low-priority "
        "kernel's duration plateau near 1 (no waiting left to remove)"
    )
    return report


def main() -> ExperimentReport:  # pragma: no cover - CLI entry
    """Run this experiment and print its report."""
    report = run()
    report.print()
    return report
