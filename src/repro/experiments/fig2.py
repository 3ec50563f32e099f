"""Figure 2: temporal vs spatial preemption, illustrated.

The paper's Figure 2 sketches a 2-SM GPU (2 CTAs per SM): kernel K1 is
running when K2 arrives. (a) temporal preemption yields both SMs; (b)
when K2 needs only one SM, spatial preemption yields exactly that one
while K1 keeps the other. We *execute* that scenario on the simulator
with a timeline tracer attached and regenerate the schedule as an ASCII
Gantt, plus the overhead numbers the sketch implies.
"""

from __future__ import annotations

from typing import Dict

from ..gpu.device import small_test_gpu
from ..gpu.gpu import SimulatedGPU
from ..gpu.kernel import (
    KernelImage,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from ..gpu.sim import Simulator
from ..gpu.trace import Timeline
from .report import ExperimentReport

TASK_US = 20.0
K1_TASKS = 40
K2_TASKS_TEMPORAL = 4    # fills the whole 2x2 GPU
K2_TASKS_SPATIAL = 2     # fills one SM
PREEMPT_AT = 120.0


def _k(name: str, spatial: bool = True) -> KernelImage:
    image = KernelImage(
        name, ResourceUsage(256, 16, 0), TaskModel(TASK_US)
    )
    return image


def _run(mode: str) -> Dict:
    """mode: 'temporal' (K2 needs the whole GPU) or 'spatial' (one SM)."""
    sim = Simulator()
    gpu = SimulatedGPU(sim, small_test_gpu(num_sms=2, max_ctas_per_sm=2))
    tracer = Timeline()
    gpu.listeners.append(tracer)

    k1 = _k("K1").transformed(amortize_l=1)
    flag = gpu.new_flag()
    pool = TaskPool(K1_TASKS)
    gpu.launch(k1, LaunchConfig.persistent(K1_TASKS, 4), pool=pool, flag=flag)

    k2_tasks = K2_TASKS_TEMPORAL if mode == "temporal" else K2_TASKS_SPATIAL
    k2 = _k("K2")
    k2_done = []
    yield_value = 2 if mode == "temporal" else 1
    sim.schedule(PREEMPT_AT, lambda: flag.host_write(yield_value))
    sim.schedule(
        PREEMPT_AT,
        lambda: gpu.launch(
            k2, LaunchConfig.original(k2_tasks),
            on_complete=lambda g: k2_done.append(sim.now),
        ),
    )

    # resume / top-up K1 once K2 is done
    def maybe_resume():
        if k2_done and not pool.complete:
            flag.clear()
            remaining = min(pool.remaining, 4)
            if remaining > 0:
                gpu.launch(
                    k1, LaunchConfig.persistent(pool.remaining, remaining),
                    pool=pool, flag=flag,
                )
        elif not pool.complete:
            sim.schedule(10.0, maybe_resume)

    sim.schedule(PREEMPT_AT + 10.0, maybe_resume)
    sim.run()
    tracer.close_open(sim.now)
    return {
        "tracer": tracer,
        "makespan_us": sim.now,
        "k2_done_us": k2_done[0] if k2_done else float("nan"),
        "k1_sm_time": tracer.kernel_sm_time_us("K1"),
    }


def run() -> ExperimentReport:
    """Regenerate this table/figure; returns the report."""
    report = ExperimentReport(
        "fig2",
        "Temporal vs spatial preemption on the 2x2 illustration GPU",
    )
    outcomes = {}
    for mode in ("temporal", "spatial"):
        out = _run(mode)
        outcomes[mode] = out
        report.add_row(
            mode=mode,
            k2_turnaround_us=out["k2_done_us"] - PREEMPT_AT,
            k1_finished_us=out["makespan_us"],
        )
    # the figure's message: spatial keeps SM1 busy for K1, so K1
    # finishes earlier while K2 is barely slower
    report.headline["k1_finish_temporal_us"] = outcomes["temporal"][
        "makespan_us"
    ]
    report.headline["k1_finish_spatial_us"] = outcomes["spatial"][
        "makespan_us"
    ]
    report.notes.append("ASCII Gantt (temporal):")
    report.notes.append(
        "\n" + outcomes["temporal"]["tracer"].render_ascii(2, 20.0)
    )
    report.notes.append("ASCII Gantt (spatial):")
    report.notes.append(
        "\n" + outcomes["spatial"]["tracer"].render_ascii(2, 20.0)
    )
    return report


def main() -> ExperimentReport:  # pragma: no cover - CLI entry
    """Run this experiment and print its report."""
    report = run()
    report.print()
    return report
