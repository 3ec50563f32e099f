"""The paper's eight benchmarks, calibrated to Table 1.

:func:`standard_suite` builds the full benchmark set against a device
spec: each :class:`~repro.workloads.specs.KernelSpec` carries the
calibrated task model, and the three canonical inputs (large / small /
trivial) are solved so that solo execution times match Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional

from ..errors import WorkloadError
from ..gpu.device import GPUDeviceSpec, tesla_k40
from . import calibration as cal
from .specs import InputSpec, KernelSpec

#: Canonical benchmark order (as in Table 1).
BENCHMARK_NAMES = ("CFD", "NN", "PF", "PL", "MD", "SPMV", "MM", "VA")

#: Work-model parameters: elements of input per task, and how the task
#: time scales with input size (only MM's inner-product length grows).
_WORK_MODEL = {
    # name: (work_per_task, scale_exp)
    "CFD": (192, 0.0),
    "NN": (256, 0.0),
    "PF": (256, 0.0),
    "PL": (128, 0.0),
    "MD": (64, 0.0),
    "SPMV": (128, 0.0),
    # MM's inner-product length grows with the matrix dimension, but the
    # effect on a *per-tile* task over the realistic input range is mild
    # (large caches flatten it); a strong exponent would defeat the
    # linear model, contradicting Figure 7's "MM predicts well".
    "MM": (256, 0.15),
    "VA": (256, 0.0),
}


def build_kernel_spec(
    name: str, spec: Optional[GPUDeviceSpec] = None
) -> KernelSpec:
    """Build one calibrated benchmark kernel."""
    if name not in cal.TABLE1:
        raise WorkloadError(
            f"unknown benchmark {name!r} (have {sorted(cal.TABLE1)})"
        )
    device = spec or tesla_k40()
    row = cal.TABLE1[name]
    work_per_task, scale_exp = _WORK_MODEL[name]

    # Solve input task counts against Table 1. The large input is the
    # task-scale reference (scale == 1 by construction).
    tasks_large = cal.solve_tasks(name, row.large_us, spec=device)
    size_large = tasks_large * work_per_task

    kspec = KernelSpec(
        name=name,
        suite=row.suite,
        description=row.description,
        kernel_loc=row.kernel_loc,
        resources=cal.RESOURCES[name],
        task_time_us=cal.TASK_TIME_US[name],
        irregularity=cal.IRREGULARITY[name],
        cta_jitter=min(0.15, cal.IRREGULARITY[name]),
        contention=cal.CONTENTION[name],
        work_per_task=work_per_task,
        scale_exp=scale_exp,
        scale_ref=size_large,
    )

    def _solve_sized(input_name: str, target_us: float) -> InputSpec:
        # tasks*t*scale(size)/slots = target - launch, scale depends on
        # size = tasks*work_per_task -> fixed-point iterate
        scale = 1.0
        tasks = cal.solve_tasks(name, target_us, scale, device)
        for _ in range(20):
            size = tasks * work_per_task
            scale = kspec.scale_for_size(size)
            new_tasks = cal.solve_tasks(name, target_us, scale, device)
            if new_tasks == tasks:
                break
            tasks = new_tasks
        return InputSpec(
            name=input_name,
            size=tasks * work_per_task,
            tasks=tasks,
            task_scale=kspec.scale_for_size(tasks * work_per_task),
        )

    inputs = {
        "large": InputSpec("large", size_large, tasks_large, 1.0),
        "small": _solve_sized("small", row.small_us),
        "trivial": InputSpec(
            "trivial",
            cal.TRIVIAL_TASKS * work_per_task,
            cal.TRIVIAL_TASKS,
            kspec.scale_for_size(cal.TRIVIAL_TASKS * work_per_task),
        ),
    }
    return replace(kspec, inputs=inputs)


@dataclass
class BenchmarkSuite:
    """All eight calibrated benchmarks plus their tuned amortizing
    factors (Table 1's last column)."""

    device: GPUDeviceSpec
    kernels: Dict[str, KernelSpec] = field(default_factory=dict)
    amortizing: Dict[str, int] = field(default_factory=dict)
    #: trained duration predictors, memoised by
    #: :func:`repro.runtime.models.model_bank`
    model_banks: Dict[tuple, object] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getitem__(self, name: str) -> KernelSpec:
        if name not in self.kernels:
            raise WorkloadError(
                f"unknown benchmark {name!r} (have {sorted(self.kernels)})"
            )
        return self.kernels[name]

    def __iter__(self) -> Iterator[KernelSpec]:
        return iter(self.kernels[n] for n in BENCHMARK_NAMES if n in self.kernels)

    def __contains__(self, name: str) -> bool:
        return name in self.kernels

    @property
    def names(self) -> List[str]:
        return [n for n in BENCHMARK_NAMES if n in self.kernels]

    def amortize_l(self, name: str) -> int:
        return self.amortizing[name]


def standard_suite(spec: Optional[GPUDeviceSpec] = None) -> BenchmarkSuite:
    """The paper's full benchmark suite, calibrated to Table 1."""
    device = spec or tesla_k40()
    suite = BenchmarkSuite(device=device)
    for name in BENCHMARK_NAMES:
        suite.kernels[name] = build_kernel_spec(name, device)
        suite.amortizing[name] = cal.TABLE1[name].amortize_l
    return suite
