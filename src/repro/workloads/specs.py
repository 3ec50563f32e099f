"""Benchmark and input specifications.

A :class:`KernelSpec` describes one of the paper's eight benchmarks at
the level the simulator needs: per-CTA resource footprint, the mean time
of one *task* (the work of one original CTA), input-dependent scaling,
and the structural irregularity that makes durations hard to predict
(Figure 7). An :class:`InputSpec` instantiates the kernel on a concrete
input (large / small / trivial in Table 1, or random training inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import WorkloadError
from ..gpu.kernel import KernelImage, KernelMode, ResourceUsage, TaskModel


@dataclass(frozen=True)
class InputSpec:
    """One concrete input for a kernel.

    ``tasks`` is the original grid size. ``task_scale`` scales the
    kernel's base task time (e.g. MM's inner-product length grows with
    the matrix dimension). ``hidden_factor`` is the input's *unobserved*
    performance factor (non-zero for irregular kernels): it multiplies
    the true duration but is invisible to the 4 features the paper's
    linear model uses — this is what produces Figure 7's error pattern.
    """

    name: str
    size: int                 # abstract input size (elements/points/cells)
    tasks: int                # original grid size (one task per CTA)
    task_scale: float = 1.0
    hidden_factor: float = 0.0

    def __post_init__(self):
        if self.tasks < 0:
            raise WorkloadError(f"input {self.name!r}: negative task count")
        if self.task_scale <= 0:
            raise WorkloadError(f"input {self.name!r}: task_scale must be > 0")
        if self.hidden_factor <= -1.0:
            raise WorkloadError(
                f"input {self.name!r}: hidden factor would make time negative"
            )


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark kernel (Table 1 row)."""

    name: str
    suite: str                       # Rodinia / SHOC / CUDA SDK
    description: str
    kernel_loc: int                  # lines of code in the kernel (Table 1)
    resources: ResourceUsage
    task_time_us: float              # mean time of one task, reference input
    irregularity: float              # sigma of the hidden per-input factor
    cta_jitter: float = 0.0          # per-CTA time spread within one run
    #: intra-SM contention coefficient: how much co-resident CTAs slow
    #: each other (0 = compute-bound, ~2 = bandwidth-bound). Task times
    #: are calibrated at *full* occupancy; lower packing runs faster
    #: (Figure 16's effect).
    contention: float = 0.0
    inputs: Dict[str, InputSpec] = field(default_factory=dict)
    # work model: tasks(size) = size / work_per_task;
    # task_scale(size) = (size / scale_ref) ** scale_exp
    work_per_task: int = 256
    scale_exp: float = 0.0
    scale_ref: int = 1
    #: flep images built so far, keyed by :meth:`flep_image`'s
    #: arguments: images are frozen, so every request of one shape
    #: shares one instead of building its own
    _flep_images: Dict[tuple, KernelImage] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.task_time_us <= 0:
            raise WorkloadError(f"{self.name}: task_time_us must be positive")
        if self.irregularity < 0:
            raise WorkloadError(f"{self.name}: irregularity must be >= 0")

    # ------------------------------------------------------------------
    # work model
    # ------------------------------------------------------------------
    def tasks_for_size(self, size: int) -> int:
        """Original grid size for an input of ``size`` elements."""
        if size <= 0:
            raise WorkloadError(f"{self.name}: input size must be positive")
        return max(1, size // self.work_per_task)

    def scale_for_size(self, size: int) -> float:
        """Task-time scale for an input of ``size`` elements."""
        if self.scale_exp == 0.0:
            return 1.0
        return (size / self.scale_ref) ** self.scale_exp

    def make_input(
        self,
        name: str,
        size: int,
        hidden_factor: float = 0.0,
    ) -> InputSpec:
        return InputSpec(
            name=name,
            size=size,
            tasks=self.tasks_for_size(size),
            task_scale=self.scale_for_size(size),
            hidden_factor=hidden_factor,
        )

    # ------------------------------------------------------------------
    # intra-SM contention
    # ------------------------------------------------------------------
    def contention_factor(
        self, resident_per_sm: int, full_occupancy: int
    ) -> float:
        """Task-time multiplier when ``resident_per_sm`` CTAs share one
        SM, relative to the calibrated full-occupancy time.

        ``1.0`` at full occupancy; below ``1.0`` for sparser packings
        (per-CTA progress improves when contention drops). Linear in the
        number of co-residents, scaled by :attr:`contention`.
        """
        if resident_per_sm < 1 or full_occupancy < 1:
            raise WorkloadError("occupancy values must be >= 1")
        if resident_per_sm > full_occupancy:
            raise WorkloadError(
                f"packing {resident_per_sm} exceeds occupancy {full_occupancy}"
            )
        if self.contention == 0.0 or full_occupancy == 1:
            return 1.0
        c = self.contention
        frac = (resident_per_sm - 1) / (full_occupancy - 1)
        return (1.0 + c * frac) / (1.0 + c)

    # ------------------------------------------------------------------
    # kernel images
    # ------------------------------------------------------------------
    def task_model(
        self,
        inp: InputSpec,
        with_jitter: bool = False,
        packing_factor: float = 1.0,
    ) -> TaskModel:
        mean = (
            self.task_time_us
            * inp.task_scale
            * (1.0 + inp.hidden_factor)
            * packing_factor
        )
        return TaskModel(
            mean_task_us=mean,
            cta_jitter_frac=self.cta_jitter if with_jitter else 0.0,
        )

    def original_image(
        self, inp: InputSpec, with_jitter: bool = False
    ) -> KernelImage:
        """Untransformed kernel image for input ``inp``."""
        return KernelImage(
            name=f"{self.name}[{inp.name}]",
            resources=self.resources,
            task_model=self.task_model(inp, with_jitter),
            mode=KernelMode.ORIGINAL,
        )

    def flep_image(
        self,
        inp: InputSpec,
        amortize_l: int,
        spatial: bool = True,
        with_jitter: bool = False,
        packing_factor: float = 1.0,
    ) -> KernelImage:
        """FLEP persistent-thread image with amortizing factor ``L``,
        one shared instance per argument tuple.

        ``packing_factor`` scales the task time for launches that run at
        lower-than-full SM occupancy (spatial guests, Figure 16)."""
        key = (inp, amortize_l, spatial, with_jitter, packing_factor)
        image = self._flep_images.get(key)
        if image is None:
            image = self._flep_images[key] = KernelImage(
                name=f"{self.name}[{inp.name}]__flep",
                resources=self.resources,
                task_model=self.task_model(inp, with_jitter, packing_factor),
                mode=KernelMode.PERSISTENT,
                amortize_l=amortize_l,
                supports_spatial=spatial,
            )
        return image

    def input(self, name: str) -> InputSpec:
        if name not in self.inputs:
            raise WorkloadError(
                f"{self.name}: unknown input {name!r} "
                f"(have {sorted(self.inputs)})"
            )
        return self.inputs[name]
