"""Kernel images, launch configurations and task pools.

Terminology follows §2.1/§4.1 of the paper:

* A **task** is the work one CTA performs in the *original* kernel.
* An **original** launch creates one CTA per task; the hardware FIFO
  dispatches them and blocks every later kernel until its queue drains.
* A **persistent** (FLEP-transformed) launch creates only
  ``num_SMs * max_CTAs_per_SM`` CTAs; each loops pulling tasks from a
  global counter and polls a pinned-memory flag every ``L`` tasks.

The simulator executes both through the same machinery: a
:class:`TaskPool` (the global task counter) drained by resident CTA
contexts (:mod:`repro.gpu.cta`). For original kernels the pool simply
*is* the hardware CTA queue, with zero pull/poll cost and no flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import ResourceError, SimulationError


class KernelMode(enum.Enum):
    """How a kernel image executes on the device."""

    ORIGINAL = "original"          # one CTA per task, non-preemptable
    PERSISTENT = "persistent"      # FLEP-transformed, flag-aware


@dataclass(frozen=True)
class ResourceUsage:
    """Per-CTA hardware footprint, as derived by the compiler's linear
    scan of the generated PTX (§4.1)."""

    threads_per_cta: int = 256
    regs_per_thread: int = 32
    shared_mem_per_cta: int = 0

    def __post_init__(self):
        if self.threads_per_cta <= 0:
            raise ResourceError("threads_per_cta must be positive")
        if self.regs_per_thread < 0 or self.shared_mem_per_cta < 0:
            raise ResourceError("negative resource usage")


@dataclass(frozen=True)
class TaskModel:
    """Timing model for one task of a kernel.

    ``mean_task_us`` is the average wall time one CTA needs for one task
    when running at full occupancy. ``cta_jitter_frac`` models
    input-dependent irregularity (e.g. SPMV's non-zero distribution): each
    CTA context draws a multiplier in ``[1 - j, 1 + j]`` when it starts.
    """

    mean_task_us: float
    cta_jitter_frac: float = 0.0

    def __post_init__(self):
        if self.mean_task_us <= 0:
            raise SimulationError("mean_task_us must be positive")
        if not 0.0 <= self.cta_jitter_frac < 1.0:
            raise SimulationError("cta_jitter_frac must be in [0, 1)")

    def sample_multiplier(self, rng) -> float:
        """Per-context task-time multiplier (1.0 when jitter disabled)."""
        if self.cta_jitter_frac == 0.0 or rng is None:
            return 1.0
        return 1.0 + rng.uniform(-self.cta_jitter_frac, self.cta_jitter_frac)


@dataclass(frozen=True)
class KernelImage:
    """An executable kernel binary, as loaded on the simulated device.

    The FLEP compiler produces ``PERSISTENT`` images (with an amortizing
    factor); untransformed programs produce ``ORIGINAL`` images.
    """

    name: str
    resources: ResourceUsage
    task_model: TaskModel
    mode: KernelMode = KernelMode.ORIGINAL
    amortize_l: int = 1
    supports_spatial: bool = False

    def __post_init__(self):
        if self.amortize_l < 1:
            raise SimulationError("amortizing factor L must be >= 1")
        if self.mode is KernelMode.ORIGINAL and self.supports_spatial:
            raise SimulationError("original kernels cannot yield SMs")

    def transformed(self, amortize_l: int, spatial: bool = True) -> "KernelImage":
        """Return the FLEP persistent-thread form of this image."""
        return KernelImage(
            name=f"{self.name}__flep",
            resources=self.resources,
            task_model=self.task_model,
            mode=KernelMode.PERSISTENT,
            amortize_l=amortize_l,
            supports_spatial=spatial,
        )


@dataclass(frozen=True)
class LaunchConfig:
    """Grid configuration for one kernel invocation.

    ``total_tasks`` is the original grid size (number of tasks);
    ``grid_ctas`` is how many CTAs the launch actually creates — equal to
    ``total_tasks`` for original kernels, clamped to the device's active
    capacity for persistent kernels.
    """

    total_tasks: int
    grid_ctas: int

    def __post_init__(self):
        if self.total_tasks < 0:
            raise SimulationError("total_tasks cannot be negative")
        if self.grid_ctas < 0:
            raise SimulationError("grid_ctas cannot be negative")
        if self.grid_ctas > self.total_tasks:
            raise SimulationError(
                f"grid launches {self.grid_ctas} CTAs for only "
                f"{self.total_tasks} tasks"
            )

    @staticmethod
    def original(total_tasks: int) -> "LaunchConfig":
        return LaunchConfig(total_tasks=total_tasks, grid_ctas=total_tasks)

    @staticmethod
    def persistent(total_tasks: int, active_slots: int) -> "LaunchConfig":
        """FLEP's clamp: launch ``min(tasks, num_SMs*max_CTAs_per_SM)``
        CTAs so every launched CTA is guaranteed active (§4.1)."""
        return LaunchConfig(
            total_tasks=total_tasks,
            grid_ctas=min(total_tasks, active_slots),
        )


class TaskPool:
    """The global task counter persistent CTAs pull from.

    The simulator lets CTA contexts *take* batches of tasks (for event
    batching) and *give back* the unprocessed remainder when preempted, so
    task conservation holds exactly: ``done + outstanding + remaining ==
    total`` at all times. A pool can be shared across launches — this is
    how a preempted kernel resumes with only its remaining tasks.
    """

    __slots__ = (
        "total", "_remaining", "_outstanding", "_done", "_workers",
        "_grids", "_cohort",
    )

    def __init__(self, total: int):
        if total < 0:
            raise SimulationError("task pool size cannot be negative")
        self.total = total
        self._remaining = total
        self._outstanding = 0
        self._done = 0
        self._workers = 0
        #: grid -> live worker count; lets a macro cohort enumerate
        #: every grid draining this pool (resume / top-up sharing)
        self._grids: dict = {}
        #: active macro-event cohort draining this pool, if any
        #: (repro.gpu.macro). The cohort commits its precomputed steps
        #: lazily; the public properties below sync it first so every
        #: external observer sees exactly the state the per-batch
        #: reference loop would show at this simulated time.
        self._cohort = None

    def _sync_cohort(self) -> None:
        c = self._cohort
        if c is not None:
            c.sync(c.sim._now)

    # -- queries -------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Tasks not yet claimed by any CTA context."""
        self._sync_cohort()
        return self._remaining

    @property
    def outstanding(self) -> int:
        """Tasks claimed by running contexts but not yet finished."""
        self._sync_cohort()
        return self._outstanding

    @property
    def done(self) -> int:
        self._sync_cohort()
        return self._done

    @property
    def unfinished(self) -> int:
        """Tasks that still must run for the kernel to complete."""
        self._sync_cohort()
        return self._remaining + self._outstanding

    @property
    def exhausted(self) -> bool:
        """True when ``pull_task()`` would return NULL (Figure 4)."""
        self._sync_cohort()
        return self._remaining == 0

    @property
    def complete(self) -> bool:
        self._sync_cohort()
        return self._done == self.total

    def counts(self) -> Tuple[int, int, int]:
        """``(done, outstanding, remaining)`` after one cohort sync — a
        consistent snapshot for observers that read all three."""
        self._sync_cohort()
        return self._done, self._outstanding, self._remaining

    @property
    def workers(self) -> int:
        """CTA contexts currently pulling from this pool — possibly
        spread over several grids (a resumed or topped-up invocation).
        Guided batch sizing must use this pool-wide concurrency, not a
        single grid's width, or late-joining grids over-claim."""
        return self._workers

    def worker_joined(self, grid=None) -> None:
        # a foreign worker (resume / top-up grid sharing this pool)
        # invalidates a cohort's precomputed widths: fall back to
        # per-batch eventing before the join is visible
        c = self._cohort
        if c is not None:
            c.dissolve(c.sim._now)
        self._workers += 1
        if grid is not None:
            self._grids[grid] = self._grids.get(grid, 0) + 1

    def worker_left(self, grid=None) -> None:
        if self._workers <= 0:
            raise SimulationError("worker_left() without matching join")
        self._workers -= 1
        if grid is not None:
            left = self._grids.get(grid, 0) - 1
            if left > 0:
                self._grids[grid] = left
            else:
                self._grids.pop(grid, None)

    # -- mutations -----------------------------------------------------
    def take(self, n: int) -> int:
        """Claim up to ``n`` tasks; returns how many were claimed."""
        c = self._cohort
        if c is not None:
            c.dissolve(c.sim._now)
        if n < 0:
            raise SimulationError("cannot take a negative batch")
        got = min(n, self._remaining)
        self._remaining -= got
        self._outstanding += got
        return got

    def finish(self, n: int) -> None:
        """Report ``n`` claimed tasks as processed."""
        c = self._cohort
        if c is not None:
            c.dissolve(c.sim._now)
        if n < 0 or n > self._outstanding:
            raise SimulationError(
                f"finishing {n} tasks but only {self._outstanding} outstanding"
            )
        self._outstanding -= n
        self._done += n

    def give_back(self, n: int) -> None:
        """Return ``n`` claimed-but-unprocessed tasks (preemption path)."""
        c = self._cohort
        if c is not None:
            c.dissolve(c.sim._now)
        if n < 0 or n > self._outstanding:
            raise SimulationError(
                f"giving back {n} tasks but only {self._outstanding} outstanding"
            )
        self._outstanding -= n
        self._remaining += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskPool(total={self.total}, done={self._done}, "
            f"out={self._outstanding}, rem={self._remaining})"
        )


def guided_claim(remaining: int, width2: int, L_grid: int) -> int:
    """The simulator's guided claim: ``ceil(remaining / width2)`` tasks
    (``width2`` = 2 * claiming width) for ``remaining > 0``, clamped to
    ``[1, remaining]``. A persistent grid passes its ``L`` as
    ``L_grid``: batches stay multiples of L so poll boundaries are
    exact, except near the tail where sub-L batches are allowed — real
    CTAs pull one task at a time, so work distribution is task-granular
    even though polls are L-spaced. ``L_grid`` 0 (a non-persistent
    grid) skips that clamp. A context's own claim and the macro
    replay both size claims here, so their sizes are identical."""
    size = math.ceil(remaining / width2)
    if size < 1:
        size = 1
    if size > remaining:
        size = remaining
    if L_grid and size > L_grid:
        size = (size // L_grid) * L_grid
    if size > remaining:
        size = remaining
    return size
