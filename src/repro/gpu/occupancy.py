"""CUDA occupancy arithmetic for the simulated device.

Implements the occupancy-calculator rules for compute capability 3.5
(the K40): a CTA's register and shared-memory footprints are rounded up
to allocation granularities, and the per-SM active-CTA limit is the
minimum over the CTA-slot, thread, warp, register and shared-memory
constraints. §4.1 of the paper relies on this to size persistent-thread
launches (``num_SMs * max_CTAs_per_SM``) so that *every* launched CTA is
guaranteed active.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import OccupancyError
from .device import GPUDeviceSpec
from .kernel import ResourceUsage


def ceil_to(value: int, granularity: int) -> int:
    """Round ``value`` up to a multiple of ``granularity``."""
    if granularity <= 0:
        raise OccupancyError(f"granularity must be positive, got {granularity}")
    if value <= 0:
        return 0
    return int(math.ceil(value / granularity)) * granularity


#: (warps, regs, smem) per CTA, cached per (usage, spec) — both are
#: frozen/hashable, and a workload uses a handful of distinct pairs.
_FOOTPRINTS: Dict[Tuple[ResourceUsage, GPUDeviceSpec], Tuple[int, int, int]] = {}


def cta_footprint(
    usage: ResourceUsage, spec: GPUDeviceSpec
) -> Tuple[int, int, int]:
    """Rounded ``(warps, regs, smem)`` one CTA of ``usage`` charges on an
    SM of ``spec``. Memoized: admit *and* release of every CTA ask for
    the same few footprints — and :func:`occupancy_report` derives its
    per-CTA numbers from the same entry, so reported occupancy can never
    drift from the admission screen's arithmetic."""
    key = (usage, spec)
    fp = _FOOTPRINTS.get(key)
    if fp is None:
        warps = -(-usage.threads_per_cta // spec.warp_size)
        regs = (
            ceil_to(
                usage.regs_per_thread * spec.warp_size,
                spec.register_alloc_unit,
            )
            * warps
        )
        smem = ceil_to(usage.shared_mem_per_cta, spec.shared_mem_alloc_unit)
        fp = _FOOTPRINTS[key] = (warps, regs, smem)
    return fp


@dataclass(frozen=True)
class OccupancyReport:
    """Breakdown of the per-SM active-CTA limit by constraining resource."""

    ctas_per_sm: int
    limit_slots: int
    limit_threads: int
    limit_warps: int
    limit_registers: int
    limit_shared_mem: int
    warps_per_cta: int
    regs_per_cta: int
    shared_per_cta: int

    @property
    def limiter(self) -> str:
        """Name of the binding constraint (useful in diagnostics)."""
        limits = {
            "cta_slots": self.limit_slots,
            "threads": self.limit_threads,
            "warps": self.limit_warps,
            "registers": self.limit_registers,
            "shared_mem": self.limit_shared_mem,
        }
        return min(limits, key=lambda k: limits[k])


#: report cache keyed on (spec, usage) — both frozen dataclasses. Every
#: Grid construction recomputes its occupancy; a workload launches many
#: grids over a handful of distinct (spec, usage) pairs.
_REPORTS: Dict[Tuple[GPUDeviceSpec, ResourceUsage], OccupancyReport] = {}


def occupancy_report(spec: GPUDeviceSpec, usage: ResourceUsage) -> OccupancyReport:
    """Compute how many CTAs of ``usage`` one SM of ``spec`` can host."""
    key = (spec, usage)
    cached = _REPORTS.get(key)
    if cached is not None:
        return cached
    report = _occupancy_report_uncached(spec, usage)
    _REPORTS[key] = report
    return report


def _occupancy_report_uncached(
    spec: GPUDeviceSpec, usage: ResourceUsage
) -> OccupancyReport:
    if usage.threads_per_cta > spec.max_threads_per_cta:
        raise OccupancyError(
            f"CTA of {usage.threads_per_cta} threads exceeds device limit "
            f"{spec.max_threads_per_cta}"
        )
    if usage.regs_per_thread > spec.max_registers_per_thread:
        raise OccupancyError(
            f"{usage.regs_per_thread} registers/thread exceeds device limit "
            f"{spec.max_registers_per_thread}"
        )
    if usage.shared_mem_per_cta > spec.shared_mem_per_sm:
        raise OccupancyError(
            f"CTA shared memory {usage.shared_mem_per_cta} exceeds the SM's "
            f"{spec.shared_mem_per_sm} bytes"
        )

    # the one shared footprint entry the SM admission screen also uses
    warps_per_cta, regs_per_cta, shared_per_cta = cta_footprint(usage, spec)

    limit_slots = spec.max_ctas_per_sm
    limit_threads = spec.max_threads_per_sm // usage.threads_per_cta
    limit_warps = spec.max_warps_per_sm // warps_per_cta
    limit_regs = (
        spec.registers_per_sm // regs_per_cta if regs_per_cta else limit_slots
    )
    limit_smem = (
        spec.shared_mem_per_sm // shared_per_cta if shared_per_cta else limit_slots
    )

    ctas = min(limit_slots, limit_threads, limit_warps, limit_regs, limit_smem)
    if ctas <= 0:
        raise OccupancyError(
            f"kernel CTA ({usage}) cannot be hosted by one SM of {spec.name}"
        )
    return OccupancyReport(
        ctas_per_sm=ctas,
        limit_slots=limit_slots,
        limit_threads=limit_threads,
        limit_warps=limit_warps,
        limit_registers=limit_regs,
        limit_shared_mem=limit_smem,
        warps_per_cta=warps_per_cta,
        regs_per_cta=regs_per_cta,
        shared_per_cta=shared_per_cta,
    )


def max_ctas_per_sm(spec: GPUDeviceSpec, usage: ResourceUsage) -> int:
    """Shorthand for ``occupancy_report(...).ctas_per_sm``."""
    return occupancy_report(spec, usage).ctas_per_sm


def active_slots(spec: GPUDeviceSpec, usage: ResourceUsage) -> int:
    """Device-wide guaranteed-active CTA count for a persistent launch:
    ``num_SMs * max_CTAs_per_SM`` (§4.1)."""
    return spec.num_sms * max_ctas_per_sm(spec, usage)


def sms_needed(spec: GPUDeviceSpec, usage: ResourceUsage, ctas: int) -> int:
    """How many SMs are required to host ``ctas`` CTAs simultaneously.

    This is what FLEP's spatial preemption computes for the waiting
    kernel: preempt *just enough* SMs (§2.2, §6.4).
    """
    if ctas <= 0:
        return 0
    per_sm = max_ctas_per_sm(spec, usage)
    return min(spec.num_sms, math.ceil(ctas / per_sm))
