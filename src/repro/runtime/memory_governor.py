"""Device-memory admission control.

§8: "FLEP currently assumes the combined working set can fit into the
device memory" (and points to GPUSwap as future work for the rest).
This module makes that assumption *explicit and enforced*: each
invocation declares a device-memory footprint; the governor admits an
invocation only when its footprint fits, and otherwise parks it until
memory frees. Parked invocations reach the scheduling policy only after
admission, so the policy never sees work it could not run.

Footprints for the eight benchmarks are representative per-input values
(`repro.workloads.footprints`); the governor itself is workload-
agnostic.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Tuple

from ..errors import MemoryError_, RuntimeEngineError
from ..gpu.memory import DeviceMemory


class MemoryGovernor:
    """Admission control over a :class:`DeviceMemory`."""

    def __init__(self, memory: DeviceMemory):
        self.memory = memory
        self._held: Dict[int, int] = {}          # inv_id -> alloc handle
        self._parked: Deque[Tuple[object, int, Callable[[], None]]] = deque()
        self.admissions = 0
        self.parkings = 0

    # ------------------------------------------------------------------
    def try_admit(
        self, inv, footprint_bytes: int, on_admitted: Callable[[], None]
    ) -> bool:
        """Admit ``inv`` if its working set fits; else park it.

        ``on_admitted`` runs immediately on success, or later when
        enough memory is released. Returns True iff admitted now.
        """
        if footprint_bytes < 0:
            raise MemoryError_("footprint cannot be negative")
        if inv.inv_id in self._held:
            raise RuntimeEngineError(f"{inv} admitted twice")
        if footprint_bytes > self.memory.capacity:
            raise MemoryError_(
                f"{inv}: working set of {footprint_bytes} bytes can never "
                f"fit in {self.memory.capacity} bytes of device memory "
                "(the paper defers this to GPUSwap-style oversubscription)"
            )
        if footprint_bytes <= self.memory.free and not self._parked:
            self._admit(inv, footprint_bytes)
            on_admitted()
            return True
        self.parkings += 1
        self._parked.append((inv, footprint_bytes, on_admitted))
        return False

    def release(self, inv) -> None:
        """Free an invocation's working set (it finished) and admit as
        many parked invocations as now fit (FIFO)."""
        handle = self._held.pop(inv.inv_id, None)
        if handle is not None:
            self.memory.free_alloc(handle)
        self._drain_parked()

    # ------------------------------------------------------------------
    def _admit(self, inv, footprint_bytes: int) -> None:
        handle = self.memory.alloc(
            footprint_bytes, label=f"inv{inv.inv_id}"
        )
        self._held[inv.inv_id] = handle
        self.admissions += 1

    def _drain_parked(self) -> None:
        while self._parked:
            inv, footprint, on_admitted = self._parked[0]
            if footprint > self.memory.free:
                return  # strict FIFO: no bypass of the queue head
            self._parked.popleft()
            self._admit(inv, footprint)
            on_admitted()

