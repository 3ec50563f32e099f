"""Discrete-event GPU simulator substrate.

Reproduces the scheduling-relevant behaviour of the paper's testbed (a
Tesla K40 under CUDA 7.0 + MPS): SM occupancy limits, the non-preemptive
hardware CTA FIFO, streams, pinned-memory flag polling, launch overhead
and PCIe transfers. See DESIGN.md §2/§4 for the substitution argument
and the event-batching design.
"""

from .cta import CTAContext, CTAState
from .device import CostModel, GPUDeviceSpec, small_test_gpu, tesla_k40
from .events import Event
from .gpu import SimulatedGPU
from .grid import Grid, GridState
from .host import (
    CopyToDevice,
    CopyToHost,
    HostCompute,
    HostProgram,
    KernelInvoke,
)
from .kernel import (
    KernelImage,
    KernelMode,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from .memory import PinnedFlag, should_yield
from .occupancy import (
    OccupancyReport,
    active_slots,
    max_ctas_per_sm,
    occupancy_report,
    sms_needed,
)
from .sim import Simulator
from .sm import SM
from .stream import Stream
from .trace import Interval, Timeline
from .transfer import DMAEngine, Direction

__all__ = [
    "CTAContext",
    "CTAState",
    "CostModel",
    "GPUDeviceSpec",
    "small_test_gpu",
    "tesla_k40",
    "Event",
    "SimulatedGPU",
    "Grid",
    "GridState",
    "CopyToDevice",
    "CopyToHost",
    "HostCompute",
    "HostProgram",
    "KernelInvoke",
    "KernelImage",
    "KernelMode",
    "LaunchConfig",
    "ResourceUsage",
    "TaskModel",
    "TaskPool",
    "PinnedFlag",
    "should_yield",
    "OccupancyReport",
    "active_slots",
    "max_ctas_per_sm",
    "occupancy_report",
    "sms_needed",
    "Simulator",
    "SM",
    "Stream",
    "Interval",
    "Timeline",
    "DMAEngine",
    "Direction",
]
