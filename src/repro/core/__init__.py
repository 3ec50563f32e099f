"""FLEP's core: the runtime-facing facade, Figure 5's interception state
machine, and the scheduling policies."""

from .flep import CoRunResult, FlepSystem
from .interception import CPUState, InterceptedProcess
from .policies import (
    FFSPolicy,
    FIFOPolicy,
    HPFPolicy,
    POLICIES,
    ReorderPolicy,
    SchedulingPolicy,
)

__all__ = [
    "CoRunResult",
    "FlepSystem",
    "CPUState",
    "InterceptedProcess",
    "FFSPolicy",
    "FIFOPolicy",
    "HPFPolicy",
    "POLICIES",
    "ReorderPolicy",
    "SchedulingPolicy",
]
