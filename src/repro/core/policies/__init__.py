"""FLEP scheduling policies: HPF and FFS (the paper's two), EDF-within-
priority (the serving layer's deadline-aware policy, an HPF subclass),
FIFO (Figure 14's no-preemption reference and the temporal oracle's
policy), and a kernel-reordering policy that only the fuzzer draws
(Figure 12's reordering baseline is ``baselines/reordering.py``)."""

from .base import SchedulingPolicy
from .edf import EDFPolicy
from .ffs import FFSPolicy
from .fifo import FIFOPolicy
from .hpf import HPFPolicy
from .reorder import ReorderPolicy

POLICIES = {
    "hpf": HPFPolicy,
    "ffs": FFSPolicy,
    "fifo": FIFOPolicy,
    "reorder": ReorderPolicy,
    "edf": EDFPolicy,
}

__all__ = [
    "SchedulingPolicy",
    "EDFPolicy",
    "FFSPolicy",
    "FIFOPolicy",
    "HPFPolicy",
    "ReorderPolicy",
    "POLICIES",
]
