"""FLEP's online phase: duration models, execution logging, priority
queues, preemption-overhead estimation, and the runtime engine."""

from .engine import FlepRuntime, KernelInvocation, RuntimeConfig
from .models import (
    KernelPerformanceModel,
    ModelBank,
    OracleModelBank,
    RidgeModel,
    evaluate_model,
    train_kernel_model,
)
from .profiler import (
    OverheadEstimates,
    analytic_preemption_overhead,
    profile_preemption_overhead,
)
from .queues import PriorityQueues
from .tracker import (
    ExecutionRecord,
    InvocationState,
    MIN_REMAINING_US,
)

__all__ = [
    "FlepRuntime",
    "KernelInvocation",
    "RuntimeConfig",
    "KernelPerformanceModel",
    "ModelBank",
    "OracleModelBank",
    "RidgeModel",
    "evaluate_model",
    "train_kernel_model",
    "OverheadEstimates",
    "analytic_preemption_overhead",
    "profile_preemption_overhead",
    "PriorityQueues",
    "ExecutionRecord",
    "InvocationState",
    "MIN_REMAINING_US",
]
