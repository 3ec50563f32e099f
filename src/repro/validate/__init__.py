"""Conformance subsystem: machine-checked correctness for the FLEP stack.

Three layers, each usable on its own:

* **Online invariant monitors** (:mod:`.monitors`) — attachable to any
  :class:`~repro.gpu.sim.Simulator` / :class:`~repro.gpu.gpu.SimulatedGPU`
  / :class:`~repro.runtime.engine.FlepRuntime` /
  :class:`~repro.core.flep.FlepSystem`. The device monitors join the
  device's ``listeners`` list and check what changed: SM resource
  budgets at each placement and retire, spatial ``%smid`` partitioning
  from each flag write, the task pools of launched grids. Event-time
  monotonicity, task conservation on the live pools and the HPF
  contract ride the simulator's ``set_trace`` hook, once per event; the
  FFS contract is checked at finalize. Each raises
  :class:`~repro.errors.InvariantViolation` the moment a state is illegal.
  Nothing is installed by default: an unmonitored run pays zero cost.

* **Differential oracles** (:mod:`.oracles`) — two independent executions
  that must agree: never-preempted temporal FLEP vs the raw
  persistent-thread baseline (timeline-identical), and oracle-model HPF
  vs a brute-force preemptive-priority/SRT schedule on small instances
  (completion-order-identical). Disagreement raises
  :class:`~repro.errors.OracleMismatch`.

* **A seed-minimizing workload fuzzer** (:mod:`.fuzz`, CLI ``flep
  fuzz``) — generates seeded random kernel mixes / arrival traces /
  preemption-inducing priorities across ``mps | flep-temporal |
  flep-spatial`` and all policies, runs each case under the monitors and
  (where applicable) the oracles, and shrinks any failure to a minimal
  reproducer replayable with a one-line ``flep fuzz --replay TOKEN``.
"""

from ..errors import InvariantViolation, OracleMismatch, ValidationError
from .fleet import (
    FleetConformanceMonitor,
    FleetMonitorBundle,
    install_fleet_monitor,
)
from .fuzz import (
    FleetFuzzCase,
    FuzzCase,
    FuzzFailure,
    FuzzJob,
    FuzzReport,
    FuzzResult,
    decode_case,
    encode_case,
    fuzz,
    generate_case,
    generate_fleet_case,
    run_case,
    shrink,
)
from .monitors import (
    FFSShareMonitor,
    HPFContractMonitor,
    Monitor,
    MonitorSet,
    MonotonicTimeMonitor,
    ResourceBudgetMonitor,
    SpatialPartitionMonitor,
    WorkConservationMonitor,
    install_monitors,
)
from .oracles import (
    DifferentialReport,
    assert_hpf_matches_brute_force,
    assert_temporal_matches_baseline,
    hpf_differential,
    hpf_reference_order,
    temporal_differential,
)

__all__ = [
    "ValidationError",
    "InvariantViolation",
    "OracleMismatch",
    # monitors
    "Monitor",
    "MonitorSet",
    "ResourceBudgetMonitor",
    "WorkConservationMonitor",
    "MonotonicTimeMonitor",
    "SpatialPartitionMonitor",
    "HPFContractMonitor",
    "FFSShareMonitor",
    "install_monitors",
    # fleet
    "FleetConformanceMonitor",
    "FleetMonitorBundle",
    "install_fleet_monitor",
    # oracles
    "DifferentialReport",
    "temporal_differential",
    "assert_temporal_matches_baseline",
    "hpf_reference_order",
    "hpf_differential",
    "assert_hpf_matches_brute_force",
    # fuzz
    "FuzzJob",
    "FuzzCase",
    "FleetFuzzCase",
    "FuzzResult",
    "FuzzFailure",
    "FuzzReport",
    "generate_case",
    "generate_fleet_case",
    "run_case",
    "shrink",
    "fuzz",
    "encode_case",
    "decode_case",
]
