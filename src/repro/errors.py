"""Exception hierarchy for the FLEP reproduction.

All exceptions raised by :mod:`repro` derive from :class:`ReproError`, so
callers can catch the library's failures with a single ``except`` clause
while still distinguishing subsystem-specific conditions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class SimulationError(ReproError):
    """The discrete-event simulator was driven into an invalid state."""


class SchedulingError(SimulationError):
    """A scheduling decision violated an invariant (e.g. double dispatch)."""


class ResourceError(SimulationError):
    """An SM or device resource budget was exceeded or under-released."""


class CompilationError(ReproError):
    """The FLEP source-to-source compiler rejected the input program."""


class ParseError(CompilationError):
    """Syntax error in the CUDA-C subset accepted by the frontend."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class TransformError(CompilationError):
    """A kernel/host transform could not be applied to the parsed program."""


class OccupancyError(CompilationError):
    """A launch configuration cannot be hosted by the target device at all."""


class RuntimeEngineError(ReproError):
    """The FLEP online runtime engine hit an inconsistent state."""


class ModelError(RuntimeEngineError):
    """A performance model could not be trained or evaluated."""


class WorkloadError(ReproError):
    """A benchmark/workload definition or calibration is invalid."""


class ExperimentError(ReproError):
    """An experiment harness was configured inconsistently."""


class ServingError(ReproError):
    """The multi-tenant serving layer was misconfigured or misused."""


class FleetError(ReproError):
    """The multi-GPU fleet layer (dispatcher, routing, work stealing)
    was misconfigured or driven into an invalid state."""


class ObservabilityError(ReproError):
    """Invalid metric/span registration, observation, or export."""


class ValidationError(ReproError):
    """The conformance subsystem (:mod:`repro.validate`) found a problem."""


class InvariantViolation(ValidationError):
    """An online invariant monitor observed an illegal system state.

    Carries machine-readable ``context`` (monitor name, simulated time,
    offending values) so the fuzzer can report and shrink failures.
    """

    def __init__(self, message: str, **context):
        self.context = dict(context)
        if context:
            details = ", ".join(f"{k}={v}" for k, v in context.items())
            message = f"{message} [{details}]"
        super().__init__(message)


class OracleMismatch(ValidationError):
    """A differential oracle found two executions that should agree but
    do not (e.g. never-preempted temporal FLEP vs the persistent-thread
    baseline)."""
