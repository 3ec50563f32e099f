"""Load generation for the serving layer.

:class:`PoissonLoadGen` materialises an open-loop
:class:`~repro.workloads.synthetic.ArrivalTrace` up front — the offered
load does not react to service times, exactly how a population of
independent users behaves (§2.2's query stream). :func:`merge_traces`
folds several tenants' traces into one time-sorted stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ..errors import ServingError
from ..workloads.synthetic import Arrival, ArrivalTrace


@dataclass
class PoissonLoadGen:
    """Memoryless open-loop arrivals for one tenant."""

    tenant: str
    kernels: Sequence[str]
    rate_per_ms: float
    duration_ms: float
    seed: int = 0
    input_names: Sequence[str] = ("small",)
    priority: int = 0

    def generate(self) -> ArrivalTrace:
        """Materialise the arrival trace (deterministic per seed)."""
        if self.rate_per_ms <= 0 or self.duration_ms <= 0:
            raise ServingError("rate and duration must be positive")
        if not self.kernels:
            raise ServingError("PoissonLoadGen needs at least one kernel")
        rng = random.Random(self.seed)
        t = 0.0
        trace = ArrivalTrace()
        horizon = self.duration_ms * 1000.0
        while True:
            t += rng.expovariate(self.rate_per_ms) * 1000.0
            if t > horizon:
                break
            trace.arrivals.append(
                Arrival(
                    at_us=t,
                    kernel_name=rng.choice(list(self.kernels)),
                    input_name=rng.choice(list(self.input_names)),
                    priority=self.priority,
                    tenant=self.tenant,
                )
            )
        return trace


def merge_traces(*traces: ArrivalTrace) -> ArrivalTrace:
    """One time-sorted trace from several per-tenant traces."""
    merged = ArrivalTrace()
    for trace in traces:
        merged.arrivals.extend(trace.arrivals)
    merged.arrivals.sort(key=lambda a: a.at_us)
    return merged
