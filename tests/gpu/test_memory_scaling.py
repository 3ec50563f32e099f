"""Memory stays flat per request as a trace grows.

A finished grid stays reachable from its invocation (reports read it),
so whatever per-CTA state it keeps after finishing grows with the trace.
One small fleet trace runs at two lengths; the bytes the run leaves
allocated, divided by the requests the longer run adds, must stay under
a fixed bound, and no CTA context may outlive either run.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.fleet import FleetConfig, FleetSystem
from repro.gpu.cta import CTAContext
from repro.serving import PoissonLoadGen, Tenant

#: Bytes a run may keep per added request, about twice what a run keeps
#: now: ~3.4 KB (one request record, the invocation and its grids).
#: Grids that kept their peak per-CTA state after finishing cost ~36 KB
#: per request on this trace.
MAX_RETAINED_PER_REQUEST = 7 * 1024


def small_fleet(suite, duration_ms):
    """Two flep-spatial nodes under two steady Poisson tenants."""
    fleet = FleetSystem(
        [Tenant("web", priority=1, slo_us=4_000.0),
         Tenant("batch", priority=0)],
        FleetConfig(node_modes=("flep-spatial", "flep-spatial"), seed=7),
        device=suite.device, suite=suite,
    )
    for tenant, priority, seed in (("web", 1, 7), ("batch", 0, 8)):
        fleet.add_generator(PoissonLoadGen(
            tenant=tenant, kernels=("SPMV", "MM", "PL"), rate_per_ms=0.4,
            duration_ms=duration_ms, seed=seed, priority=priority,
        ))
    return fleet


def live_contexts() -> int:
    return sum(isinstance(o, CTAContext) for o in gc.get_objects())


def run_retained(suite, duration_ms):
    """(requests, bytes left allocated by the run, live contexts)."""
    fleet = small_fleet(suite, duration_ms)
    gc.collect()
    tracemalloc.start()
    try:
        fleet.run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return len(fleet.tracker.requests), retained, live_contexts()


def test_retained_memory_per_request_stays_flat(suite):
    # a warm-up run fills the suite's one-off caches (models, prediction
    # memos), so neither measured run pays them
    small_fleet(suite, 20.0).run()
    short_reqs, short_bytes, short_live = run_retained(suite, 40.0)
    long_reqs, long_bytes, long_live = run_retained(suite, 120.0)
    assert (short_live, long_live) == (0, 0)
    assert long_reqs > 2 * short_reqs, (short_reqs, long_reqs)
    per_request = (long_bytes - short_bytes) / (long_reqs - short_reqs)
    assert per_request <= MAX_RETAINED_PER_REQUEST, (
        f"{per_request:.0f} B retained per added request "
        f"({short_reqs} -> {long_reqs} requests)"
    )
