"""Observability overhead: the disabled (null-recorder) hot path.

The instrumentation contract is that an unobserved system pays only one
guard check per hook site: the simulator event loop, the CTA batch
completion and the macro cohort sync each check one hub
(``if obs.enabled:``), and CTA placement and retire each check the
device's listener list (``if listeners:``), which a hub joins only when
it is given the device. This bench times the guard directly, counts how
often the hot sites actually fire in a representative co-run, and
asserts the extrapolated guard cost stays under 2 % of the co-run's
wall time. Both sides take the same statistic — the minimum over
alternating repeated rounds — so a host slowdown during one
measurement cannot inflate one side only. A second bench records the
cost of running fully observed, for the report.
"""

import time
import timeit

from repro.core.flep import FlepSystem
from repro.obs import NULL_OBS
from repro.runtime.engine import RuntimeConfig

ROUNDS = 5


def _run_pair(**kwargs):
    """The canonical temporal-preemption co-run (NN preempted by SPMV)."""
    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True), **kwargs
    )
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(200.0, "high", "SPMV", "small", priority=1)
    system.run()
    return system


def _guard_cost_us() -> float:
    """Measured cost of one ``obs.enabled`` guard check (µs), averaged
    over one timeit batch."""

    class HotObject:
        obs = NULL_OBS

    hot = HotObject()
    n = 200_000
    total_s = timeit.timeit(lambda: hot.obs.enabled, number=n)
    return total_s / n * 1e6


def _guarded_sites_fired(system) -> float:
    """How many guard checks the null path would have evaluated, counted
    from a fully-observed run of the same scenario: one per simulator
    event, one per completed batch (CTA hot loop), two per CTA context
    (the listener-list checks at placement and retire), plus a handful
    of engine-side lifecycle hooks."""
    m = system.obs
    batches = m.m_sim_events.value(kind="batch")
    return (
        m.m_sim_events.total
        + batches
        + 2 * m.m_cta_admissions.total
        + 4 * m.m_invocations.total
        + 20  # queue-depth / launch / preemption hooks, generously
    )


def test_null_hub_guard_overhead_under_2_percent(benchmark):
    """No hub installed: the extrapolated cost of the one guard per hot
    site must stay under 2 % of the co-run. Guard cost and co-run wall
    time are each the minimum over ``ROUNDS`` alternating rounds:
    best-of-N strips scheduler noise from both sides alike."""
    benchmark.pedantic(_run_pair, rounds=3, iterations=1, warmup_rounds=1)
    guard_us = null_wall_us = float("inf")
    for _ in range(ROUNDS):
        guard_us = min(guard_us, _guard_cost_us())
        t0 = time.perf_counter()
        system = _run_pair()
        null_wall_us = min(null_wall_us, (time.perf_counter() - t0) * 1e6)
    assert system.obs is NULL_OBS and system.gpu.prof is NULL_OBS
    assert not system.gpu.listeners

    observed = _run_pair(observability=True)
    sites = _guarded_sites_fired(observed)
    guard_total_us = sites * guard_us

    overhead = guard_total_us / null_wall_us
    assert overhead < 0.02, (
        f"null-hub guards cost {guard_total_us:.0f}us over {sites:.0f} "
        f"sites = {overhead:.2%} of the {null_wall_us:.0f}us co-run"
    )


def test_observed_run_records_everything(benchmark):
    system = benchmark.pedantic(
        lambda: _run_pair(observability=True),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert system.obs.m_finished.total == 2
    assert system.obs.m_preempt_done.value(kind="temporal") == 1
    assert not system.obs.tracer.open_spans()
    assert system.obs.task_pulls > 0 and system.obs.sm_samples
