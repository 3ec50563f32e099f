"""Conformance-monitor overhead.

The contract is that an unmonitored run pays *zero* cost: nothing hooks
``Simulator.set_trace`` or joins ``SimulatedGPU.listeners`` unless
``install_monitors`` is called, so the engine's per-event cost is the
single ``if self._trace is not None`` guard it always had, and the
device's is one empty-list guard per placement, retire, launch and
terminal. This bench verifies the uninstalled path stays hook-free,
times the guard directly, and records the monitored run's cost for the
report."""

import statistics
import time
import timeit

from repro.core.flep import FlepSystem
from repro.runtime.engine import RuntimeConfig
from repro.validate import install_monitors


def _run_pair(monitored: bool = False):
    """The canonical temporal-preemption co-run (NN preempted by SPMV)."""
    system = FlepSystem(
        policy="hpf", config=RuntimeConfig(oracle_model=True)
    )
    monitors = install_monitors(system) if monitored else None
    system.submit_at(0.0, "low", "NN", "large", priority=0)
    system.submit_at(200.0, "high", "SPMV", "small", priority=1)
    system.run()
    if monitors is not None:
        monitors.finalize()
        monitors.uninstall()
    return system


def _guard_cost_us() -> float:
    """Measured cost of one ``_trace is not None`` check (µs)."""

    class HotObject:
        _trace = None

    hot = HotObject()
    n = 200_000
    total_s = timeit.timeit(lambda: hot._trace is not None, number=n)
    return total_s / n * 1e6


def test_uninstalled_monitors_leave_no_trace_hook(benchmark):
    system = benchmark.pedantic(
        _run_pair, rounds=3, iterations=1, warmup_rounds=1
    )
    # zero-cost contract: the engine never saw a hook, the device no
    # listener
    assert system.sim._trace is None
    assert system.gpu.listeners == []

    t0 = time.perf_counter()
    _run_pair()
    bare_wall_us = (time.perf_counter() - t0) * 1e6

    # the only residual cost is the guard the engine always carried
    guard_total_us = _run_pair().sim.stats.processed * _guard_cost_us()
    overhead = guard_total_us / bare_wall_us
    assert overhead < 0.05, (
        f"trace guards cost {guard_total_us:.0f}us "
        f"= {overhead:.2%} of the {bare_wall_us:.0f}us co-run"
    )


def _median_wall_s(run, rounds: int = 5) -> float:
    walls = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        run()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def test_monitored_run_cost_is_bounded(benchmark):
    """Full monitor stack on the same co-run. Each device monitor
    checks only what changed (the SM a placement or retire touched, the
    contexts a flag write demands) and the per-event pool check reads
    only the pools of queued grids, so the monitored run stays within a
    small multiple of the bare one: over five runs each, the median
    monitored run takes under 3x the median bare run."""
    system = benchmark.pedantic(
        lambda: _run_pair(monitored=True),
        rounds=3, iterations=1, warmup_rounds=1,
    )
    # uninstall restored the bare hook and emptied the listener list
    assert system.sim._trace is None
    assert system.gpu.listeners == []
    bare_s = _median_wall_s(_run_pair)
    monitored_s = _median_wall_s(lambda: _run_pair(monitored=True))
    assert monitored_s < 3 * bare_s, (
        f"monitored co-run {monitored_s * 1e3:.1f}ms vs bare "
        f"{bare_s * 1e3:.1f}ms ({monitored_s / bare_s:.2f}x)"
    )
