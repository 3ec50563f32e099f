"""One run of one workload in a fresh interpreter; ``run.py`` starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N
       --spawned-at EPOCH_S [--traced] [--scale X]

Prints one JSON object on its last stdout line. Set-up is timed from
``--spawned-at`` (the parent's clock just before it started this
process) to the point where the system is built and its arrivals are
submitted. The timed window covers ``run()`` and, on ``fleet_checked``,
the monitors' ``finalize()``. In an untimed run the worker first checks
that no profiler, observability hub or trace hook is installed; with
``--traced`` it instead installs the layer tracer of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def hook_problems(built) -> list:
    """Every instrumentation hook that would slow the timed window.

    Monitors (simulator trace hooks) are allowed only where the workload
    installed them itself."""
    from repro.gpu import sim as sim_module
    from repro.obs import recorder

    problems = []
    if sys.gettrace() is not None or sys.getprofile() is not None:
        problems.append("a Python trace/profile function is installed")
    if getattr(sim_module, "_GLOBAL_TRACE", None) is not None:
        problems.append("a global simulator trace hook is installed")
    if recorder.get_global() is not None:
        problems.append("a global observability hub is installed")
    try:
        from repro.obs.profiler import get_global_profiler
    except ImportError:
        pass
    else:
        if get_global_profiler() is not None:
            problems.append("a global profiler is installed")
    objects = [built.system] + built.simulators() + built.devices()
    for obj in objects:
        for attr in ("obs", "prof"):
            hub = getattr(obj, attr, None)
            if hub is not None and getattr(hub, "enabled", False):
                problems.append(f"{type(obj).__name__}.{attr} is enabled")
    if built.monitors is None:
        for sim in built.simulators():
            if getattr(sim, "_hooked", False):
                problems.append("a simulator has a trace hook installed")
    return problems


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    t = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    import_s = time.perf_counter() - t
    tracer = None
    train_s = [0.0]
    if args.traced:
        import layers
        from repro.runtime import models

        tracer = layers.LayerTracer().install()
        train = models.train_kernel_model

        def timed_train(*a, **k):
            t0 = time.perf_counter()
            try:
                return train(*a, **k)
            finally:
                train_s[0] += time.perf_counter() - t0

        models.train_kernel_model = timed_train

    t = time.perf_counter()
    built = workloads.build(args.workload, args.seed, args.scale)
    build_s = time.perf_counter() - t
    setup_s = time.time() - args.spawned_at

    errors = []
    counters = []
    if tracer is not None:
        tracer.reset()
        for gpu in built.devices():
            gpu.prof = layers.DeviceCounters()
            counters.append(gpu.prof)
    else:
        errors += hook_problems(built)

    finalize_s = 0.0
    t = time.perf_counter()
    try:
        built.report = built.system.run()
        if built.monitors is not None:
            t_fin = time.perf_counter()
            built.monitors.finalize()
            finalize_s = time.perf_counter() - t_fin
    except Exception:  # the run's failure is the result being reported
        errors.append("run raised:\n" + traceback.format_exc())
    wall_s = time.perf_counter() - t

    if tracer is None:
        errors += [f"after the run: {p}" for p in hook_problems(built)]
    out = workloads.outcome(built)
    errors += out.errors
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.traced,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": out.attempted,
        "failed": out.attempted if errors else out.failed,
        "terminal": out.terminal,
        "horizon_us": out.horizon_us,
        "schedule_hash": out.schedule_hash,
        "ledger": out.ledger,
        "sim": out.sim_metrics() if out.latencies_us else {},
        "errors": errors,
    }
    if tracer is not None:
        table = layers.layer_metrics(
            tracer, counters, built.simulators(), wall_s
        )
        table.update({
            "validate.finalize_s": finalize_s,
            "setup.import_s": import_s,
            "setup.build_s": build_s,
            "setup.model_train_s": train_s[0],
        })
        result["layers"] = table
        result["missing_wraps"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
