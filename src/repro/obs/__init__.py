"""Unified observability layer: metrics registry, span tracer, exporters.

See DESIGN.md's "Observability" section for the metric catalog and the
span model. Quick start::

    from repro import FlepSystem
    from repro.obs import Observability

    system = FlepSystem(policy="hpf", observability=True)
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(10.0, "rt", "SPMV", "small", priority=1)
    system.run()
    print(system.obs.metrics.format_summary())
    system.obs.tracer.write_chrome_trace("trace.json")   # chrome://tracing
"""

from .bench import (
    BENCH_SCHEMA,
    BUDGETS,
    BenchReport,
    BenchScenario,
    CompareResult,
    SCENARIOS,
    compare_reports,
    default_bench_filename,
    load_bench_report,
    run_bench,
)
from .metrics import (
    Counter,
    DEFAULT_US_BUCKETS,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    parse_prometheus,
)
from .recorder import (
    EngineWindow,
    LatencyStat,
    NULL_OBS,
    NullObservability,
    Observability,
    get_global,
    observed,
)
from .tracer import CounterSample, InstantEvent, Span, SpanTracer

__all__ = [
    "BENCH_SCHEMA",
    "BUDGETS",
    "BenchReport",
    "BenchScenario",
    "CompareResult",
    "Counter",
    "CounterSample",
    "DEFAULT_US_BUCKETS",
    "EngineWindow",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "LatencyStat",
    "MetricsError",
    "MetricsRegistry",
    "NULL_OBS",
    "NullObservability",
    "Observability",
    "SCENARIOS",
    "Span",
    "SpanTracer",
    "compare_reports",
    "default_bench_filename",
    "get_global",
    "load_bench_report",
    "observed",
    "parse_prometheus",
    "run_bench",
]
