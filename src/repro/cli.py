"""Command-line interface.

    flep list                      # enumerate the experiments
    flep run fig8 [fig10 ...]      # regenerate specific tables/figures
    flep run all --json            # the whole evaluation section, as JSON
    flep bench --budget small      # macro-benchmarks -> BENCH_<date>_<sha>.json
    flep bench --compare OLD.json  # per-metric deltas; exit 3 on regression
    flep compile VA                # show a benchmark's transformed source
    flep tune NN                   # run the offline amortizing-factor tuner
    flep trace --export out.json   # co-run + Chrome/Perfetto trace export
    flep stats fig8 --prometheus   # metrics from an observed experiment run
    flep serve --rate 0.4          # multi-tenant serving + per-tenant SLO report
    flep fuzz --budget 200         # randomized invariant/oracle conformance run
    flep fuzz --replay TOKEN       # re-run one shrunk failing reproducer
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _cmd_list(args) -> int:
    """List the available experiments."""
    from .experiments import EXPERIMENTS

    print("available experiments (paper table/figure -> module):")
    for name, module in EXPERIMENTS.items():
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:8s} {doc}")
    return 0


def _cmd_run(args) -> int:
    import json

    from .experiments import EXPERIMENTS
    from .obs import EngineWindow

    names: List[str] = args.experiments
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    as_json = []
    for name in names:
        started = time.time()
        with EngineWindow() as window:
            report = EXPERIMENTS[name].run()
        engine = window.engine_block()
        if args.json:
            as_json.append({
                **report.as_dict(),
                "engine": engine,
                "schedule_hash": window.schedule_hash(),
            })
        else:
            print(report.format())
            print(f"[{name} regenerated in {time.time() - started:.1f}s: "
                  f"{engine['events']} events, "
                  f"{engine['events_per_sec']:,.0f} events/s, "
                  f"peak queue {engine['peak_queue_depth']}]")
            print()
    if args.json:
        print(json.dumps(as_json, indent=2, default=str))
    return 0


def _cmd_compile(args) -> int:
    from .compiler import CompilationEngine

    engine = CompilationEngine()
    program = engine.compile_benchmark(args.benchmark)
    if args.ptx:
        for info in program.kernels.values():
            print(info.ptx)
    else:
        print(program.transformed_source)
    for name, info in program.kernels.items():
        print(
            f"// kernel {name}: {info.occupancy.resources.regs_per_thread} "
            f"regs/thread, {info.occupancy.resources.shared_mem_per_cta} B "
            f"shared, {info.occupancy.max_ctas_per_sm} CTAs/SM, "
            f"persistent grid = {info.occupancy.persistent_grid_ctas} CTAs",
            file=sys.stderr,
        )
    return 0


def _cmd_trace(args) -> int:
    from .core.flep import FlepSystem

    system = FlepSystem(
        policy=args.policy, trace=True, observability=bool(args.export),
    )
    system.submit_at(0.0, f"low_{args.low}", args.low, "large", priority=0)
    system.submit_at(
        args.delay, f"high_{args.high}", args.high, args.input, priority=1
    )
    result = system.run()
    if args.export:
        n = system.obs.export_to_tracer(system.obs.tracer)
        print(f"[profiler: {n} queue/SM/stall records added to the trace]",
              file=sys.stderr)
        system.obs.tracer.write_chrome_trace(args.export)
        print(f"wrote Chrome trace to {args.export} "
              f"(load in chrome://tracing or https://ui.perfetto.dev)")
    print("=== scheduler decision journal ===")
    print(system.runtime.journal.format())
    print()
    print("=== SM timeline (ASCII Gantt) ===")
    bucket = max(50.0, result.makespan_us / 120.0)
    print(system.timeline.render_ascii(
        system.device.num_sms, window_us=bucket
    ))
    print()
    for inv in result.invocations:
        r = inv.record
        print(
            f"{inv.kspec.name}[{inv.inp.name}]@{inv.process}: "
            f"turnaround={r.turnaround_us:.0f}us, waited={r.waited_us:.0f}us, "
            f"preemptions={r.preemptions}"
        )
    return 0


def _cmd_stats(args) -> int:
    from .experiments import EXPERIMENTS
    from .obs import EngineWindow

    names: List[str] = args.experiments or ["fig8"]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}", file=sys.stderr)
        print(f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    with EngineWindow(hub=True) as window:
        for name in names:
            started = time.time()
            EXPERIMENTS[name].run()
            print(f"[{name} observed in {time.time() - started:.1f}s]",
                  file=sys.stderr)
    hub = window.hub
    if args.prometheus:
        text = hub.metrics.render_prometheus()
    else:
        text = hub.metrics.format_summary()
    if args.profile:
        text += "\n\n" + hub.format_profile(window)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    import json as _json

    from .obs import EngineWindow, Observability
    from .serving import (
        PoissonLoadGen,
        ServingConfig,
        ServingSystem,
        Tenant,
        TenantSet,
    )

    modes = [args.mode] if args.mode != "all" else [
        "mps", "flep-temporal", "flep-spatial"
    ]
    admission = {"auto": None, "on": True, "off": False}[args.admission]
    as_json = []
    hub = Observability()
    for mode in modes:
        tenants = TenantSet([
            Tenant("batch", priority=0),
            Tenant(
                "interactive", priority=1, slo_us=args.slo,
                rate_limit_rps=args.rate_limit,
            ),
        ])
        with EngineWindow() as window:
            server = ServingSystem(
                tenants,
                ServingConfig(
                    mode=mode, policy=args.policy, admission=admission,
                    seed=args.seed,
                ),
                observability=hub,
            )
            server.submit_at(0.0, "batch", args.batch, "large")
            server.add_generator(PoissonLoadGen(
                tenant="interactive",
                kernels=args.kernels.split(","),
                rate_per_ms=args.rate,
                duration_ms=args.duration,
                seed=args.seed,
                input_names=(args.input,),
                priority=1,
            ))
            report = server.run()
        if args.json:
            as_json.append({
                "mode": mode, **report.as_dict(),
                "engine": window.engine_block(),
                "schedule_hash": window.schedule_hash(),
            })
        else:
            print(f"=== {mode} (policy={args.policy}, "
                  f"admission={'on' if server.config.admission_enabled else 'off'}) ===")
            print(report.format())
            print()
    if args.json:
        print(_json.dumps(as_json, indent=2, default=str))
    if args.prometheus:
        print(hub.metrics.render_prometheus())
    return 0


def _build_fleet_tenants(n: int, slo_us: float):
    """The CLI's standard tenant mix: one third interactive (tight SLO,
    high priority), one third analytics (loose SLO), one third
    best-effort batch — deterministic for a given ``n``."""
    from .serving import Tenant, TenantSet

    tenants = []
    for i in range(n):
        tier = i % 3
        if tier == 0:
            tenants.append(Tenant(
                f"web{i}", priority=2, slo_us=slo_us,
            ))
        elif tier == 1:
            tenants.append(Tenant(
                f"analytics{i}", priority=1, slo_us=5.0 * slo_us,
            ))
        else:
            tenants.append(Tenant(f"batch{i}", priority=0))
    return TenantSet(tenants)


def _cmd_fleet(args) -> int:
    import json as _json

    from .fleet import FleetConfig, FleetSystem, parse_fault_spec, random_plan
    from .obs import EngineWindow
    from .serving import PoissonLoadGen
    from .validate import install_monitors

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        modes = ["flep-spatial"]
    # cycle the mode list out to --gpus entries
    node_modes = [modes[i % len(modes)] for i in range(args.gpus)]
    node_devices = None
    if args.devices:
        specs = [d.strip() for d in args.devices.split(",") if d.strip()]
        node_devices = [specs[i % len(specs)] for i in range(args.gpus)]
    if args.faults and args.fault_seed is not None:
        print("--faults and --fault-seed are mutually exclusive",
              file=sys.stderr)
        return 2
    faults = None
    if args.faults:
        faults = parse_fault_spec(args.faults)
    elif args.fault_seed is not None:
        faults = random_plan(
            args.fault_seed, args.gpus, args.duration * 1000.0,
        )
    tenants = _build_fleet_tenants(args.tenants, args.slo)
    # the window spans construction AND run: fault rejoins build fresh
    # node devices mid-run, and their digests belong in the rollup too
    with EngineWindow() as window:
        fleet = FleetSystem(
            tenants,
            FleetConfig(
                node_modes=node_modes,
                node_devices=node_devices,
                routing=args.routing,
                policy=args.policy,
                seed=args.seed,
                max_inflight=args.max_inflight,
                steal=not args.no_steal,
                steal_interval_us=args.steal_interval,
                steal_threshold_us=args.steal_threshold,
                faults=faults,
            ),
        )
        bundle = install_monitors(fleet, require_complete=True)
        kernels = args.kernels.split(",")
        for i, t in enumerate(tenants):
            fleet.add_generator(PoissonLoadGen(
                tenant=t.name,
                kernels=kernels,
                rate_per_ms=args.rate,
                duration_ms=args.duration,
                seed=args.seed + i,
                input_names=(args.input,),
                priority=t.priority,
            ))
        report = fleet.run()
    bundle.finalize()
    if args.json:
        print(_json.dumps({
            "schema": "flep-fleet/1",
            "schedule_hash": window.schedule_hash(),
            "engine": window.engine_block(),
            "config": {
                "gpus": args.gpus,
                "node_modes": node_modes,
                "node_devices": node_devices,
                "routing": args.routing,
                "policy": args.policy,
                "tenants": args.tenants,
                "rate_per_ms": args.rate,
                "duration_ms": args.duration,
                "seed": args.seed,
                "steal": not args.no_steal,
                "faults": faults.describe() if faults else None,
                "fault_seed": args.fault_seed,
            },
            **report.as_dict(),
        }, indent=2, default=str))
    else:
        print(report.format())
    return 0


def _cmd_bench(args) -> int:
    import json as _json

    from .obs import (
        compare_reports,
        default_bench_filename,
        load_bench_report,
        run_bench,
    )

    old = load_bench_report(args.compare) if args.compare else None
    if args.against:
        # File-vs-file mode: compare two existing reports, run nothing.
        if old is None:
            print("--against requires --compare OLD.json", file=sys.stderr)
            return 2
        new = load_bench_report(args.against)
    else:
        def progress(name, row):
            print(f"  [{name}: {row['events']} events in "
                  f"{row['wall_s']:.2f}s]", file=sys.stderr)

        new = run_bench(
            budget=args.budget, only=args.scenario or None,
            on_progress=progress,
        )
        path = args.output or default_bench_filename(new)
        new.write(path)
        print(f"wrote {path}", file=sys.stderr)
    if args.json:
        print(_json.dumps(new.as_dict(), indent=2))
    else:
        print(new.format())
    if old is None:
        return 0
    cmp = compare_reports(old, new, threshold=args.threshold)
    print()
    print(cmp.format())
    if args.fail_on_drift and (cmp.drifts or cmp.unhashed):
        # schedule-hash drift is deterministic (never runner noise), so
        # it hard-fails even under --warn-only; so does a baseline that
        # leaves a schedule unchecked
        if cmp.drifts:
            names = ", ".join(r["scenario"] for r in cmp.drifts)
            print(f"schedule-hash drift in: {names}", file=sys.stderr)
        if cmp.unhashed:
            names = ", ".join(r["scenario"] for r in cmp.unhashed)
            print(f"no baseline schedule hash for: {names}",
                  file=sys.stderr)
        return 3
    if not cmp.ok and not args.warn_only:
        return 3
    return 0


def _cmd_report(args) -> int:
    from .experiments.summary import write_report

    only = args.experiments or None
    reports = write_report(args.output, only=only)
    print(f"wrote {args.output} ({len(reports)} experiments)")
    return 0


def _cmd_tune(args) -> int:
    from .compiler import tune_amortizing_factor
    from .workloads import TABLE1, standard_suite

    suite = standard_suite()
    names = [args.benchmark] if args.benchmark != "all" else list(TABLE1)
    for name in names:
        result = tune_amortizing_factor(suite[name])
        print(f"{name}: chosen L = {result.chosen_l} "
              f"(paper: {TABLE1[name].amortize_l})")
        for l, ovh in result.trials:
            print(f"    L={l:<5d} overhead={ovh:.4f}")
    return 0


def _cmd_fuzz(args) -> int:
    import os

    from .validate import decode_case, encode_case, fuzz, run_case

    if args.replay:
        case = decode_case(args.replay)
        print(f"replaying: {case.describe()}")
        result = run_case(case)
        if result.ok:
            print(f"case passed ({', '.join(result.checks)})")
            return 0
        print(f"case FAILS [{result.error_type}]: {result.error}")
        return 1

    started = time.time()
    total = args.budget + args.fleet_budget

    def progress(i, result):
        if (i + 1) % 50 == 0:
            print(f"  ... {i + 1}/{total} cases, "
                  f"{time.time() - started:.1f}s", file=sys.stderr)

    report = fuzz(
        budget=args.budget, seed=args.seed, plant=args.plant,
        on_progress=progress, fleet_budget=args.fleet_budget,
    )
    print(report.format())
    print(f"[{report.cases_run} cases in {time.time() - started:.1f}s]")
    if report.failures and args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        path = os.path.join(args.artifacts, "failing-seeds.txt")
        with open(path, "w", encoding="utf-8") as fh:
            for f in report.failures:
                fh.write(f"{f.replay_command}\n")
                fh.write(f"# [{f.error_type}] {f.error}\n")
                fh.write(f"# original seed: {f.original.seed}, "
                         f"minimal: {f.minimal.describe()}\n")
        print(f"wrote reproducers to {path}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the `flep` argument parser."""
    parser = argparse.ArgumentParser(
        prog="flep",
        description=(
            "FLEP reproduction (ASPLOS 2017): flexible and efficient "
            "GPU preemption on a discrete-event simulator"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="regenerate tables/figures")
    run_p.add_argument("experiments", nargs="+",
                       help="experiment ids (or 'all')")
    run_p.add_argument("--json", action="store_true",
                       help="emit the reports as a JSON array instead of text")
    run_p.set_defaults(fn=_cmd_run)

    stats_p = sub.add_parser(
        "stats",
        help="run experiments under the observability hub and dump metrics",
    )
    stats_p.add_argument("experiments", nargs="*",
                         help="experiment ids (or 'all'; default: fig8)")
    stats_p.add_argument("--prometheus", action="store_true",
                         help="Prometheus text exposition instead of summary")
    stats_p.add_argument("-o", "--output", default=None,
                         help="write to a file instead of stdout")
    stats_p.add_argument("--profile", action="store_true",
                         help="append the simulator self-profile summary")
    stats_p.set_defaults(fn=_cmd_stats)

    comp_p = sub.add_parser("compile", help="show transformed source")
    comp_p.add_argument("benchmark", help="benchmark name, e.g. VA")
    comp_p.add_argument("--ptx", action="store_true",
                        help="print the toy PTX instead")
    comp_p.set_defaults(fn=_cmd_compile)

    tune_p = sub.add_parser("tune", help="offline amortizing-factor tuning")
    tune_p.add_argument("benchmark", help="benchmark name or 'all'")
    tune_p.set_defaults(fn=_cmd_tune)

    bench_p = sub.add_parser(
        "bench",
        help="run the deterministic macro-benchmark suite and write a "
             "schema-versioned BENCH_<date>_<sha>.json snapshot",
    )
    bench_p.add_argument("--budget", default="default",
                         choices=["small", "default", "large"],
                         help="workload scale (small: CI smoke)")
    bench_p.add_argument("--scenario", action="append", default=None,
                         metavar="NAME",
                         help="run only this scenario (repeatable)")
    bench_p.add_argument("-o", "--output", default=None, metavar="PATH",
                         help="report path (default: BENCH_<date>_<sha>.json)")
    bench_p.add_argument("--compare", default=None, metavar="OLD.json",
                         help="diff against a previous snapshot; exit 3 on "
                              "a gated-metric regression")
    bench_p.add_argument("--against", default=None, metavar="NEW.json",
                         help="with --compare: diff two existing files "
                              "instead of running the suite")
    bench_p.add_argument("--threshold", type=float, default=0.15,
                         help="relative drop counted as a regression "
                              "(default: 0.15)")
    bench_p.add_argument("--warn-only", action="store_true",
                         help="report regressions but exit 0 (CI smoke)")
    bench_p.add_argument("--fail-on-drift", action="store_true",
                         help="exit 3 when any scenario's schedule_hash "
                              "differs from the baseline's (a kernel-level "
                              "timeline change) or the baseline has none, "
                              "even with --warn-only")
    bench_p.add_argument("--json", action="store_true",
                         help="print the report as JSON instead of a table")
    bench_p.set_defaults(fn=_cmd_bench)

    rep_p = sub.add_parser(
        "report", help="regenerate all results into a markdown file"
    )
    rep_p.add_argument("-o", "--output", default="results.md")
    rep_p.add_argument("experiments", nargs="*",
                       help="subset of experiment ids (default: all)")
    rep_p.set_defaults(fn=_cmd_report)

    serve_p = sub.add_parser(
        "serve",
        help="run the multi-tenant serving scenario and print the "
             "per-tenant SLO report",
    )
    serve_p.add_argument("--mode", default="all",
                         choices=["all", "mps", "flep-temporal",
                                  "flep-spatial"],
                         help="execution mode(s) to serve under")
    serve_p.add_argument("--policy", default="edf",
                         help="FLEP scheduling policy (default: edf)")
    serve_p.add_argument("--rate", type=float, default=0.2,
                         help="interactive Poisson rate, queries/ms")
    serve_p.add_argument("--duration", type=float, default=25.0,
                         help="offered-load horizon in ms")
    serve_p.add_argument("--slo", type=float, default=2000.0,
                         help="interactive tenant SLO target in µs")
    serve_p.add_argument("--rate-limit", type=float, default=None,
                         help="interactive token-bucket limit, requests/s")
    serve_p.add_argument("--batch", default="VA",
                         help="batch tenant's kernel (large input)")
    serve_p.add_argument("--kernels", default="SPMV,MM,PL",
                         help="comma-separated interactive query kernels")
    serve_p.add_argument("--input", default="trivial",
                         help="interactive query input size")
    serve_p.add_argument("--seed", type=int, default=7)
    serve_p.add_argument("--admission", default="auto",
                         choices=["auto", "on", "off"],
                         help="admission control (auto: on for FLEP modes)")
    serve_p.add_argument("--json", action="store_true",
                         help="emit the SLO reports as JSON")
    serve_p.add_argument("--prometheus", action="store_true",
                         help="also dump the serving metrics in Prometheus "
                              "text format")
    serve_p.set_defaults(fn=_cmd_serve)

    fleet_p = sub.add_parser(
        "fleet",
        help="multi-GPU fleet: routed, work-stealing serving simulation",
    )
    fleet_p.add_argument("--gpus", type=int, default=4,
                         help="number of simulated GPUs (default 4)")
    fleet_p.add_argument("--modes", default="flep-spatial",
                         help="comma list of per-node modes, cycled out to "
                              "--gpus (mps|flep-temporal|flep-spatial)")
    fleet_p.add_argument("--routing", default="deadline",
                         choices=["round-robin", "least-loaded", "deadline",
                                  "affinity"],
                         help="dispatch policy (default deadline)")
    fleet_p.add_argument("--policy", default="edf",
                         help="per-node FLEP scheduling policy (default edf)")
    fleet_p.add_argument("--tenants", type=int, default=6,
                         help="tenant count: web/analytics/batch thirds")
    fleet_p.add_argument("--rate", type=float, default=1.0,
                         help="per-tenant Poisson rate (requests/ms)")
    fleet_p.add_argument("--duration", type=float, default=20.0,
                         help="arrival window in ms")
    fleet_p.add_argument("--slo", type=float, default=4000.0,
                         help="interactive-tier SLO in µs (default 4000)")
    fleet_p.add_argument("--kernels", default="SPMV,MM,PL",
                         help="kernel mix for the load generators")
    fleet_p.add_argument("--input", default="small",
                         help="input size for generated requests")
    fleet_p.add_argument("--seed", type=int, default=7)
    fleet_p.add_argument("--max-inflight", type=int, default=4,
                         help="per-node dispatch window (default 4)")
    fleet_p.add_argument("--no-steal", action="store_true",
                         help="disable the work-stealing rebalancer")
    fleet_p.add_argument("--steal-interval", type=float, default=500.0,
                         help="µs between rebalance ticks (default 500)")
    fleet_p.add_argument("--steal-threshold", type=float, default=200.0,
                         help="µs load gap before stealing (default 200)")
    fleet_p.add_argument("--devices", default=None,
                         help="comma list of device specs cycled out to "
                              "--gpus, e.g. k40,p100 or p100@40 "
                              "(default: every node a K40)")
    fleet_p.add_argument("--faults", default=None, metavar="SPEC",
                         help="inject faults: comma-separated "
                              "kind@TIME:nNODE[+EXTRA], e.g. "
                              "'crash@5000:n0,rejoin@9000:n0,"
                              "drain@2000:n1+3000'")
    fleet_p.add_argument("--fault-seed", type=int, default=None,
                         help="derive a random (but reproducible) fault "
                              "plan from this seed instead of --faults")
    fleet_p.add_argument("--json", action="store_true",
                         help="emit the flep-fleet/1 JSON rollup")
    fleet_p.set_defaults(fn=_cmd_fleet)

    trace_p = sub.add_parser(
        "trace",
        help="run one co-run and print the decision journal + SM Gantt",
    )
    trace_p.add_argument("--low", default="NN",
                         help="low-priority kernel (large input)")
    trace_p.add_argument("--high", default="SPMV",
                         help="high-priority kernel")
    trace_p.add_argument("--input", default="small",
                         help="high-priority input (small/trivial)")
    trace_p.add_argument("--delay", type=float, default=10.0,
                         help="high-priority arrival time (us)")
    trace_p.add_argument("--policy", default="hpf")
    trace_p.add_argument("--export", default=None, metavar="PATH",
                         help="also write a Chrome/Perfetto trace JSON here")
    trace_p.set_defaults(fn=_cmd_trace)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="randomized conformance testing: run seeded workloads under "
             "the invariant monitors and differential oracles",
    )
    fuzz_p.add_argument("--budget", type=int, default=200,
                        help="number of generated cases (default: 200)")
    fuzz_p.add_argument("--fleet-budget", type=int, default=0,
                        help="additionally run this many multi-node fleet "
                             "cases (routing + stealing + faults under the "
                             "fleet monitors; default: 0)")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="base seed; case i uses seed+i")
    fuzz_p.add_argument("--replay", default=None, metavar="TOKEN",
                        help="re-run one minimal reproducer (an integer "
                             "seed or a 'c...'/'f...' token printed on "
                             "failure)")
    fuzz_p.add_argument("--plant", default=None,
                        choices=["sm-budget-off-by-one"],
                        help="deliberately plant a violation "
                             "(self-test of the monitors)")
    fuzz_p.add_argument("--artifacts", default=None, metavar="DIR",
                        help="write failing reproducer commands here")
    fuzz_p.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        from .errors import ReproError

        if isinstance(exc, ReproError):
            print(f"error: {exc}", file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
