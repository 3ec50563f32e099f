"""Per-layer self time for the traced run, from the benchmark's own files.

:class:`LayerTracer` wraps, at class level, the methods through which each
simulator layer is entered, and charges every wrapped call's host time to
its layer minus the time of the wrapped calls it makes (its *self* time).
Nothing is recorded per call: each layer keeps one running self-time sum
and each boundary one call count, so hot boundaries (CTA batch callbacks,
``TaskPool`` reads) cost a counter, not a span. Layers are named after the
modules they live in. Where a layer has no public entry point the tracer
wraps the method the event loop calls.

Only the traced process installs it; the timed runs never import it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, class, layer, [methods]) — every method is charged to the
#: layer. A method the class does not define itself (renamed or gone in
#: a later version) is reported in ``LayerTracer.missing`` and its time
#: falls to the caller's layer.
LAYER_METHODS = [
    ("repro.gpu.sim", "Simulator", "gpu.sim", ["run"]),
    ("repro.gpu.grid", "Grid", "gpu.macro", ["try_macro"]),
    ("repro.gpu.macro", "MacroCohort", "gpu.macro",
     ["absorb", "_replay", "_continue", "sync", "dissolve"]),
    ("repro.gpu.cta", "CTAContext", "gpu.cta",
     ["__init__", "start", "_begin_next_batch", "_on_batch_complete",
      "_finish", "replan", "_schedule_yield", "_do_yield"]),
    ("repro.gpu.grid", "Grid", "gpu.cta", ["_on_flag_write"]),
    ("repro.gpu.gpu", "SimulatedGPU", "gpu.dispatch",
     ["launch", "_enqueue", "_dispatch", "on_context_released",
      "on_grid_terminal"]),
    ("repro.gpu.grid", "Grid", "gpu.dispatch",
     ["place_context", "context_done", "context_yielded",
      "_check_terminal", "_finish"]),
    ("repro.gpu.sm", "SM", "gpu.dispatch", ["admit_fp", "release_fp"]),
    ("repro.gpu.kernel", "TaskPool", "gpu.pool",
     ["remaining", "outstanding", "done", "unfinished", "exhausted",
      "complete", "workers", "take", "finish", "give_back",
      "worker_joined", "worker_left"]),
    ("repro.runtime.engine", "FlepRuntime", "runtime",
     ["submit", "schedule_to_gpu", "preempt", "_launch_grid",
      "_on_grid_complete", "_on_grid_preempted", "_top_up",
      "_refresh_all"]),
    ("repro.runtime.models", "ModelBank", "runtime.model", ["predict"]),
    ("repro.serving.server", "ServingSystem", "serving",
     ["run", "_on_arrival", "_admit", "_on_complete", "predicted_us",
      "backlog_us"]),
    ("repro.serving.slo", "SLOTracker", "serving",
     ["open_request", "mark_completed", "mark_shed", "mark_delayed",
      "mark_lost", "report"]),
    ("repro.serving.admission", "AdmissionController", "serving.admission",
     ["decide"]),
    ("repro.fleet.dispatcher", "FleetSystem", "fleet",
     ["run", "_route", "_advance_all", "_steal_tick", "predicted_us"]),
    ("repro.fleet.dispatcher", "WorkStealer", "fleet.steal", ["rebalance"]),
    ("repro.fleet.node", "FleetNode", "fleet.node",
     ["advance", "drain", "enqueue", "_admit_held", "_accept", "take",
      "accept_stolen", "_pump", "_dispatch", "_on_complete", "load_us",
      "backlog_for"]),
    ("repro.validate.monitors", "MonitorSet", "validate", ["finalize"]),
    ("repro.validate.fleet", "FleetMonitorBundle", "validate", ["finalize"]),
]

#: (module, base class, layer, [methods]): the methods of the base class
#: and of every subclass that defines them are charged to ``layer``. A
#: ``None`` layer means ``validate.<class name>`` for the classes in
#: ``MONITOR_CLASSES`` and ``validate`` for the rest.
LAYER_FAMILIES = [
    ("repro.core.policies.base", "SchedulingPolicy", "runtime.policy",
     ["on_kernel_arrival", "on_kernel_finished", "on_preemption_drained",
      "schedule_for_queue", "_preempt_for"]),
    ("repro.fleet.routing", "RoutingPolicy", "fleet.route", ["choose"]),
    ("repro.validate.monitors", "Monitor", None, ["on_event", "finalize"]),
    ("repro.fleet.dispatcher", "FleetHook", None,
     ["on_route", "on_steal", "on_dispatch", "on_resolve", "on_fault",
      "on_reroute", "on_lost", "on_advance", "finalize"]),
]

#: Monitor classes ``fleet_checked`` installs; each gets a self-time row.
MONITOR_CLASSES = (
    "MonotonicTimeMonitor", "ResourceBudgetMonitor",
    "WorkConservationMonitor", "SpatialPartitionMonitor",
    "FleetConformanceMonitor",
)

#: Every layer whose self time the traced run reports.
LAYERS = (
    "gpu.sim", "gpu.macro", "gpu.cta", "gpu.dispatch", "gpu.pool",
    "runtime", "runtime.policy", "runtime.model", "serving",
    "serving.admission", "fleet", "fleet.route", "fleet.steal",
    "fleet.node", "validate",
) + tuple(f"validate.{m}" for m in MONITOR_CLASSES)


class DeviceCounters:
    """Task-pull, flag-poll and macro-collapse counts, taken from the
    device's counting hooks (the hooks ``SimProfiler`` fills). Installed
    as a device's ``prof`` in the traced process only; the simulator's
    event loop itself stays unhooked."""

    enabled = True

    def __init__(self):
        self.task_pulls = 0
        self.flag_polls = 0
        self.batches_collapsed = 0

    def on_batch(self, tasks: int, polls: int) -> None:
        self.task_pulls += tasks
        self.flag_polls += polls

    def on_macro_collapse(self, batches: int) -> None:
        self.batches_collapsed += batches

    def on_sm_admit(self, sm_id: int, resident: int) -> None:
        pass

    def on_sm_release(self, sm_id: int, resident: int) -> None:
        pass


class LayerTracer:
    """Class-level wrappers that sum self time per layer."""

    def __init__(self):
        self.missing: List[str] = []
        self.counts: Dict[str, int] = {
            "absorbs": 0, "dissolves": 0, "shed": 0, "delayed": 0,
            "steal_moves": 0, "useful_ticks": 0,
        }
        self.preempt_latency_us: List[float] = []
        self._preempt_start: Dict[int, float] = {}
        #: child time accumulated by each open wrapped call
        self._stack: List[float] = []
        #: layer -> [self time]; "Class.method" -> [calls]
        self._self_s: Dict[str, list] = {}
        self._calls: Dict[str, list] = {}
        self._installed: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, key: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        clock = time.perf_counter
        stack = self._stack
        push = stack.append
        pop = stack.pop
        cell = self._self_s.setdefault(layer, [0.0])
        count = self._calls.setdefault(key, [0])

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            push(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                cell[0] += dt - pop()
                if stack:
                    stack[-1] += dt
                count[0] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, cls: type, name: str, layer: str, **hooks) -> None:
        raw = cls.__dict__.get(name)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{name}")
            return
        key = f"{cls.__name__}.{name}"
        if isinstance(raw, property):
            new = property(self._wrap(raw.fget, layer, key, **hooks),
                           raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, layer, key, **hooks))
        else:
            new = self._wrap(raw, layer, key, **hooks)
        self._installed.append((cls, name, raw))
        setattr(cls, name, new)

    def install(self) -> "LayerTracer":
        import importlib

        hooks = self._hooks()
        for module, cls_name, layer, methods in LAYER_METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in methods:
                self._patch(cls, name, layer, **hooks.get(name, {}))
        for module, base_name, layer, methods in LAYER_FAMILIES:
            base = getattr(importlib.import_module(module), base_name)
            for cls in _with_subclasses(base):
                for name in methods:
                    if name in cls.__dict__:
                        self._patch(
                            cls, name, layer or _monitor_layer(cls),
                            **hooks.get(name, {}),
                        )
        return self

    def reset(self) -> None:
        """Zero every sum and count (after set-up, before the timed run)."""
        for cell in (*self._self_s.values(), *self._calls.values()):
            cell[0] = 0
        for key in self.counts:
            self.counts[key] = 0
        self.preempt_latency_us.clear()
        self._preempt_start.clear()

    def uninstall(self) -> None:
        for cls, name, raw in reversed(self._installed):
            setattr(cls, name, raw)
        self._installed.clear()

    # ------------------------------------------------------------------
    def _hooks(self) -> Dict[str, dict]:
        """Per-method observers for counts that need an argument or a
        result, keyed by method name (names are unique among the wrapped
        methods that have hooks)."""
        counts = self.counts
        starts = self._preempt_start

        def absorbed(args, kwargs, result):
            if result:
                counts["absorbs"] += 1

        def dissolving(args, kwargs):
            # a cohort that already claimed the pool's last task ends by
            # dissolving too; count only dissolves that discard claims
            cohort = args[0]
            if not cohort._dissolved and cohort._v_rem > 0:
                counts["dissolves"] += 1

        def decided(args, kwargs, verdict):
            name = verdict.decision.name
            if name == "SHED":
                counts["shed"] += 1
            elif name == "DELAY":
                counts["delayed"] += 1

        def rebalanced(args, kwargs, moves):
            if moves:
                counts["useful_ticks"] += 1
                counts["steal_moves"] += len(moves)

        def preempting(args, kwargs):
            # temporal requests only: a spatial one never fully drains
            rt, inv = args[0], args[1]
            yield_sms = args[2] if len(args) > 2 else kwargs.get("yield_sms")
            if yield_sms is None or yield_sms >= rt.device.num_sms:
                starts[id(inv)] = rt.sim.now

        def drained(args, kwargs):
            policy, inv = args[0], args[1]
            t0 = starts.pop(id(inv), None)
            if t0 is not None:
                self.preempt_latency_us.append(policy.rt.sim.now - t0)

        return {
            "absorb": {"after": absorbed},
            "dissolve": {"before": dissolving},
            "decide": {"after": decided},
            "rebalance": {"after": rebalanced},
            "preempt": {"before": preempting},
            "on_preemption_drained": {"before": drained},
        }

    # ------------------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return {k: v[0] for k, v in self._self_s.items()}

    def count(self, *keys: str) -> int:
        """Summed call count of the wrapped methods named by ``keys``
        (``Class.method``, or ``*.method`` for every class)."""
        total = 0
        for k, v in self._calls.items():
            cls_name, _, method = k.partition(".")
            for want in keys:
                w_cls, _, w_method = want.partition(".")
                if w_method == method and w_cls in ("*", cls_name):
                    total += v[0]
        return total


def _with_subclasses(base: type) -> List[type]:
    """``base`` and every class below it, each once."""
    out: Dict[type, None] = {}
    todo = [base]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out[cls] = None
            todo.extend(cls.__subclasses__())
    return list(out)


def self_time_metric(layer: str) -> str:
    """``<layer>.self_s``; the model layer's is ``runtime.model.predict_s``
    (all of its time is prediction)."""
    if layer == "runtime.model":
        return "runtime.model.predict_s"
    return f"{layer}.self_s"


def _monitor_layer(cls: type) -> str:
    if cls.__name__ in MONITOR_CLASSES:
        return f"validate.{cls.__name__}"
    return "validate"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: List[float], q: float) -> float:
    from repro.metrics.stats import percentile

    return percentile(values, q) if values else 0.0


def layer_metrics(tracer: LayerTracer, counters: List[DeviceCounters],
                  simulators: list, traced_wall_s: float) -> Dict[str, float]:
    """The per-layer table of one traced run (values only; units are in
    ``PER_LAYER_UNITS``)."""
    selfs = tracer.layer_self_s()
    c = tracer.counts
    count = tracer.count
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[self_time_metric(layer)] = selfs.get(layer, 0.0)
    attempts = count("Grid.try_macro")
    out.update({
        "gpu.sim.events": sum(s.stats.processed for s in simulators),
        "gpu.sim.peak_pending": max(
            (s.stats.peak_pending for s in simulators), default=0
        ),
        "gpu.macro.absorb_attempts": attempts,
        "gpu.macro.absorbs": c["absorbs"],
        "gpu.macro.absorb_ratio": _ratio(c["absorbs"], attempts),
        "gpu.macro.dissolves": c["dissolves"],
        "gpu.macro.kept_ratio": _ratio(
            c["absorbs"] - c["dissolves"], c["absorbs"]
        ),
        "gpu.macro.batches_collapsed": sum(
            d.batches_collapsed for d in counters
        ),
        "gpu.cta.contexts": count("CTAContext.__init__"),
        "gpu.cta.task_pulls": sum(d.task_pulls for d in counters),
        "gpu.cta.flag_polls": sum(d.flag_polls for d in counters),
        "gpu.dispatch.placements": count("Grid.place_context"),
        "gpu.dispatch.launches": count("SimulatedGPU.launch"),
        "gpu.pool.reads": count(
            "TaskPool.remaining", "TaskPool.outstanding", "TaskPool.done",
            "TaskPool.unfinished", "TaskPool.exhausted", "TaskPool.complete",
            "TaskPool.workers",
        ),
        "runtime.submits": count("FlepRuntime.submit"),
        "runtime.preempt_requests": count("FlepRuntime.preempt"),
        "runtime.policy.calls": count(
            "*.on_kernel_arrival", "*.on_kernel_finished",
            "*.on_preemption_drained",
        ),
        "runtime.model.predict_calls": count("ModelBank.predict"),
        "runtime.preempt_latency_us_p50": _pct(tracer.preempt_latency_us, 50),
        "runtime.preempt_latency_us_p99": _pct(tracer.preempt_latency_us, 99),
        "serving.admission.decisions": count("AdmissionController.decide"),
        "serving.admission.shed": c["shed"],
        "serving.admission.delayed": c["delayed"],
        "fleet.route.calls": count("*.choose"),
        "fleet.steal.ticks": count("WorkStealer.rebalance"),
        "fleet.steal.moved": c["steal_moves"],
        "fleet.steal.useful_ratio": _ratio(
            c["useful_ticks"], count("WorkStealer.rebalance")
        ),
        "fleet.node.advance_calls": count("FleetNode.advance"),
        "validate.on_event_calls": count("*.on_event"),
    })
    out["trace.covered_ratio"] = _ratio(sum(selfs.values()), traced_wall_s)
    return out


#: Unit of every per-layer metric the traced run prints.
PER_LAYER_UNITS: Dict[str, str] = {self_time_metric(x): "s" for x in LAYERS}
PER_LAYER_UNITS.update({
    "gpu.sim.events": "count",
    "gpu.sim.peak_pending": "count",
    "gpu.macro.absorb_attempts": "count",
    "gpu.macro.absorbs": "count",
    "gpu.macro.absorb_ratio": "ratio",
    "gpu.macro.dissolves": "count",
    "gpu.macro.kept_ratio": "ratio",
    "gpu.macro.batches_collapsed": "count",
    "gpu.cta.contexts": "count",
    "gpu.cta.task_pulls": "count",
    "gpu.cta.flag_polls": "count",
    "gpu.dispatch.placements": "count",
    "gpu.dispatch.launches": "count",
    "gpu.pool.reads": "count",
    "runtime.submits": "count",
    "runtime.preempt_requests": "count",
    "runtime.policy.calls": "count",
    "runtime.model.predict_calls": "count",
    "runtime.preempt_latency_us_p50": "sim_us",
    "runtime.preempt_latency_us_p99": "sim_us",
    "serving.admission.decisions": "count",
    "serving.admission.shed": "count",
    "serving.admission.delayed": "count",
    "fleet.route.calls": "count",
    "fleet.steal.ticks": "count",
    "fleet.steal.moved": "count",
    "fleet.steal.useful_ratio": "ratio",
    "fleet.node.advance_calls": "count",
    "validate.on_event_calls": "count",
    "validate.finalize_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.model_train_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.covered_ratio": "ratio",
})
