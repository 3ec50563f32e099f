"""The observability hub: one facade the instrumented layers talk to.

Instrumentation sites (simulator, device, SMs, CTA contexts, macro
cohorts, runtime engine) never touch metric families or spans directly —
they call the typed hooks on an :class:`Observability` hub, which
maintains the metrics catalog, the span model, the scheduler decision
log (:mod:`repro.obs.decisions`) and the simulator's self-profile in one
place. Uninstrumented runs use the module-level :data:`NULL_OBS`
singleton, a :class:`NullObservability` whose hooks are all no-ops;
every hot site guards with the one ``enabled`` class attribute, so a
disabled run pays a single attribute check per site
(asserted <2% end-to-end by ``benchmarks/test_obs_overhead.py``).

An :class:`EngineWindow` is the one registry of a run: every simulator
and device built inside its ``with`` block registers with it, and a
window opened with a hub hands that hub to every system built inside
that is given none (:class:`~repro.core.flep.FlepSystem`,
:class:`~repro.baselines.mps_corun.MPSCoRun`, the serving and fleet
front ends). That is how ``flep stats`` and ``flep bench`` aggregate
across every simulation an experiment runs without threading a hub
through the harness, and how ``flep run/serve/fleet`` read their
``engine`` block and ``schedule_hash``.

Hot hooks (one per simulator event, per retired batch, per CTA
admission) bump plain ints and a raw-label dict; the registry families
they feed (``flep_sim_events_total``, ``flep_task_pulls_total``, ...)
are built from those counters when read. The self-profile answers "how
fast is the simulator itself?": events by kind, batches collapsed by
macro cohorts, and two bounded timelines — event-queue depth and per-SM
residency — that :meth:`Observability.export_to_tracer` renders next to
the span tracks. The engine's own counters (events, peak queue depth,
simulated time) are not hooked at all: the window reads them from its
simulators.

Each observed fact has one record. A preemption stall is its
``drain`` / ``spatial_yield`` span, and closing the span observes its
duration once into ``flep_preempt_stall_us{kind}``, which ``flep stats
--profile`` reads. Invocation records
(spans, instants, decisions) and queue samples carry the time of their
own simulator, so the nodes of a fleet sharing one hub each keep their
own clock. SM samples and ``flep_sm_resident_ctas{sm}`` still read the
hub clock and are keyed by SM id only: the device hooks carry no node.

Span model (exported via ``tracer.chrome_trace()``):

* one ``invocation`` span per intercepted kernel invocation, on its own
  named track inside its submitting process;
* ``wait`` / ``execute`` / ``resume`` segments inside it, following the
  tracker's (Figure 5) state machine;
* a ``drain`` sub-span from the first temporal preemption request to
  the drain completing, nested inside the running segment;
* a ``spatial_yield`` sub-span while the victim cedes SMs to a guest;
* instant markers for preemption requests and counter tracks for the
  hardware and policy queue depths.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

from .decisions import DecisionEvent, DecisionKind
from .metrics import MetricsRegistry
from .tracer import Span, SpanTracer

#: Wider buckets (µs) for end-to-end invocation times.
TURNAROUND_US_BUCKETS: Tuple[float, ...] = (
    100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
    100_000.0, 500_000.0, 1_000_000.0, 5_000_000.0,
)

#: Fixed buckets (µs) of ``flep_preempt_stall_us``: FLEP drains
#: span tens of µs (trivial inputs) to tens of ms (Table 1's worst cases).
LATENCY_US_BUCKETS: Tuple[float, ...] = (
    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0,
    10_000.0, 50_000.0, 100_000.0, 500_000.0,
)


#: The span of each mechanism's preemption stall, which runs from the
#: first request to the drain (temporal) or the victim's top-up (spatial).
STALL_SPANS: Dict[str, str] = {"temporal": "drain", "spatial": "spatial_yield"}


def _event_kind(label: str) -> str:
    """Collapse an event label to a bounded-cardinality class:
    ``"NN__flep/ctx3/batch" -> "batch"``, ``"launch:NN" -> "launch"``."""
    if not label:
        return "unlabelled"
    return label.rsplit("/", 1)[-1].split(":", 1)[0]


def _synced(attr: str) -> property:
    """A registry family fed by plain hot-hook counters: reading it folds
    the counters in first."""

    def get(self):
        self._sync()
        return getattr(self, attr)

    return property(get)


class Observability:
    """Live hub: a metrics registry, a span tracer and the self-profile."""

    #: Hot paths check this before calling any hook.
    enabled = True
    #: Events between two queue-depth samples.
    sample_every = 64
    #: Cap on each timeline; the overflow is counted in
    #: ``dropped_samples``, so truncation is never silent.
    max_samples = 20_000

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._metrics = MetricsRegistry()
        self.tracer = SpanTracer(clock if clock is not None else lambda: 0.0)
        self._register_catalog()
        #: per-invocation open spans: inv_id -> {"inv": .., "seg": ..,
        #: "drain": .., "spatial": ..}
        self._inv_spans: Dict[int, Dict[str, Span]] = {}
        #: the scheduler decision log, one entry per runtime decision
        self.decisions: List[DecisionEvent] = []
        # hot counters: plain ints and a raw-label dict, folded into their
        # registry families on read (_sync)
        self._by_label: Dict[str, int] = {}
        self._sm_resident: Dict[int, int] = {}
        self.task_pulls = 0
        self.flag_polls = 0
        self.cta_admissions = 0
        #: batches retired inside macro cohorts (no per-batch event fired
        #: for them); surfaced as the ``macro-batch`` kind
        self.batches_collapsed = 0
        # bounded timelines: (t, depth) and (t, sm, resident)
        self._since_sample = 0
        self.queue_samples: List[Tuple[float, int]] = []
        self.sm_samples: List[Tuple[float, int, int]] = []
        self.dropped_samples = 0

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the span tracer at a (new) simulation clock.

        A window's hub, built before any system exists, starts on a
        zero clock; each system that adopts it re-binds the tracer to
        its own simulator, which the counter tracks, the SM samples and
        ``finalize`` read (spans carry their own simulator's time)."""
        self.tracer._clock = clock

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def _register_catalog(self) -> None:
        m = self._metrics
        self._m_sim_events = m.counter(
            "flep_sim_events_total",
            "discrete events executed by the simulator, by event kind",
            ("kind",),
        )
        self.m_launches = m.counter(
            "flep_kernel_launches_total",
            "kernel-launch commands sent to the device, by kernel image",
            ("kernel",),
        )
        self.m_relaunches = m.counter(
            "flep_kernel_relaunches_total",
            "grids relaunched by the runtime (resume after a temporal "
            "preemption, or top-up after a spatial guest left)",
            ("reason",),
        )
        self._m_cta_admissions = m.counter(
            "flep_cta_admissions_total",
            "CTA contexts admitted onto SMs",
        )
        self._m_sm_resident = m.gauge(
            "flep_sm_resident_ctas",
            "CTA contexts currently resident, per SM",
            ("sm",),
        )
        self.m_hw_queue = m.gauge(
            "flep_hw_queue_depth",
            "grids in the device-wide hardware FIFO",
        )
        self._m_task_pulls = m.counter(
            "flep_task_pulls_total",
            "tasks pulled from persistent-kernel task pools",
        )
        self._m_flag_polls = m.counter(
            "flep_flag_polls_total",
            "pinned-memory preemption-flag polls performed by CTAs",
        )
        self._m_batches_collapsed = m.counter(
            "flep_batches_collapsed_total",
            "persistent-kernel batches retired inside macro cohorts, "
            "with no per-batch event fired",
        )
        self.m_preempt_req = m.counter(
            "flep_preemptions_requested_total",
            "preemption requests issued by the scheduler, by kind",
            ("kind",),
        )
        self.m_preempt_done = m.counter(
            "flep_preemptions_completed_total",
            "preemptions that finished (temporal: drained; spatial: "
            "victim topped back up), by kind",
            ("kind",),
        )
        self.m_stall = m.histogram(
            "flep_preempt_stall_us",
            "preemption stall from the first request to the drain "
            "(temporal) or the victim's top-up (spatial), on the "
            "invocation's own clock (µs), by kind",
            ("kind",),
            buckets=LATENCY_US_BUCKETS,
        )
        self.m_pred_err = m.histogram(
            "flep_predictor_abs_error_us",
            "absolute error |T_e - measured GPU time| of the duration "
            "predictor at invocation completion (µs)",
        )
        self.m_invocations = m.counter(
            "flep_invocations_total",
            "kernel invocations intercepted by the runtime",
        )
        self.m_finished = m.counter(
            "flep_invocations_finished_total",
            "kernel invocations that ran to completion",
        )
        self.m_queue_depth = m.gauge(
            "flep_queue_depth",
            "invocations waiting in the scheduling policy's queues",
            ("policy",),
        )
        self.m_wait = m.histogram(
            "flep_invocation_wait_us",
            "accumulated scheduler wait T_w at completion (µs)",
            buckets=TURNAROUND_US_BUCKETS,
        )
        self.m_turnaround = m.histogram(
            "flep_invocation_turnaround_us",
            "arrival-to-completion turnaround (µs)",
            buckets=TURNAROUND_US_BUCKETS,
        )

    metrics = _synced("_metrics")
    m_sim_events = _synced("_m_sim_events")
    m_cta_admissions = _synced("_m_cta_admissions")
    m_sm_resident = _synced("_m_sm_resident")
    m_task_pulls = _synced("_m_task_pulls")
    m_flag_polls = _synced("_m_flag_polls")
    m_batches_collapsed = _synced("_m_batches_collapsed")

    def _sync(self) -> None:
        """Rebuild the hot-fed registry families from the plain counters
        (idempotent: each read recomputes them)."""
        kinds: Dict[Tuple[str, ...], float] = {}
        for label, n in self._by_label.items():
            key = (_event_kind(label),)
            kinds[key] = kinds.get(key, 0.0) + n
        self._m_sim_events._values = kinds
        self._m_sm_resident._values = {
            (str(sm),): float(n) for sm, n in self._sm_resident.items()
        }
        for fam, n in (
            (self._m_cta_admissions, self.cta_admissions),
            (self._m_task_pulls, self.task_pulls),
            (self._m_flag_polls, self.flag_polls),
            (self._m_batches_collapsed, self.batches_collapsed),
        ):
            fam._values = {(): float(n)} if n else {}

    # ------------------------------------------------------------------
    # simulator / device hooks (hot paths: call only when ``enabled``)
    # ------------------------------------------------------------------
    def on_event(self, label: str, queue_depth: int, at_us: float) -> None:
        """One simulator event fired at ``at_us`` on its simulator's
        clock; ``queue_depth`` is the heap length after the pop. One dict
        increment plus a decimation count."""
        by_label = self._by_label
        by_label[label] = by_label.get(label, 0) + 1
        self._since_sample += 1
        if self._since_sample >= self.sample_every:
            self._since_sample = 0
            self._sample(self.queue_samples, (at_us, queue_depth))

    def on_batch(self, tasks: int, polls: int) -> None:
        """Persistent-kernel work retired: ``tasks`` pulled from a task
        pool, ``polls`` preemption-flag polls."""
        self.task_pulls += tasks
        self.flag_polls += polls

    def on_macro_collapse(self, batches: int) -> None:
        """``batches`` per-batch events were collapsed into a macro
        cohort's commit (:mod:`repro.gpu.macro`); their tasks and polls
        were charged through :meth:`on_batch`."""
        self.batches_collapsed += batches

    def on_sm_admit(self, sm_id: int, resident: int) -> None:
        """A CTA context was admitted onto ``sm_id``."""
        self.cta_admissions += 1
        self._sm_resident[sm_id] = resident
        self._sample(self.sm_samples, (self.tracer.now, sm_id, resident))

    def on_sm_release(self, sm_id: int, resident: int) -> None:
        """A CTA context left ``sm_id``."""
        self._sm_resident[sm_id] = resident
        self._sample(self.sm_samples, (self.tracer.now, sm_id, resident))

    def _sample(self, timeline: list, sample: tuple) -> None:
        if len(timeline) < self.max_samples:
            timeline.append(sample)
        else:
            self.dropped_samples += 1

    def kernel_launched(self, kernel_name: str) -> None:
        self.m_launches.inc(kernel=kernel_name)

    def kernel_relaunched(self, reason: str) -> None:
        self.m_relaunches.inc(reason=reason)

    def hw_queue_depth(self, depth: int) -> None:
        self.m_hw_queue.set(depth)
        self.tracer.counter("hw_queue_depth", process="device", grids=depth)

    # ------------------------------------------------------------------
    # runtime-engine hooks (invocation lifecycle -> spans + metrics)
    # ------------------------------------------------------------------
    def _state(self, inv_id: int) -> Dict[str, Span]:
        return self._inv_spans.setdefault(inv_id, {})

    def _begin(self, inv, name: str, at_us: float, cat: str, **args) -> Span:
        return self.tracer.begin(
            name, at_us, cat=cat, process=inv.process, track=inv.inv_id,
            **args,
        )

    def _decide(self, inv, kind: DecisionKind, detail: str = "") -> None:
        self.decisions.append(DecisionEvent(
            inv.engine.sim.now, kind, inv.inv_id, inv.process,
            inv.kspec.name, detail,
        ))

    # Every invocation record is stamped with the invocation's own
    # simulator (``inv.engine.sim.now``): fleet nodes share one hub,
    # whose clock is bound to the last node built.
    def inv_arrived(self, inv) -> None:
        detail = f"prio={inv.priority}, T_e={inv.record.predicted_us:.0f}us"
        if inv.deadline_us is not None:
            detail += f", deadline={inv.deadline_us:.0f}us"
        self._decide(inv, DecisionKind.ARRIVAL, detail)
        self.m_invocations.inc()
        now = inv.engine.sim.now
        state = self._state(inv.inv_id)
        label = f"{inv.kspec.name}[{inv.inp.name}]"
        self.tracer.name_track(
            inv.process, inv.inv_id, f"inv#{inv.inv_id} {label}"
        )
        state["inv"] = self._begin(
            inv, label, now, "invocation",
            priority=inv.priority, predicted_us=inv.record.predicted_us,
        )
        state["seg"] = self._begin(inv, "wait", now, "segment")

    def inv_scheduled(self, inv, resumed: bool, ctas: int) -> None:
        self._decide(
            inv, DecisionKind.RESUME if resumed else DecisionKind.LAUNCH,
            f"ctas={ctas}",
        )
        now = inv.engine.sim.now
        state = self._state(inv.inv_id)
        self._end_segment(state, now)
        name = "resume" if resumed else "execute"
        state["seg"] = self._begin(inv, name, now, "segment")
        if resumed:
            self.kernel_relaunched("resume")

    def inv_preempt_requested(self, inv, kind: str, yield_sms: int) -> None:
        if kind == "temporal":
            self._decide(inv, DecisionKind.PREEMPT_TEMPORAL)
        else:
            self._decide(
                inv, DecisionKind.PREEMPT_SPATIAL, f"yield_sms={yield_sms}"
            )
        self.m_preempt_req.inc(kind=kind)
        now = inv.engine.sim.now
        self.tracer.instant(
            f"preempt_{kind}", now, cat="preempt", process=inv.process,
            track=inv.inv_id, yield_sms=yield_sms,
        )
        state = self._state(inv.inv_id)
        # the stall opens at the first request; a repeat joins it
        if kind not in state:
            state[kind] = self._begin(
                inv, STALL_SPANS[kind], now, "preempt", yield_sms=yield_sms
            )

    def inv_drained(self, inv) -> None:
        """A temporally preempted invocation is fully off the GPU."""
        self._decide(
            inv, DecisionKind.DRAINED, f"T_r={inv.record.remaining_us:.0f}us"
        )
        self.m_preempt_done.inc(kind="temporal")
        now = inv.engine.sim.now
        state = self._state(inv.inv_id)
        self._close_stall(state, "temporal", now)
        self._end_segment(state, now)
        state["seg"] = self._begin(inv, "wait", now, "segment")

    def inv_topped_up(self, inv, ctas: int) -> None:
        """A spatial guest left; the victim reclaimed its SMs, launching
        ``ctas`` new workers (0 when none were missing)."""
        if ctas:
            self._decide(inv, DecisionKind.TOP_UP, f"ctas={ctas}")
        self.m_preempt_done.inc(kind="spatial")
        self.kernel_relaunched("top_up")
        self._close_stall(
            self._state(inv.inv_id), "spatial", inv.engine.sim.now
        )

    def inv_finished(self, inv) -> None:
        self._decide(inv, DecisionKind.COMPLETE)
        self.m_finished.inc()
        record = inv.record
        err = abs(record.predicted_us - record.gpu_time_us)
        self.m_pred_err.observe(err)
        self.m_wait.observe(record.waited_us)
        if record.turnaround_us is not None:
            self.m_turnaround.observe(record.turnaround_us)
        now = inv.engine.sim.now
        state = self._inv_spans.pop(inv.inv_id, {})
        for key in ("temporal", "spatial", "seg"):
            span = state.pop(key, None)
            if span is not None:
                self.tracer.end(span, now)
        outer = state.pop("inv", None)
        if outer is not None:
            self.tracer.end(
                outer,
                now,
                waited_us=record.waited_us,
                preemptions=record.preemptions,
                predictor_abs_error_us=err,
            )

    def queue_depth(self, policy_name: str, depth: int) -> None:
        self.m_queue_depth.set(depth, policy=policy_name)
        self.tracer.counter(
            "policy_queue_depth", process="scheduler", waiting=depth
        )

    def _close_stall(
        self, state: Dict[str, Span], kind: str, at_us: float
    ) -> None:
        """End ``kind``'s open stall span, if any: its duration is the
        stall, observed once into ``flep_preempt_stall_us``."""
        span = state.pop(kind, None)
        if span is not None:
            latency_us = at_us - span.start_us
            self.tracer.end(span, at_us, latency_us=latency_us)
            self.m_stall.observe(latency_us, kind=kind)

    def _end_segment(self, state: Dict[str, Span], at_us: float) -> None:
        seg = state.pop("seg", None)
        if seg is not None:
            self.tracer.end(seg, at_us)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close any spans left open (end of a run / horizon cut)."""
        self._inv_spans.clear()
        self.tracer.close_open()

    # ------------------------------------------------------------------
    # self-profile readings
    # ------------------------------------------------------------------
    @property
    def events_by_kind(self) -> Dict[str, int]:
        """Fired events per kind, plus the ``macro-batch`` events macro
        cohorts avoided firing."""
        out: Dict[str, int] = {}
        for label, n in self._by_label.items():
            kind = _event_kind(label)
            out[kind] = out.get(kind, 0) + n
        if self.batches_collapsed:
            out["macro-batch"] = (
                out.get("macro-batch", 0) + self.batches_collapsed
            )
        return out

    @property
    def preempt_requested(self) -> Dict[str, int]:
        """Preemption requests per kind."""
        return {
            key[0]: int(n) for key, n in self.m_preempt_req._values.items()
        }

    def stall_latency(self) -> Dict[str, Dict[str, object]]:
        """Per-kind preemption-stall summary: count, sum and buckets
        from ``flep_preempt_stall_us``, extremes from the closed stall
        spans (kinds with no completed stall are left out)."""
        hist = self.m_stall
        out: Dict[str, Dict[str, object]] = {}
        for kind, name in sorted(STALL_SPANS.items()):
            count = hist.count(kind=kind)
            if not count:
                continue
            stalls = [
                s.args["latency_us"] for s in self.tracer.spans_named(name)
                if "latency_us" in s.args
            ]
            out[kind] = {
                "buckets_us": list(hist.buckets),
                "bucket_counts": hist.bucket_counts(kind=kind),
                "count": count,
                "sum_us": hist.sum(kind=kind),
                "mean_us": hist.mean(kind=kind),
                "min_us": min(stalls),
                "max_us": max(stalls),
            }
        return out

    def format_profile(self, window) -> str:
        """Human-readable self-profile (``flep stats --profile``); the
        engine lines come from ``window``, the :class:`EngineWindow`
        around the same runs."""
        engine = window.engine_block()
        lines = [
            "== simulator self-profile ==",
            f"events          {engine['events']}"
            f" ({engine['events_per_sec']:,.0f}/s over"
            f" {engine['wall_s']:.3f}s wall, {engine['sims']} sim(s))",
            f"simulated time  {engine['sim_us'] / 1e6:.6f}s"
            f" ({engine['sim_us_per_wall_s'] / 1e6:.3f} sim-s per wall-s)",
            f"queue depth     peak {engine['peak_queue_depth']}"
            f" (scheduled {window.events_scheduled})",
            f"hot loop        task_pulls={self.task_pulls}"
            f" flag_polls={self.flag_polls}"
            f" cta_admissions={self.cta_admissions}"
            f" batches_collapsed={self.batches_collapsed}",
        ]
        by_kind = self.events_by_kind
        for kind in sorted(by_kind):
            lines.append(f"  event[{kind:<12s}] {by_kind[kind]}")
        requested = self.preempt_requested
        for kind, stat in self.stall_latency().items():
            lines.append(
                f"preempt[{kind}] requested={requested.get(kind, 0)} "
                f"completed={stat['count']} "
                f"latency mean={stat['mean_us']:.0f}us "
                f"min={stat['min_us']:.0f}us max={stat['max_us']:.0f}us"
            )
        if self.dropped_samples:
            lines.append(
                f"(timelines truncated: {self.dropped_samples} samples "
                f"dropped beyond max_samples={self.max_samples})"
            )
        return "\n".join(lines)

    def export_to_tracer(self, tracer: SpanTracer) -> int:
        """Render the self-profile timelines into ``tracer`` as counter
        tracks of a ``profiler`` process: event-queue depth and per-SM
        residency. Returns the number of trace records added (stalls
        already are the ``drain`` / ``spatial_yield`` spans)."""
        for at_us, depth in self.queue_samples:
            tracer.counter_at(
                "event_queue_depth", at_us, process="profiler", depth=depth
            )
        for at_us, sm_id, resident in self.sm_samples:
            tracer.counter_at(
                f"sm{sm_id}_resident", at_us, process="profiler",
                ctas=resident,
            )
        return len(self.queue_samples) + len(self.sm_samples)


class NullObservability(Observability):
    """The default recorder: every hook is a no-op.

    It still owns (empty) metrics/tracer objects so accidental access in
    cold paths never crashes, but nothing is ever recorded.
    """

    enabled = False

    def on_event(self, label, queue_depth, at_us):  # noqa: D102 - no-op hooks
        pass

    def on_batch(self, tasks, polls):
        pass

    def on_macro_collapse(self, batches):
        pass

    def on_sm_admit(self, sm_id, resident):
        pass

    def on_sm_release(self, sm_id, resident):
        pass

    def kernel_launched(self, kernel_name):
        pass

    def kernel_relaunched(self, reason):
        pass

    def hw_queue_depth(self, depth):
        pass

    def inv_arrived(self, inv):
        pass

    def inv_scheduled(self, inv, resumed, ctas):
        pass

    def inv_preempt_requested(self, inv, kind, yield_sms):
        pass

    def inv_drained(self, inv):
        pass

    def inv_topped_up(self, inv, ctas):
        pass

    def inv_finished(self, inv):
        pass

    def queue_depth(self, policy_name, depth):
        pass

    def bind_clock(self, clock):
        pass

    def finalize(self):
        pass


#: Shared no-op recorder used as the default everywhere.
NULL_OBS = NullObservability()

# ---------------------------------------------------------------------------
# the run window: one registry for everything a block builds
# ---------------------------------------------------------------------------
#: The innermost open :class:`EngineWindow` (None outside every window).
_OPEN: Optional["EngineWindow"] = None


class EngineWindow:
    """Every simulator and device digest built inside a ``with`` block,
    and the block's wall time::

        with EngineWindow(hub=True) as window:
            EXPERIMENTS["fig8"].run()
        print(window.engine_block(), window.schedule_hash())

    Counts come from the engines' own ``EventLoopStats`` and the hash
    from the devices' always-on digests, so the window adds nothing to
    the event loop; it keeps each device's digest, not the device, so a
    window held open does not keep finished devices alive. ``hub`` (an
    :class:`Observability`, or ``True`` for a fresh one) is what systems
    built inside adopt when given none; ``timelines=True`` gives every
    device built inside a fresh ``Timeline``. The innermost open window
    gets everything built inside it; an outer window sees nothing from
    an inner one.
    """

    def __init__(
        self,
        hub: Union[bool, Observability, None] = None,
        timelines: bool = False,
    ):
        self.hub: Optional[Observability] = (
            hub if isinstance(hub, Observability)
            else Observability() if hub else None
        )
        self.sims: list = []
        #: each device's ScheduleHash, in build order
        self.scheds: list = []
        #: one Timeline per device built inside, if requested
        self.timelines: Optional[list] = [] if timelines else None
        self.wall_s = 0.0
        self._outer: Optional[EngineWindow] = None
        self._started = 0.0

    def __enter__(self) -> "EngineWindow":
        global _OPEN
        self._outer, _OPEN = _OPEN, self
        self._started = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        global _OPEN
        self.wall_s += perf_counter() - self._started
        _OPEN = self._outer

    @property
    def events(self) -> int:
        """Events executed across the window's simulators."""
        return sum(s.stats.processed for s in self.sims)

    @property
    def events_scheduled(self) -> int:
        """Events pushed onto the window's simulators' heaps."""
        return sum(s.stats.scheduled for s in self.sims)

    @property
    def peak_queue_depth(self) -> int:
        """Highest heap length any of the window's simulators reached."""
        return max((s.stats.peak_pending for s in self.sims), default=0)

    @property
    def sim_us(self) -> float:
        """Simulated µs advanced across the window's simulators."""
        return sum(s.now - s.start_time for s in self.sims)

    def engine_block(self) -> Dict[str, object]:
        """The compact ``engine`` dict that ``flep run/serve/fleet
        --json`` and ``flep bench`` report."""
        wall = self.wall_s
        return {
            "events": self.events,
            "events_per_sec": self.events / wall if wall > 0 else 0.0,
            "wall_s": wall,
            "peak_queue_depth": self.peak_queue_depth,
            "sim_us": self.sim_us,
            "sim_us_per_wall_s": self.sim_us / wall if wall > 0 else 0.0,
            "sims": len(self.sims),
        }

    def schedule_hash(self) -> str:
        """One digest over the window's devices' schedule digests, in
        build order (read it after the run)."""
        from ..gpu.trace import combined_schedule_hash

        return combined_schedule_hash([s.hexdigest for s in self.scheds])


def register_simulator(sim) -> None:
    """Every Simulator constructor's one call: the innermost open
    window, if any, collects ``sim``."""
    if _OPEN is not None:
        _OPEN.sims.append(sim)


def register_device(gpu) -> None:
    """Every SimulatedGPU constructor's one call: the innermost open
    window, if any, collects ``gpu``'s schedule digest and, when it
    records timelines, gives it a fresh Timeline."""
    window = _OPEN
    if window is None:
        return
    window.scheds.append(gpu.sched)
    if window.timelines is not None:
        from ..gpu.trace import Timeline

        timeline = Timeline()
        gpu.listeners.append(timeline)
        window.timelines.append(timeline)


def get_global() -> Optional[Observability]:
    """The innermost open window's hub, if any."""
    return _OPEN.hub if _OPEN is not None else None


def adopt_hub(
    observability: Union[bool, Observability, None],
    clock: Callable[[], float],
) -> Observability:
    """The hub a system records into: an explicit instance wins;
    ``True`` builds a fresh hub; anything else picks up the innermost
    open window's hub, else the null hub. An enabled hub is bound to
    ``clock``."""
    if isinstance(observability, Observability):
        hub = observability
    elif observability:
        hub = Observability(clock=clock)
    else:
        hub = get_global() or NULL_OBS
    if hub.enabled:
        hub.bind_clock(clock)
    return hub


@contextmanager
def observed(hub: Optional[Observability] = None):
    """A window with ``hub`` (or a fresh one), yielding the hub; the
    benchmark's self-tests (``perfbench/tests``) still call it. New code
    opens ``EngineWindow(hub=...)``."""
    with EngineWindow(hub=hub if hub is not None else True) as window:
        yield window.hub
