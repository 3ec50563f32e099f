"""Golden-trace schedule identity across the engine's loop variants.

The optimized ``run()`` loop and the macro-event fast-forward
(:mod:`repro.gpu.macro`) are only allowed to be *faster* than the
step-by-step reference loop — never different where it can be observed.
Since the macro engine deliberately collapses ``batch`` events, identity
is asserted one level up (DESIGN.md §15): **kernel-level timelines** —
every CTA residency interval (SM id, start, end, kernel), their order,
and the crc32 ``schedule_hash`` over them — plus the aggregate
task-pull / flag-poll accounting, must be bit-identical between loops,
and under fleet fault plans.

Those checks are relative: a change that moved both loops the same way
would pass them. The pins below make them absolute.
"""

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import (
    KernelImage,
    KernelMode,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.gpu.sim import Simulator
from repro.gpu.trace import combined_schedule_hash
from repro.obs import EngineWindow, Observability
from repro.obs.bench import BUDGETS, SCENARIOS

#: CI-smoke scale; big enough that every scenario exercises dispatch,
#: preemption, cancellations and the batch loop.
SCALE = BUDGETS["small"]

#: Each bench scenario's ``combined_schedule_hash`` at the small budget —
#: the hashes CI's bench baseline (``benchmarks/baseline/BENCH_seed.json``)
#: holds. A change that moves a schedule must update the pin and say why.
PINNED_SCENARIO_HASHES = {
    "serving_sweep": "e813aab5",
    "fig8_mix": "760f6575",
    "preempt_storm": "373065b2",
    "fuzz_stress": "7fac2e32",
    "fleet_sweep": "0b75f927",
}

#: Per-device schedule hashes of :func:`_run_faulted_fleet` (two nodes,
#: then node 0's rejoined device).
PINNED_FAULTED_FLEET_HASHES = ["f74465c3", "9e339fb6", "ede84cce"]


def _intervals(timelines):
    return [
        [
            (iv.sm_id, iv.start_us, iv.end_us, iv.kernel, iv.tag)
            for iv in tl.intervals
        ]
        for tl in timelines
    ]


def _run_golden(name: str, use_reference: bool):
    """Run one bench scenario, returning its kernel-level golden trace:
    per-device interval tuples + schedule hashes, and the observability
    hub's aggregate hot-loop accounting.

    Scenarios construct their simulators internally, so timelines and
    counts are captured by one window with a hub that records a timeline
    per device.
    """
    Simulator.use_reference_loop = use_reference
    try:
        with EngineWindow(hub=True, timelines=True) as window:
            SCENARIOS[name].run(SCALE)
    finally:
        Simulator.use_reference_loop = False
    hub, timelines = window.hub, window.timelines
    return _intervals(timelines), [tl.schedule_hash() for tl in timelines], {
        "task_pulls": hub.task_pulls,
        "flag_polls": hub.flag_polls,
        "cta_admissions": hub.cta_admissions,
        "preempt_requested": hub.preempt_requested,
        "preempt_completed": {
            kind: stat.count for kind, stat in hub.latency.items()
        },
    }


#: one run per (scenario, loop) per session: the identity, pin and
#: determinism tests share them
_golden = lru_cache(maxsize=None)(_run_golden)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_macro_loop_replays_reference_timelines(name):
    """Kernel-level timelines, schedule hashes and aggregate hot-loop
    accounting are bit-identical between the macro-event loop and the
    per-batch reference loop, for every bench scenario."""
    fast_traces, fast_hashes, fast_totals = _golden(name, False)
    ref_traces, ref_hashes, ref_totals = _golden(name, True)
    assert fast_traces, f"scenario {name} recorded no timelines"
    assert any(fast_traces), f"scenario {name} recorded empty timelines"
    assert fast_traces == ref_traces
    assert fast_hashes == ref_hashes
    assert fast_totals == ref_totals


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_schedule_hashes_are_pinned(name):
    """The absolute small-budget schedule hash of every bench scenario,
    on the run the identity test above already made."""
    _, hashes, _ = _golden(name, False)
    assert combined_schedule_hash(hashes) == PINNED_SCENARIO_HASHES[name]


def _run_faulted_fleet(use_reference: bool):
    """A faulted fleet plan (crash + rejoin mid-run) under either loop."""
    from repro.fleet import FleetConfig, FleetSystem, parse_fault_spec
    from repro.serving import PoissonLoadGen, Tenant

    Simulator.use_reference_loop = use_reference
    try:
        with EngineWindow(timelines=True) as window:
            fleet = FleetSystem(
                [
                    Tenant("web", priority=2, slo_us=3_000.0),
                    Tenant("batch", priority=0),
                ],
                FleetConfig(
                    node_modes=("flep-temporal", "flep-spatial"),
                    routing="deadline", oracle_model=True, seed=5,
                    faults=parse_fault_spec("crash@2000:n0,rejoin@5000:n0"),
                ),
            )
            for i, (tenant, prio) in enumerate((("web", 2), ("batch", 0))):
                fleet.add_generator(PoissonLoadGen(
                    tenant=tenant, kernels=("SPMV", "PL"), rate_per_ms=0.6,
                    duration_ms=8.0, seed=5 + i, input_names=("trivial",),
                    priority=prio,
                ))
            fleet.run()
    finally:
        Simulator.use_reference_loop = False
    timelines = window.timelines
    return _intervals(timelines), [tl.schedule_hash() for tl in timelines]


_faulted_fleet = lru_cache(maxsize=None)(_run_faulted_fleet)


def test_macro_loop_identity_under_fleet_faults():
    """Node loss and rejoin mid-run (re-routing, give-backs) cannot
    perturb the macro loop's timelines either."""
    fast, fast_hashes = _faulted_fleet(False)
    ref, ref_hashes = _faulted_fleet(True)
    assert any(fast), "faulted fleet recorded empty timelines"
    assert fast == ref
    assert fast_hashes == ref_hashes


def test_faulted_fleet_schedule_hashes_are_pinned():
    _, hashes = _faulted_fleet(False)
    assert hashes == PINNED_FAULTED_FLEET_HASHES


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenarios_are_deterministic_across_runs(name):
    """A scenario replayed twice on the same loop is bit-identical —
    the property the drift gate in ``flep bench --compare`` relies on."""
    assert _golden(name, False) == _run_golden(name, use_reference=False)


# ---------------------------------------------------------------------------
# properties: the macro loop matches the reference on generated grids
# ---------------------------------------------------------------------------
def _run_grid(use_reference, num_sms, slots, tasks, task_us, L, writes, *,
              spatial=True, jitter=0.0, persistent=True, spare=0,
              top_up=None, seed=None):
    """One grid (persistent or original) on a small GPU, driven through
    a host-write schedule, with an optional top-up grid sharing its
    pool; returns everything externally observable."""
    capacity = num_sms * slots
    Simulator.use_reference_loop = use_reference
    hub = Observability()
    try:
        with EngineWindow(timelines=True) as window:
            sim = Simulator()
            gpu = SimulatedGPU(sim, small_test_gpu(
                num_sms=num_sms, max_ctas_per_sm=slots,
            ), seed=seed)
            gpu.obs = hub

            def kernel(mode):
                return KernelImage(
                    "K", ResourceUsage(threads_per_cta=64, regs_per_thread=8),
                    TaskModel(task_us, cta_jitter_frac=jitter), mode=mode,
                    amortize_l=L,
                    supports_spatial=spatial and mode is KernelMode.PERSISTENT,
                )

            pool = TaskPool(tasks)
            flag = gpu.new_flag()
            if persistent:
                gpu.launch(
                    kernel(KernelMode.PERSISTENT),
                    LaunchConfig.persistent(tasks, max(1, capacity - spare)),
                    pool=pool, flag=flag,
                )
                for at, value in writes:
                    sim.schedule(at, lambda v=value: flag.host_write(v))
            else:
                gpu.launch(
                    kernel(KernelMode.ORIGINAL), LaunchConfig.original(tasks),
                    pool=pool,
                )
            if top_up is not None:
                at, ctas, mode = top_up

                def launch_top_up():
                    # a resumed grid shares the pool, as runtime top-ups do
                    if pool.remaining <= 0:
                        return
                    gpu.launch(
                        kernel(mode), LaunchConfig(tasks, min(ctas, tasks)),
                        pool=pool,
                        flag=flag if mode is KernelMode.PERSISTENT else None,
                    )

                sim.schedule(at, launch_top_up)
            sim.run()
            end = sim.now
    finally:
        Simulator.use_reference_loop = False
    (tl,) = window.timelines
    return {
        "intervals": [
            (iv.sm_id, iv.start_us, iv.end_us) for iv in tl.intervals
        ],
        "hash": tl.schedule_hash(),
        "done": pool.done,
        "remaining": pool.remaining,
        "outstanding": pool.outstanding,
        "task_pulls": hub.task_pulls,
        "flag_polls": hub.flag_polls,
        "end": end,
    }


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=8),
    task_us=st.floats(min_value=0.5, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
    tasks=st.integers(min_value=1, max_value=400),
    spatial=st.booleans(),
    writes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=2_000.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=3,
    ),
)
def test_fast_forward_never_skips_a_flag_write(
    L, task_us, tasks, spatial, writes,
):
    """For arbitrary host-write schedules (preempts, clears, spatial
    thresholds) the macro loop's wake-ups observe every poll boundary
    the reference loop does: yields land at the same instants, the same
    tasks complete, and the same number of flag polls is charged."""
    args = (4, 2, tasks, task_us, L, writes)
    fast = _run_grid(False, *args, spatial=spatial)
    ref = _run_grid(True, *args, spatial=spatial)
    assert fast == ref


#: (SMs, CTA slots per SM): one lone context, a small grid, and a grid of
#: 64 contexts whose replay windows span many claims
_COHORT_SHAPES = {"lone": (1, 1), "small": (4, 2), "wide": (16, 4)}


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(sorted(_COHORT_SHAPES)),
    tasks=st.integers(min_value=1, max_value=3_000),
    task_us=st.floats(min_value=0.5, max_value=20.0,
                      allow_nan=False, allow_infinity=False),
    jitter=st.sampled_from([0.0, 0.3]),
    L=st.integers(min_value=1, max_value=8),
    persistent=st.booleans(),
    spare=st.integers(min_value=0, max_value=8),
    top_up=st.one_of(st.none(), st.tuples(
        st.floats(min_value=0.0, max_value=1_500.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=1, max_value=16),
        st.sampled_from([KernelMode.PERSISTENT, KernelMode.ORIGINAL]),
    )),
    writes=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=3_000.0,
                      allow_nan=False, allow_infinity=False),
            st.integers(min_value=0, max_value=18),
        ),
        max_size=3,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
# pinned shapes: a lone context's chain; 64 jittered contexts joined by a
# persistent top-up (multi-grid cohort) or an original one (mixed grids,
# per-grid sizes); host writes dissolving a cohort mid-plan; an original
# grid joined by a persistent top-up
@example("lone", 400, 3.0, 0.0, 4, True, 0, None, [], 1)
@example("wide", 3000, 2.0, 0.3, 4, True, 8,
         (10.0, 8, KernelMode.PERSISTENT), [], 7)
@example("wide", 3000, 2.0, 0.3, 4, True, 8,
         (10.0, 8, KernelMode.ORIGINAL), [], 7)
@example("small", 2000, 2.0, 0.0, 3, True, 0, None,
         [(300.0, 2), (600.0, 0)], 3)
@example("wide", 3000, 5.0, 0.3, 4, False, 0,
         (10.0, 16, KernelMode.PERSISTENT), [], 3)
def test_windowed_replay_matches_reference_on_cohort_shapes(
    shape, tasks, task_us, jitter, L, persistent, spare, top_up, writes,
    seed,
):
    """The macro loop's windowed replay — a lone context's one-entry
    windows, multi-claim windows over 64 contexts, per-context task times
    (seeded jitter), non-persistent grids, multi-grid cohorts over a
    shared pool (top-ups, mixed persistent/original) and host writes
    that dissolve a cohort mid-plan — is bit-identical to the per-batch
    reference loop: intervals, hash, pool counters, pulls and polls."""
    num_sms, slots = _COHORT_SHAPES[shape]
    args = (num_sms, slots, tasks, task_us, L, writes)
    kwargs = dict(jitter=jitter, persistent=persistent, spare=spare,
                  top_up=top_up, seed=seed)
    fast = _run_grid(False, *args, **kwargs)
    ref = _run_grid(True, *args, **kwargs)
    assert fast == ref

