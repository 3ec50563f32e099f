"""Online invariant monitor tests.

The acceptance case for the whole layer is the *planted* defect: run a
correct workload against a spec whose budgets are one unit too small and
the resource monitor must fire at the first over-full event."""

from collections import Counter

import pytest

from repro.core.flep import FlepSystem
from repro.core.policies.edf import EDFPolicy
from repro.core.policies.hpf import HPFPolicy
from repro.errors import InvariantViolation, ValidationError
from repro.fleet import FleetConfig, FleetSystem
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.kernel import (
    KernelImage,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.gpu.memory import PinnedFlag
from repro.gpu.sm import SM
from repro.runtime.engine import RuntimeConfig
from repro.serving import PoissonLoadGen, Tenant
from repro.validate import (
    Monitor,
    MonitorSet,
    MonotonicTimeMonitor,
    ResourceBudgetMonitor,
    SpatialPartitionMonitor,
    WorkConservationMonitor,
    install_monitors,
)
from repro.validate.monitors import off_by_one_spec


def light(name="k", task_us=10.0, threads=64):
    return KernelImage(name, ResourceUsage(threads, 8, 0), TaskModel(task_us))


class EventCounter(Monitor):
    """Counts the events the monitor set has seen."""

    count = 0

    def on_event(self, ev) -> None:
        self.count += 1


def monitored_fleet(suite, duration_ms, web=True):
    """A three-node fleet (spatial, temporal, MPS) under a steady
    Poisson load: its live queues stay the same size as it runs. Without
    the high-priority ``web`` tenant nothing is preempted."""
    fleet = FleetSystem(
        [Tenant("web", priority=1, slo_us=3_000.0),
         Tenant("batch", priority=0)],
        FleetConfig(
            node_modes=("flep-spatial", "flep-temporal", "mps"),
            seed=5, oracle_model=True,
        ),
        device=suite.device, suite=suite,
    )
    if web:
        fleet.add_generator(PoissonLoadGen(
            tenant="web", kernels=("SPMV", "MM", "PL"), rate_per_ms=1.0,
            duration_ms=duration_ms, seed=5, input_names=("trivial",),
            priority=1,
        ))
    fleet.add_generator(PoissonLoadGen(
        tenant="batch", kernels=("SPMV", "MM"), rate_per_ms=0.5,
        duration_ms=duration_ms, seed=6, input_names=("small",),
        priority=0,
    ))
    return fleet


class TestMonitorSet:
    def test_install_chains_previous_trace_hook(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        seen = []
        sim.set_trace(lambda ev: seen.append(ev.label))
        monitors = install_monitors(gpu)
        gpu.launch(light(), LaunchConfig.original(2))
        sim.run()
        monitors.finalize()
        assert seen  # the pre-existing hook still fires under monitoring

    def test_uninstall_restores_previous_hook(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        previous = lambda ev: None  # noqa: E731
        sim.set_trace(previous)
        install_monitors(gpu).uninstall()
        assert sim._trace is previous

    def test_context_manager_finalizes_and_uninstalls(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        with install_monitors(gpu):
            gpu.launch(light(), LaunchConfig.original(2))
            sim.run()
        assert sim._trace is None

    def test_unmonitored_sim_has_no_trace_hook(self, sim):
        """Zero-cost contract: nothing is installed by default."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        gpu.launch(light(), LaunchConfig.original(2))
        sim.run()
        assert sim._trace is None

    def test_install_monitors_rejects_unknown_target(self):
        with pytest.raises(ValidationError):
            install_monitors(object())


class TestResourceBudget:
    def test_clean_run_passes(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        with install_monitors(gpu):
            gpu.launch(light(), LaunchConfig.original(8))
            sim.run()

    def test_planted_off_by_one_slot_budget_is_caught(self, sim):
        """The canonical plant: audit a correct 2-CTA-per-SM placement
        against a spec allowing only 1 slot. The monitor must fire at the
        event where the second CTA becomes resident, naming the SM."""
        spec = small_test_gpu()
        gpu = SimulatedGPU(sim, spec)
        monitors = MonitorSet(
            sim, [ResourceBudgetMonitor(gpu, spec=off_by_one_spec(spec))]
        ).install()
        gpu.launch(light(), LaunchConfig.original(4))  # 2 CTAs per SM
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert "monitor=resource-budget" in str(exc.value)
        assert "sm=" in str(exc.value)
        monitors.uninstall()

    def test_off_by_one_spec_shaves_every_budget(self):
        spec = small_test_gpu()
        tight = off_by_one_spec(spec)
        assert tight.max_ctas_per_sm == spec.max_ctas_per_sm - 1
        assert tight.max_threads_per_sm == spec.max_threads_per_sm - 1
        assert tight.max_warps_per_sm == spec.max_warps_per_sm - 1
        assert tight.registers_per_sm == spec.registers_per_sm - 1
        assert tight.shared_mem_per_sm == spec.shared_mem_per_sm - 1


class TestWorkConservation:
    def test_tracked_pool_checked_per_event(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        monitor = WorkConservationMonitor(gpu=gpu)
        pool = TaskPool(6)
        monitor.track(pool, "manual")
        MonitorSet(sim, [monitor]).install()
        gpu.launch(light(), LaunchConfig.original(6), pool=pool)
        sim.run()
        monitor.finalize(sim.now)
        assert pool.complete

    def test_require_complete_flags_unfinished_work(self, sim):
        monitor = WorkConservationMonitor(require_complete=True)
        pool = TaskPool(6)
        pool.take(3)  # outstanding work, never finished
        monitor.track(pool, "stuck")
        with pytest.raises(InvariantViolation):
            monitor.finalize(0.0)

    def test_planted_double_commit_on_live_pool_caught_at_next_event(
        self, sim
    ):
        """A mid-run event commits one task twice on a queued grid's
        pool; the check at the very next event catches it."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        seen = EventCounter()
        monitor = WorkConservationMonitor(gpu=gpu)
        MonitorSet(sim, [seen, monitor]).install()
        grid = gpu.launch(light(task_us=50.0), LaunchConfig.original(64))
        planted_at = []

        def double_commit():
            assert grid in gpu._queue  # the pool is live
            grid.pool._done += 1
            planted_at.append(seen.count)

        sim.schedule(120.0, double_commit)
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        assert "task conservation broken" in str(exc.value)
        assert seen.count == planted_at[0] + 1

    def test_mutated_retired_pool_caught_by_finalize_at_latest(self, sim):
        """A pool whose grid completed is no longer checked per event;
        a later rollback of its commits still fails the run."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        monitors = install_monitors(gpu)
        short = gpu.launch(light("short"), LaunchConfig.original(2))
        gpu.launch(light("long", task_us=400.0), LaunchConfig.original(8))

        def rollback():
            assert short.pool.complete and short not in gpu._queue
            short.pool._done -= 1
            short.pool._remaining += 1

        sim.schedule(200.0, rollback)
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
            monitors.finalize()
        assert "committed tasks decreased" in str(exc.value)
        assert "pool=short" in str(exc.value)

    def test_pool_checks_per_event_stay_flat_as_the_trace_grows(
        self, suite, monkeypatch
    ):
        """Per-event work follows the live queue, not every pool ever
        created: a 4x longer fleet trace costs the same number of pool
        checks per processed event."""
        checks = [0]
        check = WorkConservationMonitor._check

        def counted(self, entry):
            checks[0] += 1
            return check(self, entry)

        monkeypatch.setattr(WorkConservationMonitor, "_check", counted)

        def checks_per_event(duration_ms):
            fleet = monitored_fleet(suite, duration_ms)
            bundle = install_monitors(fleet, require_complete=True)
            checks[0] = 0
            fleet.run()
            bundle.finalize()
            events = sum(ms.sim.stats.processed for ms in bundle)
            return checks[0] / events

        short, long = checks_per_event(20.0), checks_per_event(80.0)
        assert long / short <= 1.5, (short, long)


    def test_device_checks_follow_changes_not_events(
        self, suite, monkeypatch
    ):
        """The resource-budget monitor checks one SM per placement and
        per retire; the spatial monitor arms deadlines only at a
        non-zero flag write, so a run with none arms no deadline."""
        counts = Counter()

        def count(cls, name, key, when=lambda *args: True):
            original = getattr(cls, name)

            def counted(*args):
                if when(*args):
                    counts[key] += 1
                return original(*args)

            monkeypatch.setattr(cls, name, counted)

        count(SM, "admit_fp", "placed")
        count(SM, "release_fp", "retired")
        count(ResourceBudgetMonitor, "_check", "checks")
        count(SpatialPartitionMonitor, "_deadline", "armed")
        count(PinnedFlag, "host_write", "writes",
              when=lambda flag, value: value > 0)

        def changes(web):
            counts.clear()
            fleet = monitored_fleet(suite, 20.0, web=web)
            bundle = install_monitors(fleet, require_complete=True)
            fleet.run()
            bundle.finalize()
            return counts.copy()

        busy = changes(web=True)
        assert busy["checks"] == busy["placed"] + busy["retired"] > 0
        assert busy["writes"] > 0 and busy["armed"] > 0
        quiet = changes(web=False)
        assert quiet["checks"] == quiet["placed"] + quiet["retired"] > 0
        assert quiet["writes"] == 0 and quiet["armed"] == 0


class TestSpatialPartition:
    @staticmethod
    def spatial_corun(suite):
        """VA preempted spatially by a trivial NN guest (flep-spatial)."""
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True, spatial_enabled=True),
        )
        system.submit_at(0.0, "victim", "VA", "large", priority=0)
        system.submit_at(500.0, "guest", "NN", "trivial", priority=1)
        return system

    def test_clean_spatial_preemption_passes(self, suite):
        system = self.spatial_corun(suite)
        monitors = MonitorSet(
            system.sim, [SpatialPartitionMonitor(system.gpu)]
        ).install()
        result = system.run()
        monitors.finalize()
        assert result.by_process("victim")[0].record.preemptions == 0

    def test_planted_short_deadline_is_caught(self, suite):
        """The plant: a slack that cancels the ``L`` tasks of one poll
        period, so the deadline is shorter than a correct drain. The
        monitor must fire while the victim yields part of the GPU."""
        system = self.spatial_corun(suite)
        system.sim.run(until=400.0)
        (victim,) = system.gpu._queue
        poll_period = min(
            ctx._amortize * ctx._per_task for ctx in victim.contexts
        )
        MonitorSet(system.sim, [
            SpatialPartitionMonitor(system.gpu, slack_us=-poll_period)
        ]).install()
        with pytest.raises(InvariantViolation) as exc:
            system.run()
        context = exc.value.context
        assert context["monitor"] == "spatial-partition"
        assert context["kernel"] == victim.kernel.name
        assert 0 < context["flag"] < system.gpu.spec.num_sms

    def test_context_that_left_in_the_final_event_is_not_reported(
        self, sim
    ):
        """The last processed event retires the last yielding CTA; a
        ``run(until=...)`` then moves the clock past its deadline.
        Finalize must not report the departed CTA as still resident."""
        gpu = SimulatedGPU(sim, small_test_gpu())
        kernel = light("p", task_us=5.0).transformed(2)
        flag = gpu.new_flag()
        grid = gpu.launch(
            kernel, LaunchConfig.persistent(400, 4), flag=flag
        )
        monitors = MonitorSet(sim, [SpatialPartitionMonitor(gpu)]).install()
        sim.schedule(80.0, lambda: flag.host_write(gpu.spec.num_sms))
        sim.run(until=150.0)
        assert grid.is_terminal and not grid.contexts
        # far past any deadline (one poll period, a few microseconds);
        # the pending event makes run(until=...) stop the clock there
        sim.schedule(10_000.0, lambda: None)
        sim.run(until=1_000.0)
        assert sim.now == 1_000.0
        monitors.finalize()


class TestMonotonicTime:
    def test_normal_run_is_monotone(self, sim):
        MonitorSet(sim, [MonotonicTimeMonitor(sim)]).install()
        for d in (5.0, 1.0, 3.0):
            sim.schedule(d, lambda: None)
        sim.run()  # no violation


class TestInvariantViolationContext:
    def test_context_is_formatted_into_the_message(self, sim):
        gpu = SimulatedGPU(sim, small_test_gpu())
        spec = off_by_one_spec(gpu.spec)
        MonitorSet(sim, [ResourceBudgetMonitor(gpu, spec=spec)]).install()
        gpu.launch(light(), LaunchConfig.original(4))
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        err = exc.value
        assert err.context["monitor"] == "resource-budget"
        assert "[" in str(err) and "]" in str(err)


class TestEndToEnd:
    def test_flep_system_run_under_full_monitor_stack(self, suite):
        system = FlepSystem(
            policy="hpf", device=suite.device, suite=suite,
            config=RuntimeConfig(oracle_model=True),
        )
        monitors = install_monitors(system, require_complete=True)
        system.submit_at(0.0, "low", "NN", "small", priority=0)
        system.submit_at(100.0, "high", "SPMV", "trivial", priority=1)
        result = system.run()
        monitors.finalize()
        assert result.all_finished


class TestDrainCompletionRegression:
    """A temporally-preempted victim whose yield boundary lands on its
    final task completes *while still enqueued as a victim*. The policy
    must drop it from the wait queue instead of re-dispatching a finished
    invocation (found by ``flep fuzz`` seed 42)."""

    class _Inv:
        def __init__(self, priority=0):
            import types

            self.priority = priority
            self.deadline_us = None
            self.record = types.SimpleNamespace(
                remaining_us=10.0, arrived_at=0.0
            )

    def test_hpf_drops_finished_victim_from_queue(self):
        policy = HPFPolicy()
        inv = self._Inv()
        policy.queues.enqueue(inv)
        policy.on_kernel_finished(inv)  # must not touch rt (still None)
        assert inv not in policy.queues
        assert policy.waiting_count() == 0

    def test_edf_drops_finished_victim_from_queue(self):
        policy = EDFPolicy()
        inv = self._Inv(priority=1)
        policy.queues.enqueue(inv)
        policy.on_kernel_finished(inv)
        assert inv not in policy.queues
        assert policy.waiting_count() == 0

    def test_fuzz_seed_42_replays_clean(self):
        """The original end-to-end trigger: spatial HPF where a high
        priority arrival temporally preempts MD right at its tail."""
        from repro.validate import generate_case, run_case

        case = generate_case(42)
        result = run_case(case)
        assert result.ok, result.error
