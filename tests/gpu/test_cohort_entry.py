"""Where a macro cohort may form: only where a placement pass ends.

A persistent grid's steady batch chain starts when its launch is placed
(FLEP's persistent-thread transform launches every worker at once), so
:meth:`Grid.end_pass` is the one place :meth:`MacroCohort.absorb` runs.
A pool whose grids would size their claims differently never forms a
cohort and runs per batch, as the reference loop does."""

import contextlib
import io
import json

from repro.cli import main
from repro.gpu.device import small_test_gpu
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.grid import Grid
from repro.gpu.kernel import (
    KernelImage, KernelMode, LaunchConfig, ResourceUsage, TaskModel, TaskPool,
)
from repro.gpu.macro import MacroCohort
from repro.gpu.sim import Simulator
from repro.obs.recorder import Observability
from repro.runtime.engine import FlepRuntime

#: the CI fleet pin that runs spatial preemption (4 FLEP-spatial GPUs,
#: trivial inputs); it has pools that reach a steady state between
#: batches, after their placement passes ended
SPATIAL_FLEET = ["fleet", "--gpus", "4", "--tenants", "6", "--rate", "0.2",
                 "--duration", "600", "--input", "trivial", "--json"]


def _spy_absorbs(monkeypatch):
    """Record, for every absorb, whether it ran inside ``end_pass`` and
    whether a cohort formed."""
    calls = []
    passes = []
    raw_absorb = MacroCohort.__dict__["absorb"].__func__
    raw_end_pass = Grid.end_pass

    def absorb(cls, grid, *args):
        formed = raw_absorb(cls, grid, *args)
        calls.append((bool(passes) and passes[-1] is grid, formed))
        return formed

    def end_pass(self):
        passes.append(self)
        try:
            raw_end_pass(self)
        finally:
            passes.pop()

    monkeypatch.setattr(MacroCohort, "absorb", classmethod(absorb))
    monkeypatch.setattr(Grid, "end_pass", end_pass)
    return calls


def test_cohorts_form_only_where_a_placement_pass_ends(monkeypatch):
    calls = _spy_absorbs(monkeypatch)
    spatial = []
    raw_preempt = FlepRuntime.preempt

    def preempt(self, inv, yield_sms=None):
        if yield_sms is not None and yield_sms < self.device.num_sms:
            spatial.append(inv)
        raw_preempt(self, inv, yield_sms)

    monkeypatch.setattr(FlepRuntime, "preempt", preempt)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(SPATIAL_FLEET) == 0
    doc = json.loads(out.getvalue())
    assert doc["schedule_hash"] == "fb76949c"
    assert spatial, "the trace must exercise spatial preemption"
    formed = [inside for inside, ok in calls if ok]
    assert formed, "the trace must form cohorts"
    assert all(inside for inside, _ in calls)


def _run_mixed_pool(use_reference):
    """A persistent grid (L=4) on a 4x2 GPU with two spare slots, joined
    40 µs later by a top-up grid of the same pool whose kernel polls
    every 2 tasks: the two grids claim with different guided sizes.
    Each launch reaches the device 50 µs after it is sent."""
    Simulator.use_reference_loop = use_reference
    hub = Observability()
    try:
        sim = Simulator()
        gpu = SimulatedGPU(sim, small_test_gpu(num_sms=4, max_ctas_per_sm=2))
        gpu.obs = hub

        def kernel(L):
            return KernelImage(
                "K", ResourceUsage(threads_per_cta=64, regs_per_thread=8),
                TaskModel(3.0), mode=KernelMode.PERSISTENT, amortize_l=L,
            )

        pool = TaskPool(2_000)
        flag = gpu.new_flag()
        main_grid = gpu.launch(
            kernel(4), LaunchConfig.persistent(2_000, 6), pool=pool, flag=flag,
        )
        grids = [main_grid]
        cohorts = []

        def top_up():
            grids.append(gpu.launch(
                kernel(2), LaunchConfig.persistent(2_000, 2),
                pool=pool, flag=flag,
            ))

        def probe():
            # once the top-up is placed, both grids drain the pool
            cohorts.append((len(pool._grids), pool._cohort))

        sim.schedule(40.0, top_up)
        sim.schedule(120.0, probe)
        sim.run()
    finally:
        Simulator.use_reference_loop = False
    return {
        "hash": gpu.sched.hexdigest,
        "done": pool.done,
        "task_pulls": hub.task_pulls,
        "flag_polls": hub.flag_polls,
        "end": sim.now,
        "states": [g.state for g in grids],
        "cohorts": cohorts,
    }


def test_mixed_size_pool_stays_per_batch_and_matches_the_reference(
    monkeypatch,
):
    calls = _spy_absorbs(monkeypatch)
    fast = _run_mixed_pool(False)
    ref = _run_mixed_pool(True)
    # the lone first grid formed a cohort at its pass; the top-up's pass
    # found the two grids sizing differently and formed none
    assert calls == [(True, True), (True, False)]
    assert fast["cohorts"] == [(2, None)]
    assert fast["done"] == 2_000
    for key in ("hash", "done", "task_pulls", "flag_polls", "end", "states"):
        assert fast[key] == ref[key], key
