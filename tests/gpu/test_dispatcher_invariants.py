"""Device-wide invariant tests: under random workload mixes and random
preemptions, SM resource limits are never exceeded and all work is
conserved.

The checker itself lives in :mod:`repro.validate.monitors`; these tests
exercise it against hypothesis-generated workloads."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gpu.device import small_test_gpu, tesla_k40
from repro.gpu.gpu import SimulatedGPU
from repro.gpu.grid import GridState
from repro.gpu.kernel import (
    KernelImage,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
)
from repro.gpu.sim import Simulator
from repro.validate import install_monitors


@st.composite
def workload(draw):
    """A random mixed workload: original + persistent grids with random
    footprints, arrival times and preemption requests."""
    n_grids = draw(st.integers(1, 6))
    grids = []
    for _ in range(n_grids):
        grids.append(
            {
                "persistent": draw(st.booleans()),
                "tasks": draw(st.integers(1, 300)),
                "task_us": draw(st.floats(1.0, 30.0)),
                "threads": draw(st.sampled_from([64, 128, 256, 512])),
                "regs": draw(st.integers(8, 64)),
                "smem": draw(st.sampled_from([0, 1024, 4096, 16384])),
                "at_us": draw(st.floats(0.0, 500.0)),
                "L": draw(st.sampled_from([1, 2, 5, 10])),
                "preempt_at": draw(
                    st.one_of(st.none(), st.floats(10.0, 3000.0))
                ),
            }
        )
    return grids


class TestInvariantsUnderRandomWorkloads:
    @given(spec=workload())
    def test_resources_and_conservation(self, spec):
        sim = Simulator()
        gpu = SimulatedGPU(sim, tesla_k40())
        install_monitors(gpu)
        pools = []
        for i, g in enumerate(spec):
            image = KernelImage(
                f"g{i}",
                ResourceUsage(g["threads"], g["regs"], g["smem"]),
                TaskModel(g["task_us"]),
            )
            pool = TaskPool(g["tasks"])
            pools.append((pool, g))
            if g["persistent"]:
                image = image.transformed(g["L"])
                flag = gpu.new_flag()
                from repro.gpu.occupancy import active_slots

                slots = active_slots(gpu.spec, image.resources)

                def launch(img=image, p=pool, f=flag, s=slots, gg=g):
                    gpu.launch(
                        img, LaunchConfig.persistent(p.total, s),
                        pool=p, flag=f,
                    )
                    if gg["preempt_at"] is not None:
                        sim.schedule(
                            gg["preempt_at"],
                            lambda: f.host_write(gpu.spec.num_sms),
                        )

                sim.schedule_at(g["at_us"], launch)
            else:
                def launch(img=image, p=pool):
                    gpu.launch(img, LaunchConfig.original(p.total), pool=p)

                sim.schedule_at(g["at_us"], launch)
        sim.run()
        for pool, g in pools:
            assert pool.outstanding == 0
            assert pool.done + pool.remaining == pool.total
            if not g["persistent"] or g["preempt_at"] is None:
                assert pool.complete

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 10),
        task_us=st.floats(1.0, 20.0),
    )
    @settings(max_examples=25)
    def test_fifo_dispatch_order_of_blocking_grids(self, seed, n, task_us):
        """Head-of-line blocking: a later grid is never *dispatched*
        before an earlier blocking grid finishes dispatching. (Completion
        order is only implied when task durations are uniform, which
        this test uses; a short later grid may legitimately finish under
        an earlier grid's tail otherwise.)"""
        rng = random.Random(seed)
        sim = Simulator()
        gpu = SimulatedGPU(sim, small_test_gpu())
        install_monitors(gpu)
        finish_order = []
        grids = []
        for i in range(n):
            image = KernelImage(
                f"g{i}", ResourceUsage(256, 16, 0), TaskModel(task_us)
            )
            tasks = rng.randint(8, 64)  # > 4 slots: every grid blocks
            grids.append(
                gpu.launch(
                    image, LaunchConfig.original(tasks),
                    on_complete=lambda g, i=i: finish_order.append(i),
                )
            )
        sim.run()
        # uniform durations: completions follow launch order
        assert finish_order == sorted(finish_order)
        # dispatch starts are ordered too
        starts = [g.first_dispatch_at for g in grids]
        assert starts == sorted(starts)


def _one_cta_at_a_time(gpu, footprint, n):
    """SM ids for ``n`` CTAs chosen one after another: the SM with the
    most free slots that can host one more (ties: lowest id), charged
    before the next choice."""
    threads, warps, regs, smem = footprint
    bank = gpu.bank
    free, th = list(bank.free), list(bank.threads)
    wp, rg, sh = list(bank.warps), list(bank.regs), list(bank.smem)
    order = []
    for _ in range(n):
        best = None
        for i in range(bank.n):
            if (
                free[i] > 0
                and th[i] + threads <= bank.max_threads
                and wp[i] + warps <= bank.max_warps
                and rg[i] + regs <= bank.max_regs
                and sh[i] + smem <= bank.max_smem
                and (best is None or free[i] > free[best])
            ):
                best = i
        if best is None:
            break
        order.append(best)
        free[best] -= 1
        th[best] += threads
        wp[best] += warps
        rg[best] += regs
        sh[best] += smem
    return order


_USAGE = st.tuples(
    st.sampled_from([32, 64, 128, 256, 512, 1024]),
    st.integers(0, 64),
    st.sampled_from([0, 1024, 4096, 16384]),
)


class TestPickOrder:
    @settings(max_examples=80, deadline=None)
    @given(
        prefill=st.lists(st.tuples(st.integers(0, 14), _USAGE), max_size=60),
        usage=_USAGE,
        n=st.integers(1, 300),
    )
    # slots, not resources, cap a tiny CTA; registers cap a fat one
    @example(prefill=[], usage=(32, 0, 0), n=300)
    @example(prefill=[(0, (1024, 32, 0))], usage=(256, 64, 0), n=300)
    def test_matches_one_cta_at_a_time(self, prefill, usage, n):
        """A placement pass's SM order equals choosing each CTA's SM
        after the previous one is admitted, on any occupancy."""
        from repro.gpu.grid import Grid

        sim = Simulator()
        gpu = SimulatedGPU(sim, tesla_k40())
        slots = gpu.spec.num_sms * gpu.spec.max_ctas_per_sm
        for sm_id, other in prefill:
            sm = gpu.sms[sm_id]
            filler = Grid(
                sim, gpu.spec,
                KernelImage("f", ResourceUsage(*other), TaskModel(1.0)),
                LaunchConfig.original(1),
            )
            if sm in gpu._pick_order(filler, slots):
                sm.admit_fp(object(), *filler._footprint)
        kernel = KernelImage("k", ResourceUsage(*usage), TaskModel(1.0))
        grid = Grid(sim, gpu.spec, kernel, LaunchConfig.original(n))
        got = [sm.sm_id for sm in gpu._pick_order(grid, n)]
        assert got == _one_cta_at_a_time(gpu, grid._footprint, n)
