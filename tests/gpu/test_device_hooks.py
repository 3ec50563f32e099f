"""The device's counting-hook contract (``SimulatedGPU.prof``).

The repository benchmark's traced run (``perfbench/layers.py``,
``DeviceCounters``) assigns a device's ``prof`` an object that has only
``enabled`` and the two counting hooks, and leaves the simulator and the
rest of the hub unhooked. This pins that contract from the tier-1 suite:
CTA contexts and macro cohorts call nothing else on the object, and its
totals match a full hub's on the same run. The hub counts CTA admissions
from the device's listener list, not from ``prof``.
"""

from repro.core.flep import FlepSystem
from repro.runtime.engine import RuntimeConfig

HOOKS = ("enabled", "on_batch", "on_macro_collapse")


class CountingSink:
    """Only the counting hooks; records every attribute the device reads."""

    enabled = True

    def __init__(self):
        object.__setattr__(self, "touched", set())
        self.task_pulls = 0
        self.flag_polls = 0
        self.batches_collapsed = 0

    def __getattribute__(self, name):
        if not name.startswith("_") and name in type(self).__dict__:
            object.__getattribute__(self, "touched").add(name)
        return object.__getattribute__(self, name)

    def on_batch(self, tasks, polls):
        self.task_pulls += tasks
        self.flag_polls += polls

    def on_macro_collapse(self, batches):
        self.batches_collapsed += batches


def _persistent_run(**kwargs):
    """A long persistent NN grid — its steady batch chains form macro
    cohorts — with one temporal preemption that dissolves them."""
    system = FlepSystem(
        policy="hpf",
        config=RuntimeConfig(oracle_model=True, spatial_enabled=False),
        **kwargs,
    )
    system.submit_at(0.0, "batch", "NN", "large", priority=0)
    system.submit_at(300.0, "rt", "SPMV", "trivial", priority=1)
    return system


def test_prof_sink_sees_only_the_counting_hooks_and_matches_the_hub():
    counted = _persistent_run(trace=True)
    sink = CountingSink()
    counted.gpu.prof = sink
    counted.run()

    observed = _persistent_run(observability=True)
    observed.run()
    hub = observed.obs

    assert sink.batches_collapsed > 0, "no macro cohort formed"
    assert sink.touched <= set(HOOKS), sink.touched - set(HOOKS)
    assert set(HOOKS) <= sink.touched
    assert sink.task_pulls == hub.task_pulls > 0
    assert sink.flag_polls == hub.flag_polls > 0
    assert sink.batches_collapsed == hub.batches_collapsed
    # one admission per placement: the Timeline has one interval each
    assert hub.cta_admissions == len(counted.timeline.intervals) > 0
    # the simulator and the dispatcher stayed unhooked
    assert not counted.sim.obs.enabled and not counted.gpu.obs.enabled
