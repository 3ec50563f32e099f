"""Co-run harness tests: scenarios, outcomes, executor consistency."""

import pytest

from repro.experiments.harness import (
    LAUNCH_FOLLOW_US,
    CoRunHarness,
    Entry,
    Scenario,
)
from repro.experiments.pairs import hpf_priority_pairs
from repro.gpu.device import tesla_k40
from repro.obs import EngineWindow


class TestScenario:
    def test_pair_shape(self):
        sc = Scenario.pair(low="NN", high="SPMV")
        assert len(sc.entries) == 2
        assert sc.entries[0].at_us == 0.0
        assert sc.entries[1].at_us == LAUNCH_FOLLOW_US
        assert sc.entries[0].kernel == "NN"
        assert sc.entries[0].input_name == "large"
        assert sc.entries[1].input_name == "small"
        assert sc.entries[1].priority > sc.entries[0].priority

    def test_triplet_shape(self):
        sc = Scenario.triplet("VA", "SPMV", "MM")
        assert [e.kernel for e in sc.entries] == ["VA", "SPMV", "MM"]
        assert [e.input_name for e in sc.entries] == [
            "large", "small", "small"
        ]
        ats = [e.at_us for e in sc.entries]
        assert ats == sorted(ats)


class TestOutcomes:
    def test_mps_outcome_has_all_keys(self, harness):
        sc = Scenario.pair(low="PL", high="MM")
        out = harness.run_mps(sc)
        keys = out.keys_in_order(sc)
        assert len(keys) == 2
        for k in keys:
            assert out.turnaround_us[k] > 0
            assert out.solo_us[k] > 0

    def test_flep_outcome_tracks_preemptions(self, harness):
        sc = Scenario.pair(low="NN", high="SPMV")
        out = harness.run_flep(sc, policy="hpf")
        low_key = ("proc_NN", "NN", "large")
        assert out.preemptions[low_key] == 1

    def test_antt_computation(self, harness):
        sc = Scenario.pair(low="PL", high="MM")
        out = harness.run_mps(sc)
        antt = out.antt(sc)
        assert antt >= 1.0

    def test_solo_cache_shared(self, harness):
        a = harness.solo_us("VA", "small")
        b = harness.solo_us("VA", "small")
        assert a == b

    def test_reorder_executor_runs(self, harness):
        sc = Scenario.triplet("PL", "SPMV", "MM")
        out = harness.run_reorder(sc)
        assert out.executor == "reorder"
        assert out.antt(sc) >= 1.0

    def test_flep_beats_mps_for_high_priority(self, harness):
        sc = Scenario.pair(low="NN", high="SPMV")
        mps = harness.run_mps(sc)
        flep = harness.run_flep(sc)
        key = ("proc_SPMV", "SPMV", "small")
        assert flep.turnaround_us[key] < mps.turnaround_us[key] / 5


class TestFollowDelay:
    def test_follower_arrives_after_the_first_launch(self):
        assert LAUNCH_FOLLOW_US > tesla_k40().costs.kernel_launch_us

    @pytest.mark.parametrize(
        "pair", hpf_priority_pairs(), ids=lambda p: p.name
    )
    def test_every_fig8_pair_drains_running_ctas(self, harness, pair):
        """Figure 8's high-priority follower lands after the low kernel's
        CTAs exist, so its temporal preemption drains real work."""
        with EngineWindow(hub=True) as window:
            harness.run_flep(
                Scenario.pair(low=pair.low, high=pair.high), policy="hpf"
            )
        drains = window.hub.stall_latency()["temporal"]
        assert drains["count"] == 1
        assert drains["min_us"] > 0.0

