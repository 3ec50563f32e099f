"""Device working-set footprints of the benchmarks (host programs size
their transfers with them)."""

from repro.workloads.footprints import FOOTPRINTS, footprint_bytes


class TestFootprints:
    def test_all_benchmarks_covered(self):
        from repro.workloads.calibration import TABLE1

        assert set(FOOTPRINTS) == set(TABLE1)

    def test_input_class_ordering(self):
        for bench in FOOTPRINTS:
            assert (
                footprint_bytes(bench, "large")
                > footprint_bytes(bench, "small")
                > footprint_bytes(bench, "trivial")
            )

    def test_custom_inputs_treated_as_trivial(self):
        assert footprint_bytes("NN", "micro") == footprint_bytes(
            "NN", "trivial"
        )

    def test_paper_corun_pairs_fit_in_12gb(self):
        """§8's assumption holds for every evaluation pair."""
        from repro.experiments.pairs import hpf_priority_pairs

        cap = 12 * 1024**3
        for pair in hpf_priority_pairs():
            total = footprint_bytes(pair.low, "large") + footprint_bytes(
                pair.high, "small"
            )
            assert total < cap
