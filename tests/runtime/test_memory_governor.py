"""Device-memory admission-control tests."""

import pytest

from repro.core.flep import FlepSystem
from repro.errors import MemoryError_, RuntimeEngineError
from repro.gpu.memory import DeviceMemory
from repro.runtime.engine import RuntimeConfig
from repro.runtime.memory_governor import MemoryGovernor
from repro.workloads.footprints import FOOTPRINTS, footprint_bytes


class FakeInv:
    _n = 0

    def __init__(self):
        FakeInv._n += 1
        self.inv_id = FakeInv._n


class TestGovernorUnit:
    def test_admit_when_fits(self):
        gov = MemoryGovernor(DeviceMemory(1000))
        admitted = []
        inv = FakeInv()
        assert gov.try_admit(inv, 400, lambda: admitted.append(1))
        assert admitted == [1]
        assert gov.memory.used == 400

    def test_park_when_full(self):
        gov = MemoryGovernor(DeviceMemory(1000))
        a, b = FakeInv(), FakeInv()
        gov.try_admit(a, 700, lambda: None)
        admitted = []
        assert not gov.try_admit(b, 500, lambda: admitted.append("b"))
        assert admitted == []
        gov.release(a)
        assert admitted == ["b"]
        assert gov.memory.used == 500

    def test_fifo_no_bypass(self):
        """A small late arrival must not jump the queue head."""
        gov = MemoryGovernor(DeviceMemory(1000))
        a, big, small = FakeInv(), FakeInv(), FakeInv()
        gov.try_admit(a, 800, lambda: None)
        order = []
        gov.try_admit(big, 900, lambda: order.append("big"))
        gov.try_admit(small, 100, lambda: order.append("small"))
        assert order == []  # small fits, but waits behind big
        gov.release(a)
        assert order == ["big", "small"]

    def test_never_fits_raises(self):
        gov = MemoryGovernor(DeviceMemory(1000))
        with pytest.raises(MemoryError_, match="never"):
            gov.try_admit(FakeInv(), 2000, lambda: None)

    def test_double_admit_rejected(self):
        gov = MemoryGovernor(DeviceMemory(1000))
        inv = FakeInv()
        gov.try_admit(inv, 100, lambda: None)
        with pytest.raises(RuntimeEngineError):
            gov.try_admit(inv, 100, lambda: None)

    def test_release_unknown_is_noop(self):
        gov = MemoryGovernor(DeviceMemory(1000))
        gov.release(FakeInv())  # no crash

    def test_counters(self):
        gov = MemoryGovernor(DeviceMemory(100))
        a, b = FakeInv(), FakeInv()
        gov.try_admit(a, 90, lambda: None)
        gov.try_admit(b, 90, lambda: None)
        assert gov.admissions == 1
        assert gov.parkings == 1


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


class TestEndToEnd:
    def test_corun_under_memory_pressure(self, suite):
        """A 4 GiB device forces serialization by admission: everything
        still completes, and memory never oversubscribes."""
        import dataclasses

        device = dataclasses.replace(
            suite.device, device_memory_bytes=4 * 1024**3
        )
        system = FlepSystem(
            policy="hpf", device=device,
            config=RuntimeConfig(oracle_model=True, enforce_memory=True),
        )
        # VA large (3 GiB) + MD large (2 GiB) cannot coexist
        system.submit_at(0.0, "a", "VA", "large", priority=0)
        system.submit_at(10.0, "b", "MD", "large", priority=1)
        result = system.run()
        assert result.all_finished
        gov = system.runtime.memory_governor
        assert gov.parkings == 1
        assert gov.memory.used == 0  # all freed at the end
        a = result.by_process("a")[0]
        b = result.by_process("b")[0]
        # b (higher priority!) still had to wait for memory: admission
        # precedes scheduling
        assert b.record.arrived_at < a.record.finished_at <= (
            b.record.finished_at
        )

    def test_memory_disabled_by_default(self, suite):
        system = FlepSystem(policy="hpf", device=suite.device, suite=suite)
        assert system.runtime.memory_governor is None
