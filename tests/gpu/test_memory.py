"""Pinned-flag tests."""

import pytest

from repro.errors import SimulationError
from repro.gpu.memory import PinnedFlag, should_yield
from repro.gpu.sim import Simulator


class TestPinnedFlag:
    def test_initial_value_is_zero(self):
        sim = Simulator()
        flag = PinnedFlag(sim)
        assert flag.device_read(0.0) == 0
        assert flag.last_written == 0

    def test_write_visible_after_latency(self):
        sim = Simulator()
        flag = PinnedFlag(sim, signal_latency_us=2.0)
        sim.schedule(10.0, lambda: flag.host_write(5))
        sim.run()
        assert flag.device_read(11.0) == 0    # not yet visible
        assert flag.device_read(12.0) == 5    # visible at 12
        assert flag.last_written == 5          # host-side view: immediate

    def test_clear_resets(self):
        sim = Simulator()
        flag = PinnedFlag(sim, signal_latency_us=0.0)
        flag.host_write(7)
        flag.clear()
        assert flag.device_read(0.1) == 0

    def test_multiple_writes_piecewise(self):
        sim = Simulator()
        flag = PinnedFlag(sim, signal_latency_us=1.0)
        sim.schedule(10.0, lambda: flag.host_write(3))
        sim.schedule(20.0, lambda: flag.host_write(0))
        sim.run()
        assert flag.device_read(15.0) == 3
        assert flag.device_read(25.0) == 0

    def test_watchers_notified(self):
        sim = Simulator()
        flag = PinnedFlag(sim, signal_latency_us=1.5)
        events = []
        flag.watch(lambda at, v: events.append((at, v)))
        sim.schedule(4.0, lambda: flag.host_write(2))
        sim.run()
        assert events == [(5.5, 2)]

    def test_unwatch_stops_notifications(self):
        sim = Simulator()
        flag = PinnedFlag(sim)
        events = []
        cb = lambda at, v: events.append(v)  # noqa: E731
        flag.watch(cb)
        flag.unwatch(cb)
        flag.host_write(1)
        assert events == []

    def test_negative_value_rejected(self):
        flag = PinnedFlag(Simulator())
        with pytest.raises(SimulationError):
            flag.host_write(-1)


class TestShouldYield:
    def test_zero_flag_never_yields(self):
        assert not should_yield(0, 0, spatial_capable=True)
        assert not should_yield(0, 0, spatial_capable=False)

    def test_temporal_kernel_yields_on_any_nonzero(self):
        assert should_yield(14, 1, spatial_capable=False)

    def test_spatial_semantics_smid_below_value(self):
        # Figure 4 (c): quit iff hostSM_ID < spa_P
        assert should_yield(0, 5, spatial_capable=True)
        assert should_yield(4, 5, spatial_capable=True)
        assert not should_yield(5, 5, spatial_capable=True)
        assert not should_yield(14, 5, spatial_capable=True)

    def test_spatial_full_device_equals_temporal(self):
        for sm in range(15):
            assert should_yield(sm, 15, spatial_capable=True)
