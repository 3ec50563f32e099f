"""The simulator's clock: start time, forward-only advance, bad inputs."""

import pytest

from repro.errors import SimulationError
from repro.gpu.sim import Simulator


class TestConstruction:
    def test_starts_at_zero_by_default(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(42.5).now == 42.5

    def test_integer_start_coerced_to_float(self):
        now = Simulator(7).now
        assert now == 7.0
        assert isinstance(now, float)

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            Simulator(-1.0)


class TestAdvance:
    def test_advance_moves_forward(self):
        sim = Simulator()
        sim.advance_to(10.0)
        assert sim.now == 10.0
        sim.advance_to(25.5)
        assert sim.now == 25.5

    def test_advance_to_same_time_is_allowed(self):
        """Zero-delay events advance to the current time; not an error."""
        sim = Simulator(5.0)
        sim.advance_to(5.0)
        assert sim.now == 5.0

    def test_advance_backwards_rejected(self):
        sim = Simulator(10.0)
        with pytest.raises(SimulationError, match="backwards"):
            sim.advance_to(9.999)
        # a failed advance must not corrupt the clock
        assert sim.now == 10.0
