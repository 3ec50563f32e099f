"""Load generator tests: determinism, validation, trace merging."""

import pytest

from repro.errors import ServingError
from repro.serving import PoissonLoadGen, merge_traces


class TestPoissonLoadGen:
    def test_deterministic_per_seed(self):
        def arrivals(seed):
            gen = PoissonLoadGen("q", ["SPMV", "MM"], rate_per_ms=1.0,
                                 duration_ms=20.0, seed=seed)
            return [(a.at_us, a.kernel_name) for a in gen.generate().arrivals]

        assert arrivals(5) == arrivals(5)
        assert arrivals(5) != arrivals(6)

    def test_stamps_tenant_and_priority(self):
        gen = PoissonLoadGen("interactive", ["SPMV"], 1.0, 20.0,
                             seed=0, priority=2)
        trace = gen.generate()
        assert trace.arrivals
        assert all(a.tenant == "interactive" for a in trace.arrivals)
        assert all(a.priority == 2 for a in trace.arrivals)

    def test_within_horizon(self):
        trace = PoissonLoadGen("q", ["SPMV"], 2.0, 10.0, seed=1).generate()
        assert all(0 < a.at_us <= 10_000.0 for a in trace.arrivals)

    @pytest.mark.parametrize("kwargs", [
        dict(rate_per_ms=0.0, duration_ms=10.0),
        dict(rate_per_ms=1.0, duration_ms=0.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ServingError):
            PoissonLoadGen("q", ["SPMV"], **kwargs).generate()

    def test_no_kernels_rejected(self):
        with pytest.raises(ServingError):
            PoissonLoadGen("q", [], 1.0, 10.0).generate()


class TestMergeTraces:
    def test_merge_sorts_by_time(self):
        a = PoissonLoadGen("a", ["SPMV"], 1.0, 10.0, seed=1).generate()
        b = PoissonLoadGen("b", ["MM"], 1.0, 10.0, seed=2).generate()
        merged = merge_traces(a, b)
        times = [x.at_us for x in merged.arrivals]
        assert times == sorted(times)
        assert len(merged.arrivals) == len(a.arrivals) + len(b.arrivals)
