"""TaskPool / LaunchConfig / TaskModel / guided_claim tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpu.kernel import (
    KernelImage,
    KernelMode,
    LaunchConfig,
    ResourceUsage,
    TaskModel,
    TaskPool,
    guided_claim,
)


class TestTaskPool:
    def test_initial_state(self):
        pool = TaskPool(10)
        assert pool.remaining == 10
        assert pool.outstanding == 0
        assert pool.done == 0
        assert not pool.exhausted and not pool.complete

    def test_take_finish_cycle(self):
        pool = TaskPool(10)
        assert pool.take(4) == 4
        assert pool.remaining == 6 and pool.outstanding == 4
        pool.finish(4)
        assert pool.done == 4 and pool.outstanding == 0

    def test_take_clamps_to_remaining(self):
        pool = TaskPool(3)
        assert pool.take(10) == 3
        assert pool.exhausted

    def test_give_back_returns_tasks(self):
        pool = TaskPool(10)
        pool.take(6)
        pool.finish(2)
        pool.give_back(4)
        assert pool.remaining == 8
        assert pool.done == 2
        assert pool.outstanding == 0

    def test_finish_more_than_outstanding_rejected(self):
        pool = TaskPool(5)
        pool.take(2)
        with pytest.raises(SimulationError):
            pool.finish(3)

    def test_give_back_more_than_outstanding_rejected(self):
        pool = TaskPool(5)
        pool.take(2)
        with pytest.raises(SimulationError):
            pool.give_back(3)

    def test_negative_sizes_rejected(self):
        with pytest.raises(SimulationError):
            TaskPool(-1)
        pool = TaskPool(5)
        with pytest.raises(SimulationError):
            pool.take(-1)

    def test_complete_requires_all_done(self):
        pool = TaskPool(2)
        pool.take(2)
        pool.finish(1)
        assert not pool.complete
        pool.finish(1)
        assert pool.complete

    def test_worker_accounting(self):
        pool = TaskPool(5)
        pool.worker_joined()
        pool.worker_joined()
        assert pool.workers == 2
        pool.worker_left()
        assert pool.workers == 1
        pool.worker_left()
        with pytest.raises(SimulationError):
            pool.worker_left()

    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["take", "finish", "give_back"]),
                      st.integers(0, 20)),
            max_size=60,
        ),
        total=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_conservation_invariant(self, ops, total):
        """done + outstanding + remaining == total, always."""
        pool = TaskPool(total)
        for op, n in ops:
            if op == "take":
                pool.take(n)
            elif op == "finish":
                pool.finish(min(n, pool.outstanding))
            else:
                pool.give_back(min(n, pool.outstanding))
            assert pool.done + pool.outstanding + pool.remaining == total
            assert min(pool.done, pool.outstanding, pool.remaining) >= 0


class TestLaunchConfig:
    def test_original_is_one_cta_per_task(self):
        cfg = LaunchConfig.original(100)
        assert cfg.grid_ctas == 100 and cfg.total_tasks == 100

    def test_persistent_clamps_to_slots(self):
        cfg = LaunchConfig.persistent(1000, 120)
        assert cfg.grid_ctas == 120
        cfg2 = LaunchConfig.persistent(50, 120)
        assert cfg2.grid_ctas == 50

    def test_more_ctas_than_tasks_rejected(self):
        with pytest.raises(SimulationError):
            LaunchConfig(total_tasks=5, grid_ctas=6)

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            LaunchConfig(total_tasks=-1, grid_ctas=0)


class TestTaskModel:
    def test_positive_mean_required(self):
        with pytest.raises(SimulationError):
            TaskModel(0.0)

    def test_jitter_range_validated(self):
        with pytest.raises(SimulationError):
            TaskModel(1.0, cta_jitter_frac=1.0)

    def test_no_jitter_multiplier_is_one(self):
        assert TaskModel(1.0).sample_multiplier(None) == 1.0

    def test_jitter_multiplier_in_band(self):
        import random

        tm = TaskModel(1.0, cta_jitter_frac=0.2)
        rng = random.Random(0)
        for _ in range(100):
            m = tm.sample_multiplier(rng)
            assert 0.8 <= m <= 1.2


class TestKernelImage:
    def test_transformed_sets_persistent_mode(self):
        img = KernelImage("k", ResourceUsage(256, 16, 0), TaskModel(1.0))
        flep = img.transformed(amortize_l=50)
        assert flep.mode is KernelMode.PERSISTENT
        assert flep.amortize_l == 50
        assert flep.supports_spatial
        assert img.mode is KernelMode.ORIGINAL  # original untouched

    def test_original_cannot_be_spatial(self):
        with pytest.raises(SimulationError):
            KernelImage(
                "k", ResourceUsage(256, 16, 0), TaskModel(1.0),
                supports_spatial=True,
            )

    def test_amortize_must_be_positive(self):
        with pytest.raises(SimulationError):
            KernelImage(
                "k", ResourceUsage(256, 16, 0), TaskModel(1.0), amortize_l=0
            )


class TestGuidedBatch:
    """The guided claim every CTA context and the macro replay size
    their batches with: ``guided_claim(remaining, width2, L_grid)``."""

    def test_zero_remaining(self):
        assert guided_claim(0, 8, 0) == 0

    def test_converges_to_minimum_at_tail(self):
        assert guided_claim(1, 200, 0) == 1
        assert guided_claim(3, 200, 8) == 1

    def test_never_exceeds_remaining(self):
        assert guided_claim(5, 1, 0) == 5
        assert guided_claim(5, 1, 4) == 4
        assert guided_claim(3, 1, 8) == 3

    @given(
        remaining=st.integers(1, 10**7),
        width2=st.integers(1, 1024),
        L_grid=st.integers(0, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, remaining, width2, L_grid):
        assert 1 <= guided_claim(remaining, width2, L_grid) <= remaining

    @given(
        remaining=st.integers(1, 10**7),
        width2=st.integers(1, 1024),
        L_grid=st.integers(1, 64),
    )
    @settings(max_examples=200, deadline=None)
    def test_l_multiples_until_tail(self, remaining, width2, L_grid):
        """A persistent grid's claims are whole multiples of its L, so
        polls land on batch boundaries; only a tail claim, whose guided
        size is already below L, is smaller."""
        size = guided_claim(remaining, width2, L_grid)
        guided = -(-remaining // width2)
        if guided >= L_grid:
            assert size % L_grid == 0
        else:
            assert size == guided

    @given(remaining=st.integers(1, 10**7), width2=st.integers(1, 1024))
    @settings(max_examples=200, deadline=None)
    def test_non_persistent_is_guided_ceiling(self, remaining, width2):
        assert guided_claim(remaining, width2, 0) == -(-remaining // width2)
