"""Admission controller tests: accept, delay, and shed paths, and the
front door's token buckets that clip a request before admission."""

import pytest

from repro.errors import ServingError
from repro.serving import AdmissionController, Decision, Tenant, TenantSet, TokenBucket
from repro.serving.server import TraceIntake

SLO = 2_000.0


def controller(delay_headroom=0.5, **tenant_kwargs):
    tenant = Tenant("q", priority=1, slo_us=SLO, **tenant_kwargs)
    return tenant, AdmissionController(delay_headroom=delay_headroom)


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate_rps=1.0, burst=3)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False
        ]

    def test_refills_over_time(self):
        bucket = TokenBucket(rate_rps=1_000.0, burst=1)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 1000 rps = one token per 1000 µs
        assert bucket.try_take(1_000.0)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_rps=1_000.0, burst=2)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        # a long idle period refills to burst, not beyond
        assert [bucket.try_take(1e9) for _ in range(3)] == [True, True, False]

    def test_validation(self):
        with pytest.raises(ServingError):
            TokenBucket(rate_rps=0.0, burst=1)
        with pytest.raises(ServingError):
            TokenBucket(rate_rps=1.0, burst=0)


class TestDecide:
    def test_accept_within_slo(self):
        tenant, ctrl = controller()
        verdict = ctrl.decide(tenant, now_us=100.0, predicted_us=500.0,
                              backlog_us=1_000.0)
        assert verdict.decision is Decision.ACCEPT
        assert verdict.reason == "within_slo"
        assert verdict.admitted
        assert verdict.predicted_finish_us == 1_600.0

    def test_accept_exactly_at_budget(self):
        tenant, ctrl = controller()
        verdict = ctrl.decide(tenant, 0.0, predicted_us=SLO, backlog_us=0.0)
        assert verdict.decision is Decision.ACCEPT

    def test_delay_on_moderate_overshoot(self):
        tenant, ctrl = controller(delay_headroom=0.5)
        # finish = 2500, budget = 2000: overshoot 500 <= 0.5 * 2000
        verdict = ctrl.decide(tenant, 0.0, predicted_us=500.0,
                              backlog_us=2_000.0)
        assert verdict.decision is Decision.DELAY
        assert verdict.reason == "slo_overshoot"
        assert verdict.hold_us == 500.0
        assert verdict.admitted

    def test_shed_beyond_headroom(self):
        tenant, ctrl = controller(delay_headroom=0.5)
        # overshoot 1500 > 0.5 * 2000 -> reject
        verdict = ctrl.decide(tenant, 0.0, predicted_us=500.0,
                              backlog_us=3_000.0)
        assert verdict.decision is Decision.SHED
        assert verdict.reason == "predicted_slo_miss"
        assert not verdict.admitted

    def test_zero_headroom_sheds_any_overshoot(self):
        tenant, ctrl = controller(delay_headroom=0.0)
        verdict = ctrl.decide(tenant, 0.0, predicted_us=SLO + 1.0,
                              backlog_us=0.0)
        assert verdict.decision is Decision.SHED

    def test_best_effort_always_accepted(self):
        tenant = Tenant("batch")
        ctrl = AdmissionController()
        verdict = ctrl.decide(tenant, 0.0, predicted_us=1e9, backlog_us=1e9)
        assert verdict.decision is Decision.ACCEPT
        assert verdict.reason == "best_effort"

    def test_rate_limit_clips_before_slo_test(self):
        """The front door takes the token; admission never sees the
        bucket, so a clipped request is not an SLO shed."""
        tenant, ctrl = controller(rate_limit_rps=1_000.0, burst=1)
        door = TraceIntake(TenantSet([tenant]))
        assert not door.rate_limited(tenant, 0.0)
        assert door.rate_limited(tenant, 0.0)
        assert not door.rate_limited(tenant, 1_000.0)  # refilled
        verdict = ctrl.decide(tenant, 0.0, predicted_us=10.0, backlog_us=0.0)
        assert verdict.decision is Decision.ACCEPT
        # tenants without a limit are never clipped
        assert not door.rate_limited(Tenant("free"), 0.0)

    def test_negative_inputs_rejected(self):
        tenant, ctrl = controller()
        with pytest.raises(ServingError):
            ctrl.decide(tenant, 0.0, predicted_us=-1.0, backlog_us=0.0)
        with pytest.raises(ServingError):
            ctrl.decide(tenant, 0.0, predicted_us=1.0, backlog_us=-1.0)

    def test_negative_headroom_rejected(self):
        with pytest.raises(ServingError):
            AdmissionController(delay_headroom=-0.1)
