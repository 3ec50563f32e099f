"""Priority-queue tests: T_r order (HPF, §5.2.1) and any policy key."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies.edf import deadline_key
from repro.errors import RuntimeEngineError
from repro.runtime.queues import PriorityQueues
from repro.runtime.tracker import ExecutionRecord


class FakeInv:
    _n = 0

    def __init__(self, priority, remaining):
        FakeInv._n += 1
        self.inv_id = FakeInv._n
        self.priority = priority
        self.record = ExecutionRecord(predicted_us=max(remaining, 1.0))
        self.record.remaining_us = remaining

    def __repr__(self):
        return f"FakeInv({self.priority}, {self.record.remaining_us})"


def by_tr(inv):
    return inv.record.remaining_us


def tr_queues():
    return PriorityQueues(by_tr)


def drain(q):
    """Pop heads until empty: highest priority first, key order within."""
    out = []
    while len(q):
        head = q.head(q.highest_nonempty_priority())
        q.remove(head)
        out.append(head)
    return out


class TestOrdering:
    def test_head_is_shortest_remaining(self):
        q = tr_queues()
        a = FakeInv(0, 500.0)
        b = FakeInv(0, 100.0)
        c = FakeInv(0, 300.0)
        for inv in (a, b, c):
            q.enqueue(inv)
        assert q.head(0) is b

    def test_removing_the_head_exposes_the_next(self):
        q = tr_queues()
        a, b = FakeInv(0, 10.0), FakeInv(0, 20.0)
        q.enqueue(b)
        q.enqueue(a)
        assert q.head(0) is a
        q.remove(a)
        assert q.head(0) is b
        q.remove(b)
        assert q.head(0) is None

    def test_highest_nonempty_priority(self):
        q = tr_queues()
        assert q.highest_nonempty_priority() is None
        q.enqueue(FakeInv(1, 10.0))
        q.enqueue(FakeInv(5, 10.0))
        q.enqueue(FakeInv(3, 10.0))
        assert q.highest_nonempty_priority() == 5

    def test_iteration_order_priority_then_tr(self):
        q = tr_queues()
        lo = FakeInv(0, 1.0)
        hi_a = FakeInv(2, 50.0)
        hi_b = FakeInv(2, 10.0)
        for inv in (lo, hi_a, hi_b):
            q.enqueue(inv)
        assert drain(q) == [hi_b, hi_a, lo]

    def test_equal_keys_keep_insertion_order(self):
        q = tr_queues()
        a, b, c = FakeInv(0, 10.0), FakeInv(0, 10.0), FakeInv(0, 5.0)
        for inv in (a, b, c):
            q.enqueue(inv)
        q.resort()
        assert drain(q) == [c, a, b]

    def test_policy_key_orders_the_queue(self):
        """EDF keys the bank by deadline: an earlier deadline heads the
        queue whatever its T_r."""
        q = PriorityQueues(deadline_key)
        late, early = FakeInv(0, 10.0), FakeInv(0, 500.0)
        late.deadline_us, early.deadline_us = 2_000.0, 1_000.0
        q.enqueue(late)
        q.enqueue(early)
        assert q.head(0) is early

    def test_resort_after_tr_update(self):
        q = tr_queues()
        a, b = FakeInv(0, 100.0), FakeInv(0, 200.0)
        q.enqueue(a)
        q.enqueue(b)
        a.record.remaining_us = 500.0  # a ran and was preempted... etc.
        q.resort()
        assert q.head(0) is b


class TestValidation:
    def test_double_enqueue_rejected(self):
        q = tr_queues()
        a = FakeInv(0, 10.0)
        q.enqueue(a)
        with pytest.raises(RuntimeEngineError):
            q.enqueue(a)

    def test_remove_missing_rejected(self):
        q = tr_queues()
        with pytest.raises(RuntimeEngineError):
            q.remove(FakeInv(0, 10.0))

    def test_contains_and_len(self):
        q = tr_queues()
        a = FakeInv(0, 10.0)
        assert a not in q and len(q) == 0
        q.enqueue(a)
        assert a in q and len(q) == 1
        q.remove(a)
        assert a not in q and len(q) == 0


class TestProperty:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 3), st.floats(1.0, 1e6)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_heads_always_minimal(self, entries):
        q = tr_queues()
        invs = [FakeInv(p, r) for p, r in entries]
        for inv in invs:
            q.enqueue(inv)
        for p in {p for p, _ in entries}:
            head = q.head(p)
            group = [i for i in invs if i.priority == p]
            assert head.record.remaining_us == min(
                i.record.remaining_us for i in group
            )
        # draining the heads: priorities descend
        seen = drain(q)
        priorities = [i.priority for i in seen]
        assert priorities == sorted(priorities, reverse=True)
