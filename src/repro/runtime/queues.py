"""Priority queues of waiting invocations (§3, §5.2).

FLEP buffers waiting kernels in one queue per distinct priority. Within
a queue, kernels are kept ordered by predicted remaining execution time
``T_r`` (shortest first) so that HPF's shortest-remaining-time pick is
O(1) at the head — exactly the arrangement §5.2.1 describes.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional

from ..errors import RuntimeEngineError


class PriorityQueues:
    """A bank of T_r-ordered queues keyed by priority (higher wins)."""

    def __init__(self):
        self._queues: Dict[int, List] = {}

    def enqueue(self, inv) -> None:
        """Insert keeping the queue sorted by T_r ascending."""
        q = self._queues.setdefault(inv.priority, [])
        if inv in q:
            raise RuntimeEngineError(f"{inv} is already enqueued")
        keys = [x.record.remaining_us for x in q]
        idx = bisect.bisect_right(keys, inv.record.remaining_us)
        q.insert(idx, inv)

    def remove(self, inv) -> None:
        q = self._queues.get(inv.priority)
        if not q or inv not in q:
            raise RuntimeEngineError(f"{inv} is not enqueued")
        q.remove(inv)
        if not q:
            del self._queues[inv.priority]

    def head(self, priority: int) -> Optional[object]:
        """Shortest-T_r kernel at the given priority."""
        q = self._queues.get(priority)
        return q[0] if q else None

    def resort(self) -> None:
        """Re-sort all queues after T_r refreshes."""
        for p, q in self._queues.items():
            q.sort(key=lambda inv: inv.record.remaining_us)

    def highest_nonempty_priority(self) -> Optional[int]:
        if not self._queues:
            return None
        return max(self._queues)

    def at_priority(self, priority: int) -> List:
        return list(self._queues.get(priority, []))

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def __iter__(self) -> Iterator:
        for p in sorted(self._queues, reverse=True):
            yield from self._queues[p]

    def __contains__(self, inv) -> bool:
        q = self._queues.get(inv.priority)
        return bool(q) and inv in q
