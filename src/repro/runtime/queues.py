"""Priority queues of waiting invocations (§3, §5.2).

FLEP buffers waiting kernels in one queue per distinct priority. Within
a queue, kernels are ordered by the scheduling policy's key: predicted
remaining time ``T_r`` for HPF (shortest first, §5.2.1), the absolute
deadline for EDF. A keyed insert goes after every equal key, and
:meth:`PriorityQueues.resort` re-sorts stably before a pick, since a
draining victim's ``T_r`` keeps falling while it waits.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, List, Optional

from ..errors import RuntimeEngineError


class PriorityQueues:
    """A bank of ``key``-ordered queues keyed by priority (higher wins)."""

    def __init__(self, key: Callable):
        self.key = key
        self._queues: Dict[int, List] = {}

    def enqueue(self, inv) -> None:
        """Insert after every waiter whose key is not greater."""
        q = self._queues.setdefault(inv.priority, [])
        if inv in q:
            raise RuntimeEngineError(f"{inv} is already enqueued")
        key = self.key
        idx = bisect.bisect_right([key(x) for x in q], key(inv))
        q.insert(idx, inv)

    def remove(self, inv) -> None:
        q = self._queues.get(inv.priority)
        if not q or inv not in q:
            raise RuntimeEngineError(f"{inv} is not enqueued")
        q.remove(inv)
        if not q:
            del self._queues[inv.priority]

    def head(self, priority: int) -> Optional[object]:
        """The first kernel in the given priority's order."""
        q = self._queues.get(priority)
        return q[0] if q else None

    def resort(self) -> None:
        """Stably re-sort every queue after keys moved."""
        for q in self._queues.values():
            q.sort(key=self.key)

    def highest_nonempty_priority(self) -> Optional[int]:
        return max(self._queues) if self._queues else None

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def __contains__(self, inv) -> bool:
        q = self._queues.get(inv.priority)
        return bool(q) and inv in q
