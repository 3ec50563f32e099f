"""Pinned host memory: the preemption flag.

:class:`PinnedFlag` is the ``temp_P`` / ``spa_P`` cell in pinned
(non-pageable) host memory that the CPU writes and the GPU polls. The
simulator models the write-to-visibility latency and notifies grid
contexts so they can re-plan their yield events. Device memory is not
modelled: the paper assumes combined working sets fit (§8 defers the
rest to GPUSwap).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, List, Tuple

from ..errors import SimulationError
from .sim import Simulator

#: Sentinel larger than any flag value, for bisecting ``(time, value)``
#: histories by time alone (ties resolve to the *latest* same-time write,
#: matching the linear scan the bisect replaced).
_VALUE_INF = float("inf")


class PinnedFlag:
    """A preemption flag shared between CPU and GPU (pinned memory).

    Encodes both of the paper's flags with one unsigned value ``v``:

    * ``v == 0`` — run normally.
    * ``v >= 1`` — yield: a CTA hosted on SM ``s`` must quit iff
      ``s < v`` (Figure 4 (c)). Setting ``v >= num_sms`` is exactly
      temporal preemption (yield everything); kernels compiled without
      spatial support treat any non-zero value as "yield all".

    Host writes become visible to device polls after
    ``preempt_signal_us``; device reads cost ``pinned_poll_us`` (charged
    by the CTA contexts, not here).
    """

    def __init__(self, sim: Simulator, signal_latency_us: float = 1.0):
        self._sim = sim
        self._latency = signal_latency_us
        # (visible_from_time, value), newest last; always non-empty
        self._history: List[Tuple[float, int]] = [(0.0, 0)]
        #: index of writes with ``value > 0`` (same order as _history).
        #: Empty means no visible value can ever demand a yield — the
        #: CTA batch loop's fast path checks only this before skipping
        #: the whole yield-poll search.
        self._demanding: List[Tuple[float, int]] = []
        #: running maximum of the values in ``_demanding``: whether any
        #: write visible by some time demands a spatial yield of SM ``s``
        #: is one bisect and one compare (``CTAContext._first_yield_poll``)
        self._demand_max: List[int] = []
        self._watchers: List[Callable[[float, int], None]] = []

    # -- host side -------------------------------------------------------
    def host_write(self, value: int) -> None:
        """CPU writes ``value``; device sees it after the signal latency."""
        if value < 0:
            raise SimulationError(f"flag value cannot be negative: {value}")
        visible_at = self._sim.now + self._latency
        self._history.append((visible_at, value))
        if value > 0:
            self._demanding.append((visible_at, value))
            top = self._demand_max
            top.append(max(top[-1], value) if top else value)
        for watcher in list(self._watchers):
            watcher(visible_at, value)

    def clear(self) -> None:
        """CPU resets the flag to 0 (before resuming the kernel)."""
        self.host_write(0)

    # -- device side -----------------------------------------------------
    def device_read(self, at_time: float) -> int:
        """Value a device-side poll at ``at_time`` observes.

        O(log writes): the history is sorted by visibility time (host
        writes are monotone in simulated time with a constant latency),
        so the latest visible entry is found by bisection.
        """
        idx = bisect_right(self._history, (at_time, _VALUE_INF))
        return self._history[idx - 1][1] if idx else 0

    @property
    def last_written(self) -> int:
        """Most recently written value (host's view, ignoring latency)."""
        return self._history[-1][1]

    def watch(self, callback: Callable[[float, int], None]) -> None:
        """Register ``callback(visible_at, value)`` on every host write."""
        self._watchers.append(callback)

    def unwatch(self, callback: Callable[[float, int], None]) -> None:
        self._watchers.remove(callback)


def should_yield(sm_id: int, flag_value: int, spatial_capable: bool) -> bool:
    """Does a CTA on SM ``sm_id`` observing ``flag_value`` have to quit?

    Temporal-only kernels (Figure 4 (a)/(b)) quit on any non-zero value;
    spatial kernels (Figure 4 (c)) quit iff ``hostSM_ID < spa_P``.
    """
    if flag_value <= 0:
        return False
    if not spatial_capable:
        return True
    return sm_id < flag_value
