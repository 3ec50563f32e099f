"""Execution timelines: who occupied which SM, when.

A :class:`Timeline` on a :class:`~repro.gpu.gpu.SimulatedGPU`'s
``listeners`` list records one interval per hosted CTA context (SM id,
start, end, kernel, tags). From those intervals it derives per-SM
occupancy series and an ASCII Gantt rendering — which is how
`experiments/fig2.py` regenerates
the paper's Figure-2 illustration of temporal vs spatial preemption.

Two lighter companions serve the schedule-identity contract
(DESIGN.md §15):

* :class:`ScheduleHash` — an O(1)-memory crc32 fold over the kernel-level
  timeline (kernel name, SM id, residency start/end, in retirement
  order). Every :class:`~repro.gpu.gpu.SimulatedGPU` carries one, always
  on, so ``flep run/serve/fleet --json`` and ``flep bench`` snapshots can
  report a ``schedule_hash`` without retaining intervals — a
  million-request fleet trace hashes in constant space.
* ``EngineWindow(timelines=True)`` (:mod:`repro.obs.recorder`) — every
  device built inside the window records a full :class:`Timeline`. The
  golden-trace tests use it to compare macro-event and reference-loop
  schedules interval by interval, and the window's ``schedule_hash()``
  combines its devices' digests for ``flep run/serve/fleet`` and
  ``flep bench``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from struct import pack
from typing import Dict, List, Optional, Tuple
from zlib import crc32

from ..errors import SimulationError
from ..obs.recorder import EngineWindow


@dataclass(frozen=True)
class Interval:
    """One CTA context's residency on an SM."""

    sm_id: int
    start_us: float
    end_us: float
    kernel: str
    tag: str = ""

    def __post_init__(self):
        if self.end_us < self.start_us:
            raise SimulationError(
                f"interval ends before it starts: {self}"
            )

    @property
    def duration_us(self) -> float:
        return self.end_us - self.start_us

    def overlaps(self, t0: float, t1: float) -> float:
        """Overlap length with the half-open window ``[t0, t1)``.

        Boundary semantics are deliberately half-open so adjacent
        windows tile a timeline without double-counting:

        * an interval ending exactly at ``t0`` contributes 0 — its time
          belongs to the *previous* window;
        * an interval starting exactly at ``t1`` contributes 0 — its
          time belongs to the *next* window;
        * a zero-length interval (``start_us == end_us``) contributes 0
          everywhere, even when it sits inside the window.

        The result is never negative, including for inverted or empty
        windows (``t1 <= t0``).
        """
        return max(0.0, min(self.end_us, t1) - max(self.start_us, t0))


@dataclass
class Timeline:
    """Recorder for CTA residency intervals.

    Append one to ``gpu.listeners`` *before* launching work; the device
    reports every context placement and retirement.
    """

    intervals: List[Interval] = field(default_factory=list)
    _open: Dict[object, Tuple[int, float, str, str]] = field(
        default_factory=dict
    )

    # -- device hooks ----------------------------------------------------
    def context_placed(self, ctx, grid) -> None:
        label = grid.kernel.name
        tag = str(grid.tag.get("process", ""))
        self._open[ctx] = (ctx.sm.sm_id, ctx.started_at, label, tag)

    def context_retired(self, ctx, now: float) -> None:
        info = self._open.pop(ctx, None)
        if info is None:
            return
        sm_id, start, label, tag = info
        self.intervals.append(Interval(sm_id, start, now, label, tag))

    def grid_launched(self, grid) -> None:
        pass

    def grid_terminal(self, grid) -> None:
        pass

    def close_open(self, now: float) -> None:
        """Close any still-resident contexts at time ``now`` (end of an
        observation window)."""
        for ctx, (sm_id, start, label, tag) in list(self._open.items()):
            self.intervals.append(Interval(sm_id, start, now, label, tag))
        self._open.clear()

    # -- queries ----------------------------------------------------------
    @property
    def horizon_us(self) -> float:
        return max((iv.end_us for iv in self.intervals), default=0.0)

    def kernels(self) -> List[str]:
        seen: List[str] = []
        for iv in self.intervals:
            if iv.kernel not in seen:
                seen.append(iv.kernel)
        return seen

    def kernel_sm_time_us(self, kernel: str) -> float:
        """Total SM-residency time of a kernel across all SMs."""
        return sum(
            iv.duration_us for iv in self.intervals if iv.kernel == kernel
        )

    def occupancy_series(
        self, sm_id: int, window_us: float, t0: float = 0.0,
        t1: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        """Per-bucket busy fraction of one SM, split by kernel."""
        if window_us <= 0:
            raise SimulationError("bucket width must be positive")
        t1 = t1 if t1 is not None else self.horizon_us
        series = []
        t = t0
        while t < t1:
            end = min(t + window_us, t1)
            shares: Dict[str, float] = {}
            for iv in self.intervals:
                if iv.sm_id != sm_id:
                    continue
                ov = iv.overlaps(t, end)
                if ov > 0:
                    shares[iv.kernel] = shares.get(iv.kernel, 0.0) + ov
            width = end - t
            series.append({k: v / width for k, v in shares.items()})
            t = end
        return series

    def schedule_hash(self) -> str:
        """crc32 over this timeline's kernel-level schedule, identical
        to the device's always-on :class:`ScheduleHash` digest when every
        context retired (``close_open`` extras are hashed too)."""
        crc = 0
        for iv in self.intervals:
            crc = _fold_crc(crc, iv.kernel, iv.sm_id, iv.start_us, iv.end_us)
        return f"{crc:08x}"

    # -- rendering ---------------------------------------------------------
    def render_ascii(
        self,
        num_sms: int,
        window_us: float,
        t0: float = 0.0,
        t1: Optional[float] = None,
        symbols: Optional[Dict[str, str]] = None,
    ) -> str:
        """An ASCII Gantt: one row per SM, one column per time bucket;
        each cell shows the kernel occupying most of that SM-bucket
        ('.' = idle)."""
        t1 = t1 if t1 is not None else self.horizon_us
        if symbols is None:
            symbols = {}
            for k in self.kernels():
                # first unused letter of the kernel name
                for ch in k.upper():
                    if ch.isalnum() and ch not in symbols.values():
                        symbols[k] = ch
                        break
                else:
                    symbols[k] = "?"
        lines = []
        for sm in range(num_sms):
            series = self.occupancy_series(sm, window_us, t0, t1)
            row = []
            for shares in series:
                if not shares:
                    row.append(".")
                else:
                    dominant = max(shares, key=shares.get)
                    row.append(symbols.get(dominant, "?"))
            lines.append(f"SM{sm:<2d} |" + "".join(row) + "|")
        legend = "  ".join(f"{v}={k}" for k, v in symbols.items())
        scale = (
            f"      {t0:.0f}us .. {t1:.0f}us, one column = {window_us:.0f}us"
        )
        return "\n".join(lines + [scale, "      " + legend])


# ---------------------------------------------------------------------------
# schedule hashing (identity contract, DESIGN.md §15)
# ---------------------------------------------------------------------------
def _fold_crc(crc: int, kernel: str, sm_id: int, start: float, end: float) -> int:
    """Fold one residency interval into a running crc32."""
    return crc32(
        kernel.encode() + pack("<idd", sm_id, start, end), crc
    )


class ScheduleHash:
    """Constant-space crc32 fold of a device's kernel-level timeline.

    Folded at context retirement (the same instant :class:`Timeline`
    records an interval), over ``(kernel, sm_id, started_at, ended_at)``
    in retirement order — which the identity contract fixes, so two runs
    with the same schedule produce the same digest and any timeline or
    completion-order drift changes it. Two hexdigests comparing equal is
    what ``flep bench --compare`` gates on.
    """

    __slots__ = ("crc", "count")

    def __init__(self):
        self.crc = 0
        self.count = 0

    def fold(self, kernel: str, sm_id: int, start: float, end: float) -> None:
        self.crc = _fold_crc(self.crc, kernel, sm_id, start, end)
        self.count += 1

    @property
    def hexdigest(self) -> str:
        return f"{self.crc:08x}"


def combined_schedule_hash(digests: "List[str]") -> str:
    """One digest over several devices' digests (fleet rollups), stable
    under the caller's node order."""
    return f"{crc32(':'.join(digests).encode()):08x}"


@contextmanager
def collected_schedule_hashes():
    """Every device's :class:`ScheduleHash` built in the block; kept for
    ``perfbench/workloads.py``, which reads ``.hexdigest`` after the run."""
    with EngineWindow() as window:
        yield window.scheds
