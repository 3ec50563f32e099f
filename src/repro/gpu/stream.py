"""CUDA streams: per-context command FIFOs.

Commands in one stream execute strictly in order (§2.1); commands in
different streams may overlap subject to device resources. A stream
issues its next command only when the previous one has fully completed —
this is what serializes back-to-back kernels from the same process and
what makes kernel slicing's per-slice launch overhead visible.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from ..errors import SimulationError
from .gpu import SimulatedGPU
from .grid import Grid
from .kernel import KernelImage, LaunchConfig, TaskPool
from .memory import PinnedFlag


class Stream:
    """One in-order command queue bound to a device."""

    _next_id = 1

    def __init__(
        self,
        gpu: SimulatedGPU,
        name: str = "",
        on_idle: Optional[Callable[["Stream"], None]] = None,
    ):
        self.gpu = gpu
        self.stream_id = Stream._next_id
        Stream._next_id += 1
        self.name = name or f"stream{self.stream_id}"
        self._commands: Deque[Callable[[Callable[[], None]], None]] = deque()
        self._busy = False
        #: called each time the stream runs out of commands
        self._on_idle = on_idle

    # ------------------------------------------------------------------
    # command enqueue API
    # ------------------------------------------------------------------
    def enqueue_kernel(
        self,
        kernel: KernelImage,
        config: LaunchConfig,
        pool: Optional[TaskPool] = None,
        flag: Optional[PinnedFlag] = None,
        tag: Optional[dict] = None,
        on_grid: Optional[Callable[[Grid], None]] = None,
        on_done: Optional[Callable[[Grid], None]] = None,
    ) -> None:
        """Enqueue a kernel launch.

        ``on_grid`` receives the :class:`Grid` as soon as the launch
        command issues; ``on_done`` fires when the grid completes *or* is
        preempted (either way, the stream advances).
        """

        def run(advance: Callable[[], None]) -> None:
            def _finished(grid: Grid) -> None:
                if on_done:
                    on_done(grid)
                advance()

            grid = self.gpu.launch(
                kernel,
                config,
                pool=pool,
                flag=flag,
                tag=dict(tag or {}, stream=self.name),
                on_complete=_finished,
                on_preempted=_finished,
            )
            if on_grid:
                on_grid(grid)

        self._push(run)

    @property
    def idle(self) -> bool:
        return not self._busy and not self._commands

    # ------------------------------------------------------------------
    def _push(self, cmd) -> None:
        self._commands.append(cmd)
        if not self._busy:
            self._issue_next()

    def _issue_next(self) -> None:
        if not self._commands:
            self._busy = False
            if self._on_idle is not None:
                self._on_idle(self)
            return
        self._busy = True
        cmd = self._commands.popleft()
        advanced = []

        def advance() -> None:
            if advanced:
                raise SimulationError(f"stream {self.name}: command advanced twice")
            advanced.append(True)
            self._issue_next()

        cmd(advance)
