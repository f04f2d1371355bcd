"""The quiescence protocol.

Before a component may be replaced or migrated, the engine must ensure
"the ongoing activities of the system will keep running correctly while
the configuration process is in progress": it blocks the communication
channels that reach the affected components (new asynchronous calls
buffer FIFO — no loss, no duplication), waits for in-progress calls to
drain, and passivates the components.  Releasing reverses the steps and
flushes buffered traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import QuiescenceError
from repro.events import Simulator
from repro.kernel.binding import Binding
from repro.kernel.component import Component
from repro.kernel.lifecycle import LifecycleState


@dataclass
class QuiescenceReport:
    """Timing and traffic accounting of one quiescence window."""

    started_at: float = 0.0
    quiescent_at: float = 0.0
    released_at: float = 0.0
    buffered_calls: int = 0
    polls: int = 0

    @property
    def blocked_duration(self) -> float:
        return self.released_at - self.started_at

    @property
    def drain_duration(self) -> float:
        return self.quiescent_at - self.started_at


class QuiescenceRegion:
    """A set of components plus the channels that reach them."""

    def __init__(self, components: Iterable[Component],
                 bindings: Iterable[Binding]) -> None:
        self.components = list(components)
        self.bindings = list(bindings)
        self.report = QuiescenceReport()
        self._blocked = False
        self._passivated: list[Component] = []

    # -- protocol steps -----------------------------------------------------

    def block(self, now: float = 0.0) -> None:
        """Step 1: block the channels (buffer new asynchronous traffic)."""
        if self._blocked:
            raise QuiescenceError("region is already blocked")
        self.report.started_at = now
        for binding in self.bindings:
            binding.block()
        self._blocked = True

    def is_drained(self) -> bool:
        """True when no affected component has a call in progress."""
        return all(component.is_idle for component in self.components)

    def passivate(self, now: float = 0.0) -> None:
        """Step 2: once drained, freeze the components."""
        if not self._blocked:
            raise QuiescenceError("block() the region before passivating")
        if not self.is_drained():
            raise QuiescenceError(
                "cannot passivate: calls still in progress on "
                + ", ".join(c.name for c in self.components if not c.is_idle)
            )
        self.report.quiescent_at = now
        for component in self.components:
            if component.lifecycle.state is LifecycleState.ACTIVE:
                component.passivate()
                self._passivated.append(component)

    def release(self, now: float = 0.0) -> None:
        """Step 3: reactivate components and flush buffered channels."""
        if not self._blocked:
            raise QuiescenceError("region is not blocked")
        for component in self._passivated:
            if component.lifecycle.state is LifecycleState.PASSIVE:
                component.lifecycle.transition(LifecycleState.ACTIVE)
        self._passivated.clear()
        self.report.buffered_calls = sum(b.pending_count for b in self.bindings)
        self.report.released_at = now
        for binding in self.bindings:
            binding.unblock()
        self._blocked = False

    @property
    def is_blocked(self) -> bool:
        return self._blocked


def reach_quiescence(region: QuiescenceRegion, sim: Simulator,
                     on_quiescent: Callable[[], None],
                     poll_interval: float = 0.001,
                     timeout: float = 10.0) -> None:
    """Asynchronously drive a region to quiescence.

    Blocks the channels now, then polls until in-progress calls drain and
    calls ``on_quiescent`` (with the region passivated).  Raises
    :class:`QuiescenceError` via the event loop when ``timeout`` passes
    first — the caller should release the region and retry or abort.
    """
    region.block(now=sim.now)
    deadline = sim.now + timeout

    def poll() -> None:
        region.report.polls += 1
        if region.is_drained():
            region.passivate(now=sim.now)
            on_quiescent()
            return
        if sim.now >= deadline:
            region.release(now=sim.now)
            raise QuiescenceError(
                f"quiescence (reconfiguration point) not reached within "
                f"{timeout} time units"
            )
        sim.schedule(poll, delay=poll_interval)

    sim.call_soon(poll)
