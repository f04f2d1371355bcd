"""One-shot and periodic timers on top of the simulator.

Periodic timers are the backbone of the paper's "periodical measurements
on the evolving infrastructure": QoS monitors, RAML observation sweeps and
load samplers are all periodic timers.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ClockError
from repro.events.simulator import Event, Simulator


class Timer:
    """A cancellable one-shot timer."""

    def __init__(
        self,
        sim: Simulator,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> None:
        self.sim = sim
        self.callback = callback
        self.args = args
        self.fired = False
        self._event: Event = sim.schedule(self._fire, delay=delay)

    def _fire(self) -> None:
        self.fired = True
        self.callback(*self.args)

    def cancel(self) -> None:
        """Cancel the timer if it has not fired yet."""
        if not self.fired:
            self._event.cancel()

    @property
    def active(self) -> bool:
        return not self.fired and not self._event.cancelled


class PeriodicTimer:
    """Fires ``callback`` every ``period`` time units until stopped.

    The first firing happens after one full period (matching sampling
    monitors, which need an interval before the first measurement).
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[..., Any],
        *args: Any,
        jitter: float = 0.0,
        rng: Any = None,
        name: str | None = None,
    ) -> None:
        if period <= 0:
            raise ClockError(f"periodic timer period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.callback = callback
        self.args = args
        self.jitter = jitter
        self.rng = rng
        #: Attribution label for telemetry; defaults to the callback name.
        self.name = name or "timer:" + getattr(
            callback, "__qualname__", type(callback).__name__
        )
        self.tick_count = 0
        self._stopped = False
        self._in_tick = False
        self._event: Event | None = None
        self._schedule_next()

    def _next_delay(self) -> float:
        if self.jitter and self.rng is not None:
            return max(1e-9, self.period + self.rng.uniform(-self.jitter, self.jitter))
        return self.period

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        self._event = self.sim.schedule(self._tick, delay=self._next_delay())

    def _tick(self) -> None:
        if self._stopped:
            return
        self.tick_count += 1
        # getattr, not attribute: the bench suite drives timers against
        # seed-shaped simulator stand-ins that predate instrumentation.
        hooks = getattr(self.sim, "_hooks", None)
        if hooks is not None:
            hooks.timer_tick(self)
        self._in_tick = True
        try:
            self.callback(*self.args)
        finally:
            self._in_tick = False
        self._schedule_next()

    def stop(self) -> None:
        """Stop the timer permanently."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()

    def set_period(self, period: float) -> None:
        """Change the period.

        The already-scheduled next tick is *rescheduled* onto the new
        period: a tick pending at ``last + old_period`` moves to
        ``last + new_period`` (clamped to the current time if that is
        already past; any jitter offset drawn for the pending tick is
        preserved).
        """
        if period <= 0:
            raise ClockError(f"periodic timer period must be positive, got {period}")
        old_period = self.period
        self.period = period
        if self._stopped or self._in_tick:
            # Inside the callback the next tick is not scheduled yet, so
            # the new period naturally applies to it — nothing to move.
            return
        event = self._event
        if event is None or event.cancelled:
            return
        target = event.time - old_period + period
        now = self.sim.now
        if target < now:
            target = now
        event.cancel()
        self._event = self.sim.at(self._tick, when=target)

    @property
    def running(self) -> bool:
        return not self._stopped
