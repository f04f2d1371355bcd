"""Unit tests for one-shot and periodic timers."""

import random

import pytest

from repro.errors import ClockError
from repro.events import PeriodicTimer, Simulator, Timer


def test_one_shot_timer_fires_once():
    sim = Simulator()
    fired = []
    Timer(sim, 2.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]


def test_one_shot_timer_cancel():
    sim = Simulator()
    fired = []
    timer = Timer(sim, 2.0, fired.append, "x")
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.active


def test_periodic_timer_fires_every_period():
    sim = Simulator()
    ticks = []
    PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.run(until=4.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0]


def test_periodic_timer_stop():
    sim = Simulator()
    timer = PeriodicTimer(sim, 1.0, lambda: None)
    sim.run(until=2.5)
    timer.stop()
    executed_before = sim.executed_events
    sim.run(until=10.0)
    assert timer.tick_count == 2
    assert sim.executed_events == executed_before
    assert not timer.running


def test_periodic_timer_stop_inside_callback():
    sim = Simulator()
    timer = PeriodicTimer(sim, 1.0, lambda: timer.stop())
    sim.run(until=10.0)
    assert timer.tick_count == 1


def test_periodic_timer_set_period_reschedules_pending_tick():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.0)
    # The tick pending at t=3.0 moves onto the new period: 2.0 + 3.0.
    timer.set_period(3.0)
    sim.run(until=12.0)
    assert ticks == [1.0, 2.0, 5.0, 8.0, 11.0]


def test_periodic_timer_set_period_shrink_clamps_to_now():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(sim, 10.0, lambda: ticks.append(sim.now))
    sim.run(until=12.0)  # one tick at 10.0; next pending at 20.0
    # New period 1.0 would put the next tick at 11.0 — already past, so
    # it fires immediately (t=12.0) and then every period.
    timer.set_period(1.0)
    sim.run(until=14.5)
    assert ticks == [10.0, 12.0, 13.0, 14.0]


def test_periodic_timer_set_period_inside_callback():
    sim = Simulator()
    ticks = []

    def on_tick():
        ticks.append(sim.now)
        if len(ticks) == 2:
            timer.set_period(2.0)

    timer = PeriodicTimer(sim, 1.0, on_tick)
    sim.run(until=7.0)
    # Changed during the tick at t=2.0 — applies to every later tick,
    # exactly once (no double-scheduling).
    assert ticks == [1.0, 2.0, 4.0, 6.0]


def test_periodic_timer_set_period_preserves_jitter_offset():
    sim = Simulator()
    ticks = []
    timer = PeriodicTimer(
        sim, 1.0, lambda: ticks.append(sim.now), jitter=0.1, rng=random.Random(3)
    )
    sim.run(until=1.5)  # first tick fired; second pending at tick + 1 ± 0.1
    pending = timer._event.time
    offset = pending - ticks[-1] - 1.0
    timer.set_period(5.0)
    assert timer._event.time == pytest.approx(ticks[-1] + 5.0 + offset)
    sim.run(until=ticks[-1] + 5.2)
    assert len(ticks) == 2


def test_periodic_timer_rejects_nonpositive_period():
    sim = Simulator()
    with pytest.raises(ClockError):
        PeriodicTimer(sim, 0.0, lambda: None)
    timer = PeriodicTimer(sim, 1.0, lambda: None)
    with pytest.raises(ClockError):
        timer.set_period(-1.0)


def test_stopped_timer_churn_does_not_leak_queue_entries():
    from repro.events.simulator import COMPACT_MIN_GARBAGE

    sim = Simulator()
    for _ in range(5000):
        PeriodicTimer(sim, 1000.0, lambda: None).stop()
    assert sim.pending_events == 0
    # Lazy-cancel garbage is compacted away instead of accumulating.
    assert sim.queue_size <= COMPACT_MIN_GARBAGE + 1
    assert sim.compactions > 0


def test_periodic_timer_jitter_stays_near_period():
    sim = Simulator()
    ticks = []
    PeriodicTimer(
        sim, 1.0, lambda: ticks.append(sim.now), jitter=0.1, rng=random.Random(7)
    )
    sim.run(until=20.0)
    gaps = [b - a for a, b in zip([0.0] + ticks, ticks)]
    assert all(0.9 <= gap <= 1.1 for gap in gaps)
    assert 17 <= len(ticks) <= 22
