"""The unified scheduling surface.

One canonical shape across the API — callable first, times by keyword
(``delay=`` / ``at=`` / ``when=``), every entry point returning the
:class:`Event` handle.  The old positional shapes raise at the call.
"""

import math
import warnings

import pytest

from repro.errors import ClockError
from repro.events import Simulator
from repro.events.simulator import Event


@pytest.fixture
def sim():
    return Simulator()


def recorder(log, tag):
    def callback(*args):
        log.append((tag, args))
    return callback


class TestCanonicalShapes:
    def test_schedule_with_delay(self, sim):
        log = []
        event = sim.schedule(recorder(log, "a"), 1, 2, delay=0.5)
        assert isinstance(event, Event)
        sim.run()
        assert log == [("a", (1, 2))]
        assert sim.now == 0.5

    def test_schedule_with_at(self, sim):
        log = []
        event = sim.schedule(recorder(log, "a"), at=2.0)
        assert isinstance(event, Event)
        sim.run()
        assert sim.now == 2.0
        assert log == [("a", ())]

    def test_schedule_default_is_now(self, sim):
        log = []
        sim.schedule(recorder(log, "now"))
        sim.run()
        assert sim.now == 0.0
        assert log == [("now", ())]

    def test_schedule_rejects_delay_and_at_together(self, sim):
        with pytest.raises(TypeError):
            sim.schedule(lambda: None, delay=1.0, at=2.0)

    def test_schedule_rejects_negative_delay(self, sim):
        with pytest.raises(ClockError):
            sim.schedule(lambda: None, delay=-1.0)

    def test_at_requires_when_keyword(self, sim):
        with pytest.raises(TypeError):
            sim.at(lambda: None)

    def test_at_with_when(self, sim):
        log = []
        event = sim.at(recorder(log, "x"), 7, when=1.5)
        assert isinstance(event, Event)
        sim.run()
        assert sim.now == 1.5
        assert log == [("x", (7,))]

    def test_at_rejects_past_times(self, sim):
        sim.schedule(lambda: None, delay=1.0)
        sim.run()
        with pytest.raises(ClockError):
            sim.at(lambda: None, when=0.5)

    def test_schedule_rejects_nan_delay(self, sim):
        sim.schedule(lambda: None, delay=1.0)
        with pytest.raises(ClockError):
            sim.schedule(lambda: None, delay=math.nan)
        assert sim.pending_events == 1

    def test_at_rejects_nan_time(self, sim):
        sim.schedule(lambda: None, delay=1.0)
        with pytest.raises(ClockError):
            sim.at(lambda: None, when=math.nan)
        assert sim.pending_events == 1

    def test_schedule_many_rejects_nan_time(self, sim):
        sim.schedule(lambda: None, delay=1.0)
        with pytest.raises(ClockError):
            sim.schedule_many([(0.5, lambda: None), (math.nan, lambda: None)])
        assert sim.pending_events == 1

    def test_infinite_time_is_accepted(self, sim):
        sim.schedule(lambda: None, delay=math.inf)
        sim.at(lambda: None, when=math.inf)
        sim.schedule_many([(math.inf, lambda: None)])
        assert sim.pending_events == 3

    def test_call_soon_returns_event(self, sim):
        log = []
        event = sim.call_soon(recorder(log, "soon"), "p")
        assert isinstance(event, Event)
        sim.run()
        assert log == [("soon", ("p",))]

    def test_priority_keyword_orders_same_time_events(self, sim):
        log = []
        sim.schedule(recorder(log, "late"), at=1.0, priority=5)
        sim.schedule(recorder(log, "early"), at=1.0, priority=-5)
        sim.run()
        assert [tag for tag, _ in log] == ["early", "late"]

    def test_events_are_cancellable_via_handle(self, sim):
        log = []
        event = sim.schedule(recorder(log, "nope"), delay=1.0)
        event.cancel()
        sim.run()
        assert log == []


class TestLegacyShapes:
    """The positional shapes ``schedule(delay, cb)`` / ``at(time, cb)``
    are gone: they fail at the call and schedule nothing."""

    def test_positional_schedule_raises_and_schedules_nothing(self, sim):
        log = []
        with pytest.raises(TypeError, match="delay="):
            sim.schedule(0.5, recorder(log, "legacy"))
        assert sim.pending_events == 0
        sim.run()
        assert (sim.now, log) == (0.0, [])

    def test_positional_at_raises_and_schedules_nothing(self, sim):
        log = []
        with pytest.raises(TypeError, match="when="):
            sim.at(2.0, recorder(log, "legacy"))
        assert sim.pending_events == 0
        sim.run()
        assert (sim.now, log) == (0.0, [])

    def test_legacy_shape_without_callback_raises(self, sim):
        with pytest.raises(TypeError):
            sim.schedule(1.0)

    def test_canonical_shape_emits_no_warning(self, sim):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim.schedule(lambda: None, delay=1.0)
            sim.at(lambda: None, when=2.0)
            sim.call_soon(lambda: None)
            sim.schedule_many([(0.1, lambda: None)])


class TestHorizonExclusiveRun:
    """``run(until=h, inclusive=False)`` — the conservative-lookahead
    contract used by :mod:`repro.parallel` round windows."""

    def test_inclusive_default_fires_events_at_horizon(self, sim):
        log = []
        sim.schedule(recorder(log, "edge"), at=1.0)
        sim.run(until=1.0)
        assert log == [("edge", ())]

    def test_exclusive_leaves_horizon_events_queued(self, sim):
        log = []
        sim.schedule(recorder(log, "edge"), at=1.0)
        sim.run(until=1.0, inclusive=False)
        assert log == []
        assert sim.now == 1.0
        assert sim.pending_events == 1

    def test_exclusive_event_fires_in_next_window(self, sim):
        log = []
        sim.schedule(recorder(log, "edge"), at=1.0)
        sim.run(until=1.0, inclusive=False)
        # a same-instant arrival injected at the barrier interleaves
        # ahead by scheduling order, deterministically
        sim.at(recorder(log, "injected"), when=1.0)
        sim.run(until=2.0, inclusive=False)
        assert [tag for tag, _ in log] == ["edge", "injected"]

    def test_exclusive_advances_clock_with_empty_queue(self, sim):
        sim.run(until=3.0, inclusive=False)
        assert sim.now == 3.0

    def test_events_before_horizon_run_in_exclusive_mode(self, sim):
        log = []
        sim.schedule(recorder(log, "in"), at=0.999)
        sim.schedule(recorder(log, "out"), at=1.0)
        sim.run(until=1.0, inclusive=False)
        assert [tag for tag, _ in log] == ["in"]
