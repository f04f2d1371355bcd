"""Deterministic discrete-event simulation kernel.

The simulator is a priority queue of timestamped events.  Determinism is
essential for reproducible benchmarks: events with equal timestamps are
ordered by (priority, insertion sequence), so two runs with the same seed
interleave identically.

Performance notes (the whole platform runs on this hot path):

* Heap entries are plain ``(time, priority, seq, event)`` tuples.  ``seq``
  is unique, so tuple comparison never falls through to the event object
  and no rich-comparison dispatch happens during heap sifts.
* :class:`Event` is a ``__slots__`` record — no per-instance dict.
* A live-event counter makes :attr:`Simulator.pending_events` O(1).
* Cancellation stays lazy (O(1)), but cancelled garbage no longer
  accumulates forever: when it outnumbers live events the queue is
  compacted in place (see :meth:`Simulator.compact`).
* Pending entries live in two structures: the heap, and a *sorted run*
  (a deque) beside it.  A :meth:`Simulator.schedule_many` batch that is
  already in (time, priority, seq) order and starts after the run's last
  entry extends the run with no heap work — a workload prescheduled up
  front (every open-loop send of a region, a churn's arrivals) then
  leaves the heap holding only what its events schedule, so each push
  and pop sifts a small heap.  :meth:`Simulator.run` pops whichever head
  is smaller; keys are unique, so the fire order is the heap-only order.
  Any other batch goes to the heap with one heapify when it is large
  relative to the heap, per-event pushes otherwise; every other schedule
  pushes onto the heap.
* Instrumentation is opt-in: :meth:`Simulator.set_hooks` installs a
  callback object observing schedule/fire/cancel (see
  :mod:`repro.telemetry`).  With no hooks installed the only cost is one
  ``is not None`` branch per operation, so the disabled path stays on the
  fast-path budget.
* Instrumentation is *sampled* inline: hooks carry an integer ``skip``
  gap the scheduling fast path counts down — an unsampled event pays one
  decrement at schedule time and one ``traced`` flag check at fire time,
  never a hook call or a ``perf_counter`` read.  A gap of zero (the
  telemetry default) traces every event.

Scheduling surface (canonical shapes, all returning :class:`Event`)::

    sim = Simulator()
    sim.schedule(callback, *args, delay=1.5)     # relative
    sim.schedule(callback, *args, at=42.0)       # absolute
    sim.at(callback, *args, when=42.0)           # absolute (sugar)
    sim.call_soon(callback, *args)               # now, after same-time peers
    sim.schedule_many([(1.5, callback), ...])    # bulk insert
    sim.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import lt
from time import perf_counter
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ClockError

#: Default priority for events; lower numbers fire first at equal times.
DEFAULT_PRIORITY = 0

#: Compaction trigger: the queue is rebuilt once more than this many
#: cancelled entries are queued *and* they outnumber the live ones.
COMPACT_MIN_GARBAGE = 64


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, seq)`` which gives a total,
    deterministic order.  ``seq`` is an insertion counter assigned by the
    simulator.  The ordering key lives in the heap entry tuple, not on
    the event itself, so events never need rich comparison.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled",
                 "traced", "_sim")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple = (),
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Sampled instrumentation: set by the scheduling fast path when
        # this event won the sampling draw; untraced events skip every
        # hook call and timing read on the fire path.
        self.traced = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing; cheap (lazy deletion)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            if self.traced:
                hooks = sim._hooks
                if hooks is not None:
                    hooks.event_cancelled(self)
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Event(time={self.time}, priority={self.priority}, "
            f"seq={self.seq}, cancelled={self.cancelled})"
        )


class Simulator:
    """Event loop with a simulated clock.

    The clock only advances when :meth:`run` executes events;
    scheduling is side-effect free until then.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, int, Event]] = []
        #: The sorted run: presorted batch entries beside the heap, in
        #: ascending key order (see :meth:`schedule_many`).
        self._run: deque[tuple[float, int, int, Event]] = deque()
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._executed = 0
        self._live = 0  # queued, non-cancelled events
        self._garbage = 0  # queued, cancelled events awaiting compaction/pop
        self._compactions = 0
        #: Instrumentation callbacks (see :meth:`set_hooks`); None = free.
        self._hooks: Any = None
        #: The session tracer, if telemetry is installed (duck-typed so the
        #: kernel never imports repro.telemetry).  Subsystems read this.
        self.tracer: Any = None

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of events executed so far (telemetry)."""
        return self._executed

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1) counter."""
        return self._live

    @property
    def queue_size(self) -> int:
        """Physical queue size, heap plus sorted run, live + cancelled
        garbage (telemetry)."""
        return len(self._queue) + len(self._run)

    @property
    def compactions(self) -> int:
        """How many times the queue has been compacted (telemetry)."""
        return self._compactions

    # -- instrumentation ---------------------------------------------------

    def set_hooks(self, hooks: Any) -> None:
        """Install (or with ``None`` remove) kernel instrumentation.

        ``hooks`` must expose ``event_scheduled(event)``,
        ``event_begin(event)``, ``event_end(event, wall_seconds)``,
        ``event_cancelled(event)``, ``timer_tick(timer)`` and an integer
        ``skip`` attribute: the number of upcoming schedules the loop
        drops *inline* (one decrement each, no call) before the next
        sampled event.  ``event_scheduled`` fires only for sampled
        events — it marks them via ``event.traced`` having been set by
        the loop — and should replenish ``skip`` with the next gap
        (keep it 0 to trace everything).  ``event_begin`` / ``event_end``
        / ``event_cancelled`` fire only for traced events.  Only one
        hook object can be installed; :mod:`repro.telemetry` multiplexes
        if more consumers are needed.
        """
        self._hooks = hooks

    @property
    def hooks(self) -> Any:
        return self._hooks

    # -- scheduling -------------------------------------------------------

    def _schedule_at(self, time: float, callback: Callable[..., Any],
                     args: tuple, priority: int) -> Event:
        """Shared push path: validate the time, enqueue, run sampling."""
        # Written so that NaN fails it too: a NaN key has no heap order.
        if not time >= self._now:
            raise ClockError(
                f"cannot schedule at t={time}, clock is already at t={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, args, self)
        self._live += 1
        heapq.heappush(self._queue, (time, priority, seq, event))
        hooks = self._hooks
        if hooks is not None:
            # Sampled instrumentation: count down the gap inline so an
            # unsampled schedule costs one decrement, not a call.
            gap = hooks.skip
            if gap:
                hooks.skip = gap - 1
            else:
                event.traced = True
                hooks.event_scheduled(event)
        return event

    def schedule(
        self,
        callback: Callable[..., Any],
        *args: Any,
        delay: float | None = None,
        at: float | None = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)``; the unified scheduling front door.

        Exactly one of the keyword times applies:

        * ``delay=`` — relative: fire ``delay`` time units from now
          (default ``0.0``, i.e. :meth:`call_soon` semantics);
        * ``at=`` — absolute simulated time.

        Returns the :class:`Event` handle (cancellable).  A non-callable
        first argument, as in ``schedule(0.5, callback)``, raises
        :class:`TypeError` here rather than when the event fires.
        """
        if callable(callback):
            if at is None:
                if delay is None:
                    return self._schedule_at(self._now, callback, args, priority)
                if delay < 0:
                    raise ClockError(
                        f"cannot schedule {delay} time units in the past")
                return self._schedule_at(self._now + delay, callback, args,
                                         priority)
            if delay is not None:
                raise TypeError(
                    "schedule() takes either delay= or at=, not both")
            return self._schedule_at(at, callback, args, priority)
        raise TypeError(
            f"schedule() first argument must be callable, got "
            f"{type(callback).__name__}; use schedule(callback, *args, "
            "delay=...) or at=...")

    def at(
        self,
        callback: Callable[..., Any],
        *args: Any,
        when: float | None = None,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``when``.

        Returns the :class:`Event` handle.  A non-callable first
        argument raises :class:`TypeError`, as in :meth:`schedule`.
        """
        if callable(callback):
            if when is None:
                raise TypeError("at() requires the when= keyword")
            return self._schedule_at(when, callback, args, priority)
        raise TypeError(
            f"at() first argument must be callable, got "
            f"{type(callback).__name__}; use at(callback, *args, when=...)")

    def call_soon(
        self,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = DEFAULT_PRIORITY,
    ) -> Event:
        """Schedule ``callback`` at the current time (after pending same-time
        events).  Returns the :class:`Event` handle."""
        return self._schedule_at(self._now, callback, args, priority)

    def schedule_many(
        self,
        items: Iterable[Sequence],
        *,
        absolute: bool = False,
        priority: int = DEFAULT_PRIORITY,
    ) -> list[Event]:
        """Bulk-insert a batch of events.

        Each item is ``(delay, callback)``, ``(delay, callback, args)`` or
        ``(delay, callback, args, priority)``; with ``absolute=True`` the
        first element is an absolute simulated time instead of a delay.
        Sequence numbers are assigned in iteration order, so the batch
        interleaves exactly as the equivalent sequence of
        :meth:`schedule` / :meth:`at` calls would.

        A batch already in (time, priority, seq) order that starts after
        the sorted run's last entry extends the run; any other batch
        goes to the heap.  Either way the fire order is the same.

        Returns the created events, in input order.
        """
        now = self._now
        seq = self._seq
        events: list[Event] = []
        entries: list[tuple[float, int, int, Event]] = []
        for item in items:
            when = item[0] if absolute else now + item[0]
            callback = item[1]
            args = tuple(item[2]) if len(item) > 2 else ()
            prio = item[3] if len(item) > 3 else priority
            if not when >= now:  # NaN fails too
                raise ClockError(
                    f"cannot schedule at t={when}, clock is already at t={now}"
                )
            event = Event(when, prio, seq, callback, args, self)
            entries.append((when, prio, seq, event))
            events.append(event)
            seq += 1
        self._seq = seq
        if not entries:
            return events
        run = self._run
        queue = self._queue
        if (not run or run[-1] < entries[0]) and \
                all(map(lt, entries, entries[1:])):
            run.extend(entries)
        elif len(entries) * 8 >= len(queue):
            # Batch is large relative to the heap: one O(n+m) heapify
            # beats m O(log n) sift-ups.
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            push = heapq.heappush
            for entry in entries:
                push(queue, entry)
        self._live += len(entries)
        hooks = self._hooks
        if hooks is not None:
            for event in events:
                gap = hooks.skip
                if gap:
                    hooks.skip = gap - 1
                else:
                    event.traced = True
                    hooks.event_scheduled(event)
        return events

    # -- cancellation bookkeeping ----------------------------------------

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._garbage += 1
        if self._garbage > COMPACT_MIN_GARBAGE and self._garbage > self._live:
            self.compact()

    def compact(self) -> int:
        """Drop cancelled entries from the heap and the sorted run; returns
        how many were removed.

        Runs automatically once cancelled garbage outnumbers live events
        (so `PeriodicTimer.stop()` churn cannot leak memory), but can be
        called explicitly after a large cancellation wave.  Both
        structures are rebuilt in place, so a :meth:`run` that a
        cancelling callback interrupts keeps draining the same objects.
        """
        queue, run = self._queue, self._run
        before = len(queue) + len(run)
        queue[:] = [entry for entry in queue if not entry[3].cancelled]
        heapq.heapify(queue)
        kept = [entry for entry in run if not entry[3].cancelled]
        run.clear()
        run.extend(kept)
        self._garbage = 0
        removed = before - len(queue) - len(run)
        if removed:
            self._compactions += 1
        return removed

    # -- execution --------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None,
            inclusive: bool = True) -> float:
        """Run events in order.

        Args:
            until: stop once the clock would pass this time (the clock is
                left at ``until`` if events remain beyond it).
            max_events: safety valve for runaway simulations.
            inclusive: with the default True, events at exactly ``until``
                still fire.  ``inclusive=False`` makes ``until`` an
                *exclusive horizon*: only events strictly before it run
                and the clock is left at ``until``.  This is the
                conservative-lookahead contract :mod:`repro.parallel`
                relies on — events at the horizon stay queued so
                cross-region messages arriving exactly at the horizon
                still interleave deterministically with them.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise ClockError("simulator is already running (re-entrant run())")
        self._running = True
        executed = 0
        exclusive = not inclusive
        queue, run = self._queue, self._run
        pop, popleft = heapq.heappop, run.popleft
        try:
            while queue or run:
                if max_events is not None and executed >= max_events:
                    break
                # The smaller head of the heap and the sorted run fires
                # next; keys are unique, so the two heads never tie.
                from_run = run and (not queue or run[0] < queue[0])
                entry = run[0] if from_run else queue[0]
                head_time = entry[0]
                if until is not None and (
                        head_time > until
                        or (exclusive and head_time == until)):
                    self._now = until
                    break
                if from_run:
                    popleft()
                else:
                    pop(queue)
                event = entry[3]
                if event.cancelled:
                    self._garbage -= 1
                    continue
                self._live -= 1
                event._sim = None
                self._now = entry[0]
                self._executed += 1
                executed += 1
                hooks = self._hooks
                if hooks is None or not event.traced:
                    event.callback(*event.args)
                else:
                    hooks.event_begin(event)
                    start = perf_counter()
                    try:
                        event.callback(*event.args)
                    finally:
                        hooks.event_end(event, perf_counter() - start)
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        for entry in self._queue:
            entry[3]._sim = None
        for entry in self._run:
            entry[3]._sim = None
        self._queue.clear()
        self._run.clear()
        self._now = 0.0
        self._seq = 0
        self._executed = 0
        self._live = 0
        self._garbage = 0
        self._compactions = 0
