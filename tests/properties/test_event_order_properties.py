"""The sorted run beside the event heap never changes what fires when.

:class:`~repro.events.Simulator` keeps a ``schedule_many`` batch that is
already in (time, priority, seq) order, and starts after its sorted
run's tail, in that run instead of the heap.  ``HeapOnly`` below is the
kernel without the run: every entry on one heap, lazy cancellation,
the same compaction rule.  Generated programs mix single schedules,
sorted and unsorted batches (before, at and after the tail, with equal
times and priorities), cancellations (from outside and from callbacks
inside ``run()``, enough of them to compact), bounded and unbounded
runs, ``max_events`` and ``reset()``, and both kernels must fire the
same (time, label) sequence with the same counters after every step.
"""

import heapq
import random

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.events import Simulator
from repro.events.simulator import COMPACT_MIN_GARBAGE


class _HeapOnlyEvent:
    __slots__ = ("callback", "args", "cancelled", "kernel")

    def __init__(self, callback, args, kernel):
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.kernel = kernel

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        kernel = self.kernel
        if kernel is not None:
            self.kernel = None
            kernel.live -= 1
            kernel.garbage += 1
            if kernel.garbage > COMPACT_MIN_GARBAGE and \
                    kernel.garbage > kernel.live:
                kernel.compact()


class HeapOnly:
    """Reference kernel: every pending entry on one heap."""

    def __init__(self):
        self.heap = []
        self.reset()

    def reset(self):
        for entry in self.heap:
            entry[3].kernel = None
        self.heap.clear()
        self.now = 0.0
        self.seq = 0
        self.live = self.garbage = 0
        self.executed_events = self.compactions = 0

    @property
    def queue_size(self):
        return len(self.heap)

    @property
    def pending_events(self):
        return self.live

    def schedule(self, callback, *args, at, priority=0):
        assert at >= self.now
        event = _HeapOnlyEvent(callback, args, self)
        heapq.heappush(self.heap, (at, priority, self.seq, event))
        self.seq += 1
        self.live += 1
        return event

    def schedule_many(self, items, absolute):
        assert absolute
        return [self.schedule(callback, *args, at=when, priority=priority)
                for when, callback, args, priority in items]

    def compact(self):
        before = len(self.heap)
        self.heap[:] = [entry for entry in self.heap
                        if not entry[3].cancelled]
        heapq.heapify(self.heap)
        self.garbage = 0
        if len(self.heap) < before:
            self.compactions += 1

    def run(self, until=None, max_events=None, inclusive=True):
        heap = self.heap
        executed = 0
        while heap:
            if max_events is not None and executed >= max_events:
                break
            time = heap[0][0]
            if until is not None and (
                    time > until or (not inclusive and time == until)):
                self.now = until
                break
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self.garbage -= 1
                continue
            self.live -= 1
            event.kernel = None
            self.now = time
            self.executed_events += 1
            executed += 1
            event.callback(*event.args)
        else:
            if until is not None and until > self.now:
                self.now = until
        return self.now


def _counters(kernel):
    return (kernel.now, kernel.queue_size, kernel.pending_events,
            kernel.executed_events, kernel.compactions)


TIMES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
PRIORITIES = (-1, 0, 0, 1)

#: What a fired event does next: nothing, cancel a stretch of events,
#: schedule one event, or schedule a batch.
reactions = st.one_of(
    st.none(),
    st.tuples(st.just("cancel"), st.integers(0, 400), st.integers(1, 120)),
    st.tuples(st.just("schedule"), st.sampled_from(TIMES),
              st.sampled_from(PRIORITIES)),
    st.tuples(st.just("batch"), st.integers(0, 10_000)),
)

steps = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(TIMES),
              st.sampled_from(PRIORITIES), reactions),
    st.tuples(st.just("batch"), st.integers(0, 10_000)),
    st.tuples(st.just("cancel"), st.integers(0, 400), st.integers(1, 120)),
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.sampled_from(TIMES)),
              st.booleans(),
              st.one_of(st.none(), st.integers(0, 40))),
    st.just(("reset",)),
)


class _Program:
    """Plays one generated program on one kernel, recording what fires."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.events = []  # every event handle, in creation order
        self.fired = []
        self.high = 0.0  # latest time any batch has used so far
        self.reactions = {}

    def fire(self, label):
        self.fired.append((self.kernel.now, label))
        reaction = self.reactions.get(label)
        if reaction is not None:
            self.apply(reaction)

    def add(self, when, priority, reaction=None):
        label = len(self.events)
        if reaction is not None:
            self.reactions[label] = reaction
        self.events.append(self.kernel.schedule(
            self.fire, label, at=self.kernel.now + when, priority=priority))

    def batch(self, seed):
        """A batch drawn from ``seed``: sorted or not, starting before,
        at or after the latest batch time, with runs of equal times and
        equal priorities; one batch in four holds over a hundred."""
        rng = random.Random(seed)
        size = rng.choice((1, 3, 12, 40, 150))
        start = max(self.kernel.now, rng.choice(
            (self.high - 1.0, self.high - 0.25, self.high, self.high,
             self.high + 0.25, self.high + 1.0)))
        step = rng.choice((0.0, 0.25, 0.5))
        keys = [(start + step * rng.randrange(4), rng.choice(PRIORITIES))
                for _ in range(size)]
        if rng.random() < 0.75:
            keys.sort()
        label = len(self.events)
        items = []
        for offset, (when, priority) in enumerate(keys):
            items.append((when, self.fire, (label + offset,), priority))
            self.high = max(self.high, when)
        self.events.extend(self.kernel.schedule_many(items, absolute=True))

    def cancel(self, back, count):
        """Cancel ``count`` events from the ``back``-th latest on (fired,
        cancelled and reset ones take it as a no-op)."""
        first = max(0, len(self.events) - back)
        for event in self.events[first:first + count]:
            event.cancel()

    def apply(self, step):
        kind = step[0]
        if kind == "schedule":
            self.add(*step[1:])
        elif kind == "batch":
            self.batch(step[1])
        elif kind == "cancel":
            self.cancel(step[1], step[2])
        elif kind == "run":
            until, inclusive, max_events = step[1:]
            if until is not None:
                until += self.kernel.now
            self.kernel.run(until=until, inclusive=inclusive,
                            max_events=max_events)
        else:
            self.kernel.reset()
            self.high = 0.0

    def play(self, program):
        observed = []
        for step in program:
            self.apply(step)
            observed.append(_counters(self.kernel))
        self.kernel.run()
        observed.append(_counters(self.kernel))
        return self.fired, observed


def _both(program):
    return _Program(Simulator()).play(program), \
        _Program(HeapOnly()).play(program)


@given(st.lists(steps, min_size=1, max_size=25))
@settings(max_examples=300, deadline=None)
def test_fire_order_and_counters_match_heap_only_kernel(program):
    actual, expected = _both(program)
    assert actual == expected


def _uses_the_run(program):
    """The batch steps of ``program`` that a Simulator keeps in its run."""
    sim = Simulator()
    play = _Program(sim)
    kept = 0
    for step in program:
        before = len(sim._run)
        play.apply(step)
        kept += step[0] == "batch" and len(sim._run) > before
    return kept


def test_generated_programs_reach_the_run_compaction_and_callbacks():
    """Hand-picked programs of the same shapes cover every branch the
    property is there to compare."""
    sorted_tail = [("batch", seed) for seed in range(12)] + [
        ("run", 0.5, False, None), ("batch", 99), ("run", None, True, 7)]
    assert _uses_the_run(sorted_tail) >= 3
    # A callback inside run() cancels most of a 150-entry batch: the
    # queue compacts while the loop is draining it.
    big = next(seed for seed in range(100)
               if random.Random(seed).choice((1, 3, 12, 40, 150)) == 150)
    compacting = [("batch", big),
                  ("schedule", 0.0, -1, ("cancel", 151, 120)),
                  ("run", 1.0, True, None), ("reset",),
                  ("batch", big), ("cancel", 150, 100), ("run", None, True, 3)]
    actual, expected = _both(compacting)
    assert actual == expected
    assert actual[1][2][4] >= 1  # compacted inside the first run()
    assert actual[1][-1][4] >= 1  # and again after reset()
