"""The introspection hub stores, counts and fans out every generated
stream of observations exactly as the dataclass hub it replaced.

The reference is that hub's record type and its ``emit``, ``subscribe``,
``recent``, ``count`` and ``error_ratio``, copied unchanged: a frozen
dataclass per event and a copy of the subscriber list on every fan-out.
Steps mix emits at advancing simulated times, plain subscribers, a
subscriber that subscribes another one in the middle of a fan-out, and
the ``count``, ``error_ratio`` and ``recent`` queries, over rings of 1
to 16 slots.  ``recent`` is asked for one record or more, the counts
the old hub answered correctly.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core import IntrospectionHub
from repro.events import Simulator


@dataclass(frozen=True)
class ObservationEvent:
    """One normalised introspection record."""

    time: float
    source: str       # e.g. "port:server.svc", "connector:rpc", "network"
    kind: str         # e.g. "call", "error", "register", "drop:loss"
    operation: str = ""
    details: tuple = ()


class ReferenceHub:
    """The dataclass hub: the oracle for :class:`IntrospectionHub`."""

    def __init__(self, sim: Simulator, buffer_size: int = 10_000) -> None:
        self.sim = sim
        self.events: deque[ObservationEvent] = deque(maxlen=buffer_size)
        self.counts: Counter[str] = Counter()
        self.subscribers: list[Callable[[ObservationEvent], None]] = []

    def emit(self, source: str, kind: str, operation: str = "",
             details: tuple = ()) -> None:
        event = ObservationEvent(self.sim.now, source, kind, operation, details)
        self.events.append(event)
        self.counts[kind] += 1
        for subscriber in list(self.subscribers):
            subscriber(event)

    def subscribe(self, subscriber: Callable[[ObservationEvent], None]) -> None:
        self.subscribers.append(subscriber)

    def _audit_query(self, query: str, **fields: Any) -> None:
        """Every introspection query is a meta-level decision input —
        record it in the decision audit when telemetry is on."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record_audit("raml.introspect", query=query, **fields)

    def recent(self, count: int = 100) -> list[ObservationEvent]:
        self._audit_query("recent", count=count,
                          returned=min(count, len(self.events)))
        return list(self.events)[-count:]

    def count(self, kind: str) -> int:
        result = self.counts.get(kind, 0)
        self._audit_query("count", kind=kind, result=result)
        return result

    def error_ratio(self) -> float:
        calls = self.counts.get("call", 0)
        errors = self.counts.get("error", 0)
        total = calls + errors
        ratio = errors / total if total else 0.0
        self._audit_query("error_ratio", calls=calls, errors=errors,
                          result=ratio)
        return ratio


def fields(event) -> tuple:
    return (event.time, event.source, event.kind, event.operation,
            event.details)


KINDS = ["call", "error", "return", "lifecycle", "drop:loss"]

emits = st.tuples(
    st.just("emit"),
    st.sampled_from(["port:server.svc", "connector:rpc", "network",
                     "binding:client.peer->server.svc"]),
    st.sampled_from(KINDS),
    st.sampled_from(["", "render", "echo"]),
    st.sampled_from([(), ("client",), ("leaf0", "leaf1")]),
)
steps = st.lists(
    st.one_of(
        emits,
        st.tuples(st.just("advance"),
                  st.sampled_from([0.0, 0.05, 0.25, 1.0])),
        st.just(("subscribe",)),
        st.just(("subscribe_during_fan_out",)),
        st.tuples(st.just("count"), st.sampled_from(KINDS)),
        st.just(("error_ratio",)),
        st.tuples(st.just("recent"), st.integers(1, 20)),
    ),
    max_size=40,
)


def replay(hub_type, buffer_size, steps):
    """Run ``steps`` on a fresh hub; everything a caller could observe."""
    sim = Simulator()
    hub = hub_type(sim, buffer_size=buffer_size)
    logs: list[list[tuple]] = []
    answers: list[Any] = []

    def recorder():
        log: list[tuple] = []
        logs.append(log)
        return lambda event: log.append(fields(event))

    def subscribing_recorder():
        record = recorder()
        fired = []

        def subscriber(event):
            record(event)
            if not fired:
                fired.append(True)
                hub.subscribe(recorder())

        return subscriber

    for step in steps:
        op = step[0]
        if op == "emit":
            hub.emit(*step[1:])
        elif op == "advance":
            sim.schedule(lambda: None, delay=step[1])
            sim.run()
        elif op == "subscribe":
            hub.subscribe(recorder())
        elif op == "subscribe_during_fan_out":
            hub.subscribe(subscribing_recorder())
        elif op == "count":
            answers.append(hub.count(step[1]))
        elif op == "error_ratio":
            answers.append(hub.error_ratio())
        else:
            answers.append([fields(e) for e in hub.recent(step[1])])
    return ([fields(e) for e in hub.events], dict(hub.counts), logs,
            answers)


@given(st.integers(1, 16), steps)
@settings(max_examples=200, deadline=None)
@example(1, [("emit", "network", "send", "status", ("leaf0", "leaf1")),
             ("emit", "connector:rpc", "error", "render", ("client",)),
             ("recent", 3), ("count", "error"), ("error_ratio",)])
@example(4, [("subscribe",), ("subscribe_during_fan_out",), ("subscribe",),
             ("emit", "port:server.svc", "call", "render", ()),
             ("advance", 0.25),
             ("emit", "port:server.svc", "return", "render", ())])
def test_hub_matches_the_dataclass_hub(buffer_size, steps):
    assert (replay(IntrospectionHub, buffer_size, steps)
            == replay(ReferenceHub, buffer_size, steps))
