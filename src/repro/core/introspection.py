"""Introspection: the observation side of RAML.

The figure in the paper shows "RAML streams" carrying introspection data
from serving components and connectors up to the meta-level.  The
:class:`IntrospectionHub` is that stream: it taps ports, connectors,
bindings, the registry and the network, normalises everything into
:class:`ObservationEvent` records, and fans them out to subscribers
(metric recorders, trace checkers, loggers).
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from itertools import islice
from typing import Any, Callable, NamedTuple

from repro.events import Simulator
from repro.kernel.binding import Binding
from repro.kernel.component import Component, Invocation, ProvidedPort
from repro.kernel.registry import Registry
from repro.netsim.network import Network


class ObservationEvent(NamedTuple):
    """One normalised introspection record."""

    time: float
    source: str       # e.g. "port:server.svc", "connector:rpc", "network"
    kind: str         # e.g. "call", "error", "register", "drop:loss"
    operation: str = ""
    details: tuple = ()


_PHASE_KINDS = {"before": "call", "after": "return", "error": "error"}


class IntrospectionHub:
    """Collects and fans out observation events."""

    def __init__(self, sim: Simulator, buffer_size: int = 10_000) -> None:
        self.sim = sim
        self.events: deque[ObservationEvent] = deque(maxlen=buffer_size)
        self.counts: Counter[str] = Counter()
        self.subscribers: tuple[Callable[[ObservationEvent], None], ...] = ()
        self._tapped: weakref.WeakSet[Any] = weakref.WeakSet()

    def emit(self, source: str, kind: str, operation: str = "",
             details: tuple = ()) -> None:
        event = ObservationEvent(self.sim.now, source, kind, operation, details)
        self.events.append(event)
        self.counts[kind] += 1
        for subscriber in self.subscribers:
            subscriber(event)

    def subscribe(self, subscriber: Callable[[ObservationEvent], None]) -> None:
        self.subscribers = (*self.subscribers, subscriber)

    # -- taps -----------------------------------------------------------------

    def _first_tap(self, target: Any) -> bool:
        """True the first time ``target`` is tapped.  Targets are held
        weakly: a new object at a freed one's address is a new target."""
        if target in self._tapped:
            return False
        self._tapped.add(target)
        return True

    def tap_port(self, port: ProvidedPort) -> None:
        """Observe every call phase on a provided port."""
        if not self._first_tap(port):
            return
        source = f"port:{port.qualified_name}"

        def observer(phase: str, invocation: Invocation, payload: Any) -> None:
            self.emit(source, _PHASE_KINDS[phase], invocation.operation)

        port.observers.append(observer)

    def tap_component(self, component: Component) -> None:
        for port in component.provided.values():
            self.tap_port(port)
        if self._first_tap(component):
            component.lifecycle.observers.append(
                lambda old, new: self.emit(
                    f"component:{component.name}", "lifecycle", str(new)
                )
            )

    def tap_connector(self, connector: Any) -> None:
        if not self._first_tap(connector):
            return
        source = f"connector:{connector.name}"

        def observer(phase: str, role: str, invocation: Invocation,
                     payload: Any) -> None:
            self.emit(source, _PHASE_KINDS[phase], invocation.operation,
                      details=(role,))

        connector.observers.append(observer)

    def tap_binding(self, binding: Binding) -> None:
        if not self._first_tap(binding):
            return
        source = f"binding:{binding.describe()}"

        def tap(invocation: Invocation, payload: Any, ok: bool) -> None:
            self.emit(source, "call" if ok else "error", invocation.operation)

        binding.taps.append(tap)

    def tap_registry(self, registry: Registry) -> None:
        if self._first_tap(registry):
            registry.observers.append(
                lambda event, component: self.emit(
                    "registry", event, component.name
                )
            )

    def tap_network(self, network: Network) -> None:
        if self._first_tap(network):
            network.taps.append(
                lambda event, message: self.emit(
                    "network", event, message.endpoint,
                    details=(message.source, message.destination),
                )
            )

    # -- queries -----------------------------------------------------------------

    def _audit_query(self, query: str, **fields: Any) -> None:
        """Every introspection query is a meta-level decision input —
        record it in the decision audit when telemetry is on."""
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.record_audit("raml.introspect", query=query, **fields)

    def recent(self, count: int = 100) -> list[ObservationEvent]:
        """The last ``count`` records in the ring, oldest first."""
        if count < 0:
            raise ValueError(f"recent() needs a count >= 0, got {count}")
        latest = list(islice(reversed(self.events), count))
        latest.reverse()
        self._audit_query("recent", count=count, returned=len(latest))
        return latest

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


class TraceConformance:
    """Checks observed call sequences against declared behaviour models.

    For every attached component with a ``behaviour`` LTS, each provided
    call advances a set of possible states (nondeterministic simulation
    on operation names).  A call with no enabled transition is recorded
    as a conformance violation — the RAML "checking the compliancy of
    each application with its behavioral constraints".
    """

    def __init__(self) -> None:
        self._states: dict[str, set[str]] = {}
        self._models: dict[str, Any] = {}
        self.violations: list[tuple[str, str]] = []
        self._attached: weakref.WeakSet[Component] = weakref.WeakSet()

    def attach(self, component: Component) -> None:
        """Check the component's provided calls; once per component."""
        if component.behaviour is None or component in self._attached:
            return
        self._attached.add(component)
        self._models[component.name] = component.behaviour
        self._states[component.name] = {component.behaviour.initial}
        name = component.name

        def observer(phase: str, invocation: Invocation, payload: Any) -> None:
            if phase == "before":
                self.observe_call(name, invocation.operation)

        for port in component.provided.values():
            port.observers.append(observer)

    def observe_call(self, component_name: str, operation: str) -> bool:
        """Advance the model; returns False (and records) on violation."""
        model = self._models.get(component_name)
        if model is None:
            return True
        current = self._states[component_name]
        successors: set[str] = set()
        for state in current:
            successors |= model.successors(state, operation)
        if not successors:
            self.violations.append((component_name, operation))
            # Re-anchor at the initial state so later calls keep being
            # checked rather than cascading failures.
            self._states[component_name] = {model.initial}
            return False
        self._states[component_name] = successors
        return True

    def conforming(self, component_name: str) -> bool:
        return not any(name == component_name
                       for name, _op in self.violations)
