"""Components, ports and the invocation pipeline.

A :class:`Component` exposes *provided ports* (typed by
:class:`~repro.kernel.interface.Interface`) and declares *required ports*
that are wired to other components through
:class:`~repro.kernel.binding.Binding` objects or connectors.

Every call flows through an invocation pipeline on the provided port:

    caller → RequiredPort.call → Binding → ProvidedPort.invoke
           → [interceptor chain] → implementation method

The interceptor chain is the single extension point the adaptation
mechanisms share: composition filters, aspects, injectors and container
policies all attach here.  Every chain on the platform, on ports,
connectors, frameworks, ORBs, filter sets, meta-object chains, around
advice and injected channels, runs through :func:`run_chain`, which
fixes the chain when a call enters it.  Observers on the port provide
the *introspection* stream the paper's RAML consumes.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol, Reversible

from repro.errors import ComponentError, InterfaceError
from repro.kernel.interface import Interface
from repro.kernel.lifecycle import Lifecycle, LifecycleState

_invocation_ids = itertools.count(1)


@dataclass
class Invocation:
    """One call travelling through the platform.

    ``meta`` is a free-form header dictionary that filters, aspects and
    connectors may read and write (message-manipulation in the
    composition-filters sense).
    """

    operation: str
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    invocation_id: int = field(default_factory=lambda: next(_invocation_ids))
    caller: str = ""

    def copy(self) -> "Invocation":
        clone = Invocation(
            operation=self.operation,
            args=self.args,
            kwargs=dict(self.kwargs),
            meta=dict(self.meta),
            caller=self.caller,
        )
        return clone


#: An interceptor wraps the rest of the pipeline: fn(invocation, proceed).
Interceptor = Callable[[Invocation, Callable[[Invocation], Any]], Any]


def run_chain(chain: Reversible[Callable[[Any, Callable[[Any], Any]], Any]],
              invocation: Any, terminal: Callable[[Any], Any]) -> Any:
    """Run ``invocation`` through each ``fn(invocation, proceed)`` of
    ``chain`` in order, then ``terminal``; return what the chain returns.

    ``chain`` is read once, on entry: an interceptor added or removed
    while a call is in flight takes effect from the next call, also for
    a ``proceed`` kept and resumed later.  An interceptor may rewrite the
    invocation, return without calling ``proceed``, or call it again.
    """
    # Back to front, each continuation holding the next one as a default
    # argument: no closure refers to itself, so a call leaves no cycle
    # for the cyclic garbage collector.
    proceed = terminal
    for fn in reversed(chain):
        proceed = lambda inv, _f=fn, _p=proceed: _f(inv, _p)  # noqa: E731
    return proceed(invocation)


#: Observers see (phase, invocation, payload) where phase is
#: "before" (payload None), "after" (payload result) or "error" (payload exc).
Observer = Callable[[str, Invocation, Any], None]


class Invocable(Protocol):
    """Anything a binding can target: provided ports, connector roles…"""

    interface: Interface

    def invoke(self, invocation: Invocation) -> Any: ...


class ProvidedPort:
    """A typed entry point of a component."""

    def __init__(self, name: str, interface: Interface, component: "Component") -> None:
        self.name = name
        self.interface = interface
        self.component = component
        self.interceptors: list[Interceptor] = []
        self.observers: list[Observer] = []
        #: Interface adapters installed by breaking interface evolutions;
        #: consistency checking treats callers of ``adapter.old`` as served.
        self.adapters: list[Any] = []
        self.call_count = 0
        self.error_count = 0

    def add_interceptor(self, interceptor: Interceptor, index: int | None = None) -> None:
        """Attach an interceptor; ``index`` controls chain position."""
        if index is None:
            self.interceptors.append(interceptor)
        else:
            self.interceptors.insert(index, interceptor)

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        try:
            self.interceptors.remove(interceptor)
        except ValueError:
            raise ComponentError(
                f"interceptor not attached to port {self.qualified_name}"
            ) from None

    @property
    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    def _notify(self, phase: str, invocation: Invocation, payload: Any) -> None:
        for observer in list(self.observers):
            observer(phase, invocation, payload)

    def invoke(self, invocation: Invocation) -> Any:
        """Run the invocation through interceptors and the implementation."""
        if invocation.operation in self.interface:
            operation = self.interface.operation(invocation.operation)
        else:
            operation = None
        if operation is None or not operation.accepts_arity(len(invocation.args)):
            # Legacy callers after a breaking interface evolution — the
            # operation was renamed, or its signature changed shape.  If
            # an installed adapter still speaks the caller's dialect, its
            # interceptor will translate the call.
            for adapter in self.adapters:
                if invocation.operation in adapter.old:
                    legacy = adapter.old.operation(invocation.operation)
                    if legacy.accepts_arity(len(invocation.args)):
                        operation = legacy
                        break
            if operation is None:
                raise InterfaceError(
                    f"interface {self.interface.name!r} has no operation "
                    f"{invocation.operation!r}"
                )
        if not operation.accepts_arity(len(invocation.args)):
            raise InterfaceError(
                f"{self.qualified_name}.{invocation.operation} expects "
                f"{operation.min_arity}..{operation.max_arity} args, "
                f"got {len(invocation.args)}"
            )
        self.component.lifecycle.require(LifecycleState.ACTIVE)
        self.call_count += 1
        self._notify("before", invocation, None)
        self.component._active_calls += 1
        try:
            result = run_chain(
                self.interceptors, invocation,
                lambda inv: self.component.dispatch(self.name, inv),
            )
        except Exception as exc:
            self.error_count += 1
            self._notify("error", invocation, exc)
            raise
        finally:
            self.component._active_calls -= 1
        self._notify("after", invocation, result)
        return result


class RequiredPort:
    """A typed dependency of a component, satisfied by a binding."""

    def __init__(self, name: str, interface: Interface, component: "Component") -> None:
        self.name = name
        self.interface = interface
        self.component = component
        self.binding: Any = None  # repro.kernel.binding.Binding, set on bind
        #: Output interceptors, applied before the invocation leaves the
        #: component (output composition filters attach here).
        self.interceptors: list[Interceptor] = []

    @property
    def qualified_name(self) -> str:
        return f"{self.component.name}.{self.name}"

    @property
    def is_bound(self) -> bool:
        return self.binding is not None

    def call(self, operation: str, *args: Any, **kwargs: Any) -> Any:
        """Synchronous call through output interceptors and the binding."""
        if self.binding is None:
            raise ComponentError(
                f"required port {self.qualified_name} is not bound"
            )
        if not self.interceptors:
            return self.binding.call(
                operation, *args, caller=self.component.name, **kwargs
            )
        return run_chain(
            self.interceptors,
            Invocation(operation, args, kwargs, caller=self.component.name),
            lambda inv: self.binding.call(
                inv.operation, *inv.args, caller=self.component.name,
                **inv.kwargs,
            ),
        )

    def call_async(
        self,
        operation: str,
        *args: Any,
        on_result: Callable[[Any], None] | None = None,
        **kwargs: Any,
    ) -> None:
        """Asynchronous call; buffers transparently during quiescence."""
        if self.binding is None:
            raise ComponentError(
                f"required port {self.qualified_name} is not bound"
            )
        self.binding.call_async(
            operation, *args,
            on_result=on_result, caller=self.component.name, **kwargs,
        )


class Component:
    """Base class for every component in the platform.

    Subclasses implement operations as ordinary methods and register them
    by calling :meth:`provide`; alternatively an *implementation object*
    whose methods match the interface's operations may be supplied.

    All externally relevant state must live in ``self.state`` (a dict) or
    be exposed through ``capture_state``/``restore_state`` overrides so
    that *strong dynamic reconfiguration* can move it to a replacement.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ComponentError("component name must be non-empty")
        self.name = name
        self.lifecycle = Lifecycle()
        self.provided: dict[str, ProvidedPort] = {}
        self.required: dict[str, RequiredPort] = {}
        self.state: dict[str, Any] = {}
        self._implementations: dict[str, Any] = {}
        self._active_calls = 0
        self.node_name: str | None = None  # set when deployed
        self.behaviour: Any = None  # optional repro.lts.Lts protocol model

    # -- port declaration ------------------------------------------------------

    def provide(
        self, port_name: str, interface: Interface, implementation: Any = None
    ) -> ProvidedPort:
        """Declare a provided port; implementation defaults to ``self``."""
        if port_name in self.provided:
            raise ComponentError(
                f"component {self.name!r} already provides port {port_name!r}"
            )
        port = ProvidedPort(port_name, interface, self)
        self.provided[port_name] = port
        self._implementations[port_name] = implementation if implementation is not None else self
        return port

    def require(self, port_name: str, interface: Interface) -> RequiredPort:
        """Declare a required port."""
        if port_name in self.required:
            raise ComponentError(
                f"component {self.name!r} already requires port {port_name!r}"
            )
        port = RequiredPort(port_name, interface, self)
        self.required[port_name] = port
        return port

    def provided_port(self, name: str) -> ProvidedPort:
        try:
            return self.provided[name]
        except KeyError:
            raise ComponentError(
                f"component {self.name!r} has no provided port {name!r}"
            ) from None

    def required_port(self, name: str) -> RequiredPort:
        try:
            return self.required[name]
        except KeyError:
            raise ComponentError(
                f"component {self.name!r} has no required port {name!r}"
            ) from None

    # -- dispatch ---------------------------------------------------------------

    def dispatch(self, port_name: str, invocation: Invocation) -> Any:
        """Invoke the implementation method for an operation."""
        implementation = self._implementations[port_name]
        method = getattr(implementation, invocation.operation, None)
        if method is None or not callable(method):
            raise ComponentError(
                f"{self.name!r} implementation lacks operation "
                f"{invocation.operation!r} on port {port_name!r}"
            )
        return method(*invocation.args, **invocation.kwargs)

    def replace_implementation(self, port_name: str, implementation: Any) -> None:
        """Implementation-modification change: swap the internals of a
        port while interfaces and bindings stay untouched."""
        if port_name not in self.provided:
            raise ComponentError(
                f"component {self.name!r} has no provided port {port_name!r}"
            )
        self._implementations[port_name] = implementation

    # -- lifecycle shortcuts -----------------------------------------------------

    def initialize(self) -> "Component":
        self.lifecycle.transition(LifecycleState.INITIALIZED)
        self.on_initialize()
        return self

    def activate(self) -> "Component":
        if self.lifecycle.state is LifecycleState.CREATED:
            self.initialize()
        self.lifecycle.transition(LifecycleState.ACTIVE)
        return self

    def passivate(self) -> "Component":
        self.lifecycle.transition(LifecycleState.PASSIVE)
        return self

    def stop(self) -> "Component":
        self.lifecycle.transition(LifecycleState.STOPPED)
        return self

    def on_initialize(self) -> None:
        """Hook for subclasses to set up ``self.state``."""

    @property
    def is_idle(self) -> bool:
        """True when no invocation is currently executing."""
        return self._active_calls == 0

    # -- state transfer (strong reconfiguration) ----------------------------------

    def capture_state(self) -> dict[str, Any]:
        """Snapshot the externally relevant state (deep copy)."""
        return copy.deepcopy(self.state)

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        """Install a snapshot captured from a predecessor component."""
        self.state = copy.deepcopy(snapshot)

    # -- introspection --------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Introspection record consumed by RAML and the registry."""
        return {
            "name": self.name,
            "lifecycle": str(self.lifecycle.state),
            "node": self.node_name,
            "provided": {
                name: {
                    "interface": port.interface.name,
                    "version": str(port.interface.version),
                    "operations": sorted(port.interface.operations),
                    "calls": port.call_count,
                    "errors": port.error_count,
                    "interceptors": len(port.interceptors),
                }
                for name, port in self.provided.items()
            },
            "required": {
                name: {
                    "interface": port.interface.name,
                    "version": str(port.interface.version),
                    "bound": port.is_bound,
                }
                for name, port in self.required.items()
            },
            "active_calls": self._active_calls,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Component({self.name!r}, {self.lifecycle.state})"
