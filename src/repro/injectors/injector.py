"""Injectors: behaviour inserted into communication channels.

From Filman & Lee's "Redirecting by Injector": communications between
components are intercepted "so that new behavior can be inserted, for
example for changing routing, or for transforming and filtering
messages.  Each injection should affect a limited set of specific
components."  Injectors therefore attach to *bindings* (channels), not to
ports, and are scoped by channel predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.errors import InjectorError
from repro.kernel.binding import Binding
from repro.kernel.component import Invocable, Invocation, run_chain
from repro.kernel.interface import Interface


class Injector:
    """Base injector: override :meth:`handle`.

    ``forward(invocation)`` delivers to the channel's original target;
    an injector may call it zero (drop), one (pass/transform) or several
    (multicast) times.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.hit_count = 0

    def handle(self, invocation: Invocation,
               forward: Callable[[Invocation], Any]) -> Any:
        raise NotImplementedError


class TransformInjector(Injector):
    """Rewrites invocations in flight."""

    def __init__(self, name: str,
                 transform: Callable[[Invocation], Invocation]) -> None:
        super().__init__(name)
        self.transform = transform

    def handle(self, invocation, forward):
        self.hit_count += 1
        return forward(self.transform(invocation))


class RerouteInjector(Injector):
    """Redirects matching invocations to a different target."""

    def __init__(self, name: str, new_target: Invocable,
                 predicate: Callable[[Invocation], bool] | None = None) -> None:
        super().__init__(name)
        self.new_target = new_target
        self.predicate = predicate

    def handle(self, invocation, forward):
        if self.predicate is None or self.predicate(invocation):
            self.hit_count += 1
            return self.new_target.invoke(invocation)
        return forward(invocation)


class DropInjector(Injector):
    """Filters out matching invocations, returning a default result."""

    def __init__(self, name: str,
                 predicate: Callable[[Invocation], bool],
                 result: Any = None) -> None:
        super().__init__(name)
        self.predicate = predicate
        self.result = result
        self.dropped = 0

    def handle(self, invocation, forward):
        if self.predicate(invocation):
            self.hit_count += 1
            self.dropped += 1
            return self.result
        return forward(invocation)


class MulticastInjector(Injector):
    """Copies each invocation to extra targets besides the original."""

    def __init__(self, name: str, extra_targets: list[Invocable]) -> None:
        super().__init__(name)
        self.extra_targets = list(extra_targets)

    def handle(self, invocation, forward):
        self.hit_count += 1
        result = forward(invocation)
        for target in self.extra_targets:
            target.invoke(invocation.copy())
        return result


class _InjectedTarget:
    """Wraps a channel target, applying an injector stack before delivery."""

    def __init__(self, original: Invocable) -> None:
        self._original = original
        self.injectors: list[Injector] = []
        self.interface: Interface = original.interface

    @property
    def qualified_name(self) -> str:
        original = getattr(self._original, "qualified_name", repr(self._original))
        return f"injected({original})"

    @property
    def original(self) -> Invocable:
        return self._original

    def invoke(self, invocation: Invocation) -> Any:
        return run_chain([i.handle for i in self.injectors], invocation,
                         self._original.invoke)


#: Predicate selecting which bindings an injection applies to.
ChannelSelector = Callable[[Binding], bool]


def channels_from(component_name: str) -> ChannelSelector:
    """Channels whose *source* component matches."""
    return lambda binding: binding.source.component.name == component_name


def channels_to(target_name: str) -> ChannelSelector:
    """Channels whose current target's qualified name starts with
    ``target_name`` (component or component.port)."""

    def selector(binding: Binding) -> bool:
        qualified = getattr(binding.target, "qualified_name", "")
        return qualified == target_name or qualified.startswith(f"{target_name}.")

    return selector


def all_channels(binding: Binding) -> bool:
    return True


class InjectorManager:
    """Installs and retracts injections over a set of channels."""

    def __init__(self) -> None:
        # injection name -> list of (binding, wrapper, injector)
        self._live: dict[str, list[tuple[Binding, _InjectedTarget, Injector]]] = {}

    def inject(self, injector: Injector, bindings: Iterable[Binding],
               scope: ChannelSelector = all_channels) -> int:
        """Apply ``injector`` to every binding selected by ``scope``.

        Returns the number of channels affected (0 is an error: the
        paper's injections always target specific components).
        """
        if injector.name in self._live:
            raise InjectorError(f"injection {injector.name!r} already active")
        affected: list[tuple[Binding, _InjectedTarget, Injector]] = []
        for binding in bindings:
            if not scope(binding):
                continue
            target = binding.target
            if isinstance(target, _InjectedTarget):
                wrapper = target
            else:
                wrapper = _InjectedTarget(target)
                binding.redirect(wrapper, check_compatibility=False)
            wrapper.injectors.append(injector)
            affected.append((binding, wrapper, injector))
        if not affected:
            raise InjectorError(
                f"injection {injector.name!r} matched no channel"
            )
        self._live[injector.name] = affected
        return len(affected)

    def retract(self, name: str) -> int:
        """Remove an injection, unwrapping channels left bare."""
        try:
            affected = self._live.pop(name)
        except KeyError:
            raise InjectorError(f"injection {name!r} is not active") from None
        for binding, wrapper, injector in affected:
            if injector in wrapper.injectors:
                wrapper.injectors.remove(injector)
            if not wrapper.injectors and binding.target is wrapper:
                binding.redirect(wrapper.original, check_compatibility=False)
        return len(affected)

    def active_names(self) -> list[str]:
        return sorted(self._live)
