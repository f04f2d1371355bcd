"""Composition frameworks: pluggable component slots.

The first of the paper's ten adaptation approaches: "Composition
Frameworks, with pluggable components is similar to electronic cards in
a cabinet, where each slot is reserved to a component of a predefined
family with compliant specifications … allows interchanging components
and aspects dynamically" [Cons01].

A :class:`CompositionFramework` declares typed :class:`Slot`s (interface
+ optional behaviour protocol = the "predefined family").  Components
plug in, unplug and hot-swap; *aspect slots* hold interceptors that cut
across every plugged card.  Other components reach a slot's current
occupant through the slot's stable :class:`Invocable` façade, so
interchanging a card never re-wires the callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ReproError
from repro.kernel.component import (
    Interceptor,
    Invocable,
    Invocation,
    ProvidedPort,
    run_chain,
)
from repro.kernel.interface import Interface
from repro.lts.lts import Lts


class FrameworkError(ReproError):
    """Errors raised by composition frameworks."""


@dataclass(frozen=True)
class SlotSpec:
    """The predefined family a slot accepts."""

    name: str
    interface: Interface
    protocol: Lts | None = None
    required: bool = True


class SlotFacade:
    """The stable invocable face of a slot (callers bind here)."""

    def __init__(self, slot: "Slot") -> None:
        self._slot = slot
        self.interface = slot.spec.interface

    @property
    def qualified_name(self) -> str:
        return f"{self._slot.framework_name}[{self._slot.spec.name}]"

    def invoke(self, invocation: Invocation) -> Any:
        return self._slot.invoke(invocation)


class Slot:
    """One cabinet position."""

    def __init__(self, framework: "CompositionFramework",
                 spec: SlotSpec) -> None:
        self._framework = framework
        self.spec = spec
        self.occupant: ProvidedPort | None = None
        self.facade = SlotFacade(self)
        self.swap_count = 0

    @property
    def framework_name(self) -> str:
        return self._framework.name

    @property
    def is_filled(self) -> bool:
        return self.occupant is not None

    def _check_compliance(self, port: ProvidedPort) -> None:
        if not port.interface.satisfies(self.spec.interface):
            raise FrameworkError(
                f"slot {self.spec.name!r} accepts family "
                f"{self.spec.interface.name!r} "
                f"v{self.spec.interface.version}; "
                f"{port.qualified_name} provides "
                f"{port.interface.name!r} v{port.interface.version}"
            )
        behaviour = getattr(port.component, "behaviour", None)
        if self.spec.protocol is not None and behaviour is not None:
            from repro.lts.check import simulates

            if not simulates(self.spec.protocol, behaviour):
                raise FrameworkError(
                    f"slot {self.spec.name!r}: behaviour of "
                    f"{port.component.name!r} violates the family protocol"
                )

    def plug(self, port: ProvidedPort) -> None:
        if self.occupant is not None:
            raise FrameworkError(
                f"slot {self.spec.name!r} is occupied by "
                f"{self.occupant.qualified_name}; swap() instead"
            )
        self._check_compliance(port)
        self.occupant = port

    def unplug(self) -> ProvidedPort:
        if self.occupant is None:
            raise FrameworkError(f"slot {self.spec.name!r} is empty")
        card, self.occupant = self.occupant, None
        return card

    def swap(self, port: ProvidedPort) -> ProvidedPort:
        """Atomically interchange the card (validated before removal)."""
        if self.occupant is None:
            raise FrameworkError(
                f"slot {self.spec.name!r} is empty; plug() first"
            )
        self._check_compliance(port)
        old, self.occupant = self.occupant, port
        self.swap_count += 1
        return old

    def invoke(self, invocation: Invocation) -> Any:
        if self.occupant is None:
            raise FrameworkError(
                f"slot {self.spec.name!r} of {self.framework_name!r} is "
                "empty"
            )
        return self._framework._invoke_through_aspects(
            self.spec.name, self.occupant, invocation
        )


class CompositionFramework:
    """A cabinet of typed slots with crosscutting aspect slots."""

    def __init__(self, name: str, slots: list[SlotSpec]) -> None:
        if not slots:
            raise FrameworkError(f"framework {name!r} needs at least one slot")
        names = [spec.name for spec in slots]
        if len(set(names)) != len(names):
            raise FrameworkError(f"framework {name!r} has duplicate slots")
        self.name = name
        self.slots: dict[str, Slot] = {
            spec.name: Slot(self, spec) for spec in slots
        }
        #: Aspect slots: name -> interceptor applied to every card call.
        self._aspects: dict[str, Interceptor] = {}

    # -- slots ----------------------------------------------------------------

    def slot(self, name: str) -> Slot:
        try:
            return self.slots[name]
        except KeyError:
            raise FrameworkError(
                f"framework {self.name!r} has no slot {name!r}"
            ) from None

    def facade(self, slot_name: str) -> SlotFacade:
        """The stable invocable callers bind to."""
        return self.slot(slot_name).facade

    def plug(self, slot_name: str, port: ProvidedPort) -> None:
        self.slot(slot_name).plug(port)

    def swap(self, slot_name: str, port: ProvidedPort) -> ProvidedPort:
        return self.slot(slot_name).swap(port)

    def unplug(self, slot_name: str) -> ProvidedPort:
        return self.slot(slot_name).unplug()

    def is_complete(self) -> bool:
        return all(
            slot.is_filled or not slot.spec.required
            for slot in self.slots.values()
        )

    # -- aspect slots --------------------------------------------------------------

    def install_aspect(self, name: str, interceptor: Interceptor) -> None:
        """Plug a crosscutting aspect (applies to every slot's calls)."""
        if name in self._aspects:
            raise FrameworkError(
                f"framework {self.name!r} already has aspect {name!r}"
            )
        self._aspects[name] = interceptor

    def remove_aspect(self, name: str) -> None:
        if self._aspects.pop(name, None) is None:
            raise FrameworkError(
                f"framework {self.name!r} has no aspect {name!r}"
            )

    def aspect_names(self) -> list[str]:
        return sorted(self._aspects)

    def _invoke_through_aspects(self, slot_name: str, port: ProvidedPort,
                                invocation: Invocation) -> Any:
        invocation.meta.setdefault("framework", self.name)
        invocation.meta["slot"] = slot_name
        return run_chain(self._aspects.values(), invocation, port.invoke)

    # -- introspection ----------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "complete": self.is_complete(),
            "slots": {
                name: {
                    "family": slot.spec.interface.name,
                    "version": str(slot.spec.interface.version),
                    "occupant": (slot.occupant.qualified_name
                                 if slot.occupant else None),
                    "swaps": slot.swap_count,
                }
                for name, slot in self.slots.items()
            },
            "aspects": self.aspect_names(),
        }
