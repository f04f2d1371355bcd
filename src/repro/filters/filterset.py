"""Filter sets: ordered stacks of composition filters.

A :class:`FilterSet` compiles to a single interceptor, so it can be
attached to provided ports (input filters), required ports (output
filters) or connectors — and detached again at run time, which is the
composition-filters route to dynamic adaptability: "filters can be
dynamically attached to or removed from the components".
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import FilterError
from repro.kernel.component import Invocation, run_chain
from repro.filters.filter import Filter


class FilterSet:
    """An ordered sequence of filters evaluated first-to-last.

    "Sequencing filters may require specific order in case filters change
    the content of the messages" — order is explicit and mutable.
    """

    def __init__(self, name: str, filters: list[Filter] | None = None) -> None:
        self.name = name
        self.filters: list[Filter] = list(filters or [])
        self._attached: list[Any] = []  # ports/connectors we are attached to

    # -- composition ------------------------------------------------------

    def append(self, filter_: Filter) -> "FilterSet":
        self.filters.append(filter_)
        return self

    def insert(self, index: int, filter_: Filter) -> "FilterSet":
        self.filters.insert(index, filter_)
        return self

    def remove(self, name: str) -> Filter:
        for filter_ in self.filters:
            if filter_.name == name:
                self.filters.remove(filter_)
                return filter_
        raise FilterError(f"filter set {self.name!r} has no filter {name!r}")

    def reorder(self, names: list[str]) -> None:
        """Reorder filters to match ``names`` exactly."""
        by_name = {f.name: f for f in self.filters}
        if sorted(names) != sorted(by_name):
            raise FilterError(
                f"reorder of {self.name!r} must mention each filter exactly "
                f"once; have {sorted(by_name)}, got {sorted(names)}"
            )
        self.filters = [by_name[name] for name in names]

    def __len__(self) -> int:
        return len(self.filters)

    def __contains__(self, name: str) -> bool:
        return any(f.name == name for f in self.filters)

    # -- execution ----------------------------------------------------------

    def interceptor(self) -> Callable[[Invocation, Callable], Any]:
        """Compile the filter stack into one interceptor.

        The stack is live between calls and fixed within one: each call
        runs the filters present when it entered the set, also when a
        :class:`~repro.filters.filter.WaitFilter` replays it later.
        """

        def run(invocation: Invocation,
                proceed: Callable[[Invocation], Any]) -> Any:
            return run_chain([f.apply for f in self.filters], invocation,
                             proceed)

        return run

    # -- dynamic attachment -------------------------------------------------------

    def attach_to(self, port_or_connector: Any) -> None:
        """Attach this set's interceptor to a port or connector."""
        interceptor = self.interceptor()
        if hasattr(port_or_connector, "add_interceptor"):
            port_or_connector.add_interceptor(interceptor)
        elif hasattr(port_or_connector, "interceptors"):
            port_or_connector.interceptors.append(interceptor)
        else:
            raise FilterError(
                f"cannot attach filter set {self.name!r} to "
                f"{port_or_connector!r}: no interceptor chain"
            )
        self._attached.append((port_or_connector, interceptor))

    def detach_from(self, port_or_connector: Any) -> None:
        """Remove this set's interceptor from a port or connector."""
        for entry in list(self._attached):
            holder, interceptor = entry
            if holder is port_or_connector:
                if hasattr(holder, "remove_interceptor"):
                    holder.remove_interceptor(interceptor)
                else:
                    holder.interceptors.remove(interceptor)
                self._attached.remove(entry)
                return
        raise FilterError(
            f"filter set {self.name!r} is not attached to {port_or_connector!r}"
        )

    def detach_all(self) -> None:
        for holder, _interceptor in list(self._attached):
            self.detach_from(holder)

    @property
    def attachment_count(self) -> int:
        return len(self._attached)
