"""The aspect weaver.

Two weaving modes, mirroring the paper's compile-time/run-time
distinction:

* **dynamic** (default) — one interceptor per port evaluates pointcuts
  per invocation; aspects can be woven and unwoven freely at run time.
* **static** — advice is resolved per join point at weave time and baked
  into a specialised interceptor (no per-call pointcut matching), the
  AspectJ-style trade-off: faster calls, but changing aspects means
  re-weaving.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import AspectError
from repro.kernel.component import Component, Invocation, ProvidedPort, run_chain
from repro.aspects.aspect import Advice, AdviceKind, Aspect, JoinPoint, join_points_of


def _execute(pieces: list[tuple[Any, Advice]], invocation: Invocation,
             proceed: Callable[[Invocation], Any]) -> Any:
    """Run the advice stack whose pointcuts admit ``invocation`` around
    ``proceed``."""
    active = [
        (pointcut, advice)
        for pointcut, advice in pieces
        if pointcut.admits(invocation)
    ]

    befores = [a for _p, a in active if a.kind is AdviceKind.BEFORE]
    afters = [a for _p, a in active if a.kind is AdviceKind.AFTER]
    arounds = [a for _p, a in active if a.kind is AdviceKind.AROUND]
    handlers = [a for _p, a in active if a.kind is AdviceKind.ON_ERROR]

    for advice in befores:
        advice.body(invocation)
    try:
        result = run_chain([a.body for a in arounds], invocation, proceed)
    except Exception as exc:  # noqa: BLE001 - on_error advice may recover
        for advice in handlers:
            return advice.body(invocation, exc)
        raise
    for advice in afters:
        result = advice.body(invocation, result)
    return result


class Weaver:
    """Weaves aspects into components' provided ports."""

    def __init__(self) -> None:
        # aspect name -> list of (port, interceptor) installed.
        self._woven: dict[str, list[tuple[ProvidedPort, Callable]]] = {}
        # aspect name -> list of (port, original_interface) to restore.
        self._introduced: dict[str, list[tuple[ProvidedPort, Any]]] = {}
        self._aspects: dict[str, Aspect] = {}

    def weave(self, aspect: Aspect, components: list[Component],
              mode: str = "dynamic") -> int:
        """Install ``aspect`` on matching join points; returns the count.

        ``mode`` is "dynamic" or "static" (see module docstring).
        """
        if aspect.name in self._woven:
            raise AspectError(f"aspect {aspect.name!r} is already woven")
        if mode not in ("dynamic", "static"):
            raise AspectError(f"unknown weaving mode {mode!r}")
        installed: list[tuple[ProvidedPort, Callable]] = []
        ports_seen: set[int] = set()
        join_point_count = 0
        for component in components:
            port_points: dict[int, list[JoinPoint]] = {}
            for join_point, port in join_points_of(component):
                if aspect.pieces_for(join_point):
                    join_point_count += 1
                    port_points.setdefault(id(port), []).append(join_point)
            for port_name, port in component.provided.items():
                if id(port) not in port_points or id(port) in ports_seen:
                    continue
                ports_seen.add(id(port))
                interceptor = self._make_interceptor(aspect, component, port, mode)
                port.add_interceptor(interceptor)
                installed.append((port, interceptor))
        introduced = self._apply_introductions(aspect, components, installed)
        if not installed and not introduced:
            raise AspectError(
                f"aspect {aspect.name!r} matched no join point on the given "
                "components"
            )
        self._woven[aspect.name] = installed
        self._introduced[aspect.name] = introduced
        self._aspects[aspect.name] = aspect
        return join_point_count + len(introduced)

    def _apply_introductions(self, aspect: Aspect,
                             components: list[Component],
                             installed: list[tuple[ProvidedPort, Callable]]
                             ) -> list[tuple[ProvidedPort, Any]]:
        """Graft introduced operations onto matching ports.

        Each target port's interface takes a compatible (minor-version)
        evolution adding the new operations; calls to them are served by
        an interceptor that never reaches the original implementation.
        """
        from repro.kernel.interface import Operation

        introduced: list[tuple[ProvidedPort, Any]] = []
        for component in components:
            for port_name, port in component.provided.items():
                introductions = aspect.introductions_for(component.name,
                                                         port_name)
                fresh = [
                    intro for intro in introductions
                    if intro.operation not in port.interface
                ]
                if not fresh:
                    continue
                original_interface = port.interface
                port.interface = port.interface.evolve(add=[
                    Operation(intro.operation, intro.params, intro.optional)
                    for intro in fresh
                ])
                table = {intro.operation: intro for intro in fresh}

                def interceptor(invocation: Invocation, proceed: Callable,
                                _table=table, _component=component) -> Any:
                    introduction = _table.get(invocation.operation)
                    if introduction is not None:
                        return introduction.body(_component, *invocation.args)
                    return proceed(invocation)

                port.add_interceptor(interceptor)
                installed.append((port, interceptor))
                introduced.append((port, original_interface))
        return introduced

    def _make_interceptor(self, aspect: Aspect, component: Component,
                          port: ProvidedPort, mode: str) -> Callable:
        if mode == "dynamic":
            def dynamic_interceptor(invocation: Invocation,
                                    proceed: Callable) -> Any:
                join_point = JoinPoint(
                    component.name, port.name, invocation.operation
                )
                pieces = aspect.pieces_for(join_point)
                if not pieces:
                    return proceed(invocation)
                return _execute(pieces, invocation, proceed)

            return dynamic_interceptor

        # Static: resolve advice per operation now, skip matching at call time.
        table: dict[str, list] = {}
        for operation_name in port.interface.operations:
            join_point = JoinPoint(component.name, port.name, operation_name)
            pieces = aspect.pieces_for(join_point)
            if pieces:
                table[operation_name] = pieces

        def static_interceptor(invocation: Invocation,
                               proceed: Callable) -> Any:
            pieces = table.get(invocation.operation)
            if pieces is None:
                return proceed(invocation)
            return _execute(pieces, invocation, proceed)

        return static_interceptor

    def unweave(self, aspect_name: str) -> int:
        """Remove a woven aspect; returns how many ports were cleaned."""
        try:
            installed = self._woven.pop(aspect_name)
        except KeyError:
            raise AspectError(f"aspect {aspect_name!r} is not woven") from None
        self._aspects.pop(aspect_name, None)
        for port, interceptor in installed:
            port.remove_interceptor(interceptor)
        for port, original_interface in self._introduced.pop(aspect_name, []):
            port.interface = original_interface
        return len(installed)

    def swap(self, old_name: str, new_aspect: Aspect,
             components: list[Component], mode: str = "dynamic") -> None:
        """Interchange aspects at run time (unweave old, weave new)."""
        self.unweave(old_name)
        self.weave(new_aspect, components, mode=mode)

    def woven_names(self) -> list[str]:
        return sorted(self._woven)

    def is_woven(self, aspect_name: str) -> bool:
        return aspect_name in self._woven
