"""First-class connectors.

"Connectors are abstractions for component interactions … a connector is
a light-weight component which functions as a glue of components and
induces a low overload."  A :class:`Connector` owns a set of
:class:`~repro.connectors.roles.Role` slots; callers bind their required
ports to the connector's *role endpoints* and the connector's *glue*
routes each invocation to one or more attached callees.

Connectors support the same interceptor/observer pipeline as provided
ports, so aspects and filters compose uniformly over components *and*
connectors, and they expose introspection/intercession hooks for RAML
(swap glue, rebind participants, drain traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConnectorError, RoleError
from repro.kernel.component import Interceptor, Invocable, Invocation, run_chain
from repro.kernel.interface import Interface
from repro.connectors.roles import Role, RoleKind


@dataclass
class ConnectorStats:
    invocations: int = 0
    errors: int = 0
    by_role: dict[str, int] = field(default_factory=dict)


class RoleEndpoint:
    """The :class:`Invocable` face a caller role presents to bindings."""

    def __init__(self, connector: "Connector", role: Role) -> None:
        self.connector = connector
        self.role = role
        self.interface: Interface = role.interface

    @property
    def qualified_name(self) -> str:
        return f"{self.connector.name}:{self.role.name}"

    def invoke(self, invocation: Invocation) -> Any:
        return self.connector.invoke_from(self.role.name, invocation)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RoleEndpoint({self.qualified_name})"


class Attachment:
    """One participant attached to a callee role."""

    def __init__(self, role: Role, target: Invocable, weight: float = 1.0) -> None:
        self.role = role
        self.target = target
        self.weight = weight

    @property
    def name(self) -> str:
        return getattr(self.target, "qualified_name", repr(self.target))


class Connector:
    """Base connector: routes caller invocations to callee attachments.

    Subclasses override :meth:`route` to implement their glue semantics
    (RPC pass-through, broadcast, load balancing, pipelines…).  The base
    implementation forwards to the single attachment of the single callee
    role.
    """

    #: Human-readable connector kind, overridden by subclasses.
    kind = "direct"

    def __init__(self, name: str, roles: list[Role]) -> None:
        if not roles:
            raise ConnectorError(f"connector {name!r} needs at least one role")
        names = [role.name for role in roles]
        if len(set(names)) != len(names):
            raise ConnectorError(f"connector {name!r} has duplicate role names")
        self.name = name
        self.roles: dict[str, Role] = {role.name: role for role in roles}
        self.attachments: dict[str, list[Attachment]] = {
            role.name: [] for role in roles
        }
        self._endpoints: dict[str, RoleEndpoint] = {}
        self.interceptors: list[Interceptor] = []
        self.stats = ConnectorStats()
        #: Introspection observers: fn(phase, role_name, invocation, payload).
        self.observers: list[Callable[[str, str, Invocation, Any], None]] = []
        self.enabled = True

    # -- wiring -----------------------------------------------------------

    def role(self, name: str) -> Role:
        try:
            return self.roles[name]
        except KeyError:
            raise RoleError(
                f"connector {self.name!r} has no role {name!r}"
            ) from None

    def endpoint(self, role_name: str) -> RoleEndpoint:
        """The invocable endpoint of a caller role (bind targets here)."""
        role = self.role(role_name)
        if role.kind is not RoleKind.CALLER:
            raise RoleError(
                f"role {role_name!r} of {self.name!r} is a callee role; "
                "only caller roles expose endpoints"
            )
        if role_name not in self._endpoints:
            self._endpoints[role_name] = RoleEndpoint(self, role)
        return self._endpoints[role_name]

    def attach(
        self,
        role_name: str,
        target: Invocable,
        weight: float = 1.0,
        behaviour: Any = None,
        check_behaviour: bool = True,
    ) -> Attachment:
        """Attach a participant to a callee role.

        The target's interface must satisfy the role interface; if both a
        role protocol and a participant behaviour LTS are available the
        participant is checked to stay within the protocol.
        """
        role = self.role(role_name)
        if role.kind is not RoleKind.CALLEE:
            raise RoleError(
                f"role {role_name!r} of {self.name!r} is a caller role; "
                "participants attach to callee roles"
            )
        if not target.interface.satisfies(role.interface):
            raise RoleError(
                f"{getattr(target, 'qualified_name', target)!r} does not "
                f"satisfy role {role_name!r} interface "
                f"{role.interface.name!r} v{role.interface.version}"
            )
        if not role.many and self.attachments[role_name]:
            raise RoleError(
                f"role {role_name!r} of {self.name!r} is single-participant "
                "and already attached"
            )
        model = behaviour
        if model is None:
            owner = getattr(target, "component", None)
            model = getattr(owner, "behaviour", None)
        if check_behaviour and not role.accepts_behaviour(model):
            raise RoleError(
                f"behaviour of {getattr(target, 'qualified_name', target)!r} "
                f"violates the protocol of role {role_name!r}"
            )
        attachment = Attachment(role, target, weight)
        self.attachments[role_name].append(attachment)
        return attachment

    def detach(self, role_name: str, target: Invocable) -> None:
        """Remove a participant from a callee role."""
        attachments = self.attachments[self.role(role_name).name]
        for attachment in attachments:
            if attachment.target is target:
                attachments.remove(attachment)
                return
        raise RoleError(
            f"{getattr(target, 'qualified_name', target)!r} is not attached "
            f"to role {role_name!r} of {self.name!r}"
        )

    def replace_attachment(
        self, role_name: str, old: Invocable, new: Invocable
    ) -> None:
        """Atomically swap one participant for another (intercession)."""
        self.detach(role_name, old)
        self.attach(role_name, new)

    def is_complete(self) -> bool:
        """True when every required role has at least one participant.

        Caller roles are satisfied by construction (their endpoint exists
        on demand); callee roles need attachments.
        """
        return all(
            not role.required
            or role.kind is RoleKind.CALLER
            or self.attachments[role.name]
            for role in self.roles.values()
        )

    # -- invocation ---------------------------------------------------------

    def invoke_from(self, role_name: str, invocation: Invocation) -> Any:
        """Entry point for caller roles: run interceptors, then the glue."""
        if not self.enabled:
            raise ConnectorError(f"connector {self.name!r} is disabled")
        role = self.role(role_name)
        self.stats.invocations += 1
        self.stats.by_role[role_name] = self.stats.by_role.get(role_name, 0) + 1
        self._notify("before", role_name, invocation, None)

        try:
            result = run_chain(self.interceptors, invocation,
                               lambda inv: self.route(role, inv))
        except Exception as exc:
            self.stats.errors += 1
            self._notify("error", role_name, invocation, exc)
            raise
        self._notify("after", role_name, invocation, result)
        return result

    def route(self, source_role: Role, invocation: Invocation) -> Any:
        """Glue semantics: forward to the sole attachment of the sole
        callee role.  Subclasses override for richer interaction schemas."""
        callees = [
            role for role in self.roles.values() if role.kind is RoleKind.CALLEE
        ]
        if len(callees) != 1:
            raise ConnectorError(
                f"base connector {self.name!r} requires exactly one callee "
                f"role, found {len(callees)}"
            )
        attachments = self.attachments[callees[0].name]
        if not attachments:
            raise ConnectorError(
                f"connector {self.name!r}: no participant attached to role "
                f"{callees[0].name!r}"
            )
        return attachments[0].target.invoke(invocation)

    def _notify(
        self, phase: str, role_name: str, invocation: Invocation, payload: Any
    ) -> None:
        for observer in list(self.observers):
            observer(phase, role_name, invocation, payload)

    # -- introspection ----------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "enabled": self.enabled,
            "roles": {
                name: {
                    "kind": role.kind.value,
                    "interface": role.interface.name,
                    "many": role.many,
                    "attachments": [a.name for a in self.attachments[name]],
                }
                for name, role in self.roles.items()
            },
            "invocations": self.stats.invocations,
            "errors": self.stats.errors,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
