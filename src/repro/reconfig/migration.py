"""Geographical reconfiguration: component migration and load balancing.

"Geographical changes … impact the distribution of the components and
their localization [and] are especially used for load balancing, fault
tolerance, and adaptation to the fluctuation of available resources."

:class:`MigrateComponent` is the change primitive (detach → ship state →
redeploy); :class:`MigrationPlanner` decides *what* to move *where*,
either to level load across nodes or to move components "closer to the
demand" given a traffic matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ConsistencyError, MigrationError
from repro.kernel.assembly import Assembly
from repro.kernel.component import Component
from repro.kernel.descriptor import DeploymentDescriptor
from repro.netsim.node import Node
from repro.reconfig.changes import Change, DEFAULT_CHANGE_COST
from repro.reconfig.state_transfer import state_size


class MigrateComponent(Change):
    """Move a component to another node, shipping its state."""

    def __init__(self, component_name: str, target_node: str) -> None:
        self.component_name = component_name
        self.target_node = target_node
        self.description = f"migrate {component_name} to {target_node}"
        self._source_node: str | None = None
        self._state_bytes = 0

    def validate(self, assembly: Assembly) -> None:
        if self.component_name not in assembly.registry:
            raise ConsistencyError(
                f"component {self.component_name!r} does not exist"
            )
        component = assembly.component(self.component_name)
        if component.node_name == self.target_node:
            raise ConsistencyError(
                f"component {self.component_name!r} is already on "
                f"{self.target_node!r}"
            )
        if self.target_node not in assembly.network.nodes:
            raise ConsistencyError(f"unknown node {self.target_node!r}")
        node = assembly.network.node(self.target_node)
        if not node.up:
            raise ConsistencyError(f"target node {self.target_node!r} is down")
        descriptor = self._descriptor_of(assembly, component)
        if descriptor is not None:
            if not descriptor.placement.allows_node(node.name, node.region):
                raise ConsistencyError(
                    f"placement constraints of {self.component_name!r} forbid "
                    f"node {self.target_node!r}"
                )
            if descriptor.cpu_reservation + node.reserved > node.capacity:
                raise ConsistencyError(
                    f"node {self.target_node!r} lacks capacity for "
                    f"{self.component_name!r}"
                )

    def _descriptor_of(self, assembly: Assembly,
                       component: Component) -> DeploymentDescriptor | None:
        container = assembly.containers.get(component.node_name or "")
        if container is None:
            return None
        return container.descriptors.get(self.component_name)

    def affected_components(self, assembly: Assembly) -> list[Component]:
        return [assembly.component(self.component_name)]

    def journal_payload(self, assembly: Assembly) -> dict:
        component = assembly.component(self.component_name)
        return {
            "component": self.component_name,
            "source": component.node_name,
            "target": self.target_node,
            "state_bytes": state_size(component),
        }

    def cost(self) -> float:
        # Transfer time is charged when applied (state captured then).
        return DEFAULT_CHANGE_COST + self._state_bytes / 1_000_000.0

    def apply(self, assembly: Assembly) -> None:
        component = assembly.component(self.component_name)
        self._source_node = component.node_name
        self._state_bytes = state_size(component)
        container = assembly.containers[component.node_name]
        detached, descriptor = container.detach(self.component_name)
        try:
            assembly.deploy(detached, self.target_node, descriptor)
        except Exception as exc:
            # Put it back where it was.
            assembly.deploy(detached, self._source_node, descriptor)
            raise MigrationError(
                f"could not migrate {self.component_name!r} to "
                f"{self.target_node!r}: {exc}"
            ) from exc

    def revert(self, assembly: Assembly) -> None:
        if self._source_node is None:
            return
        component = assembly.component(self.component_name)
        container = assembly.containers[component.node_name]
        detached, descriptor = container.detach(self.component_name)
        assembly.deploy(detached, self._source_node, descriptor)
        self._source_node = None


@dataclass
class MigrationMove:
    """One planned move with its rationale."""

    component: str
    source: str
    target: str
    reason: str


@dataclass
class TrafficMatrix:
    """Observed call volume between clients (by node) and components.

    ``demand[(node_name, component_name)]`` counts calls originating on
    ``node_name`` towards ``component_name``.
    """

    demand: dict[tuple[str, str], float] = field(default_factory=dict)

    def record(self, node_name: str, component_name: str,
               calls: float = 1.0) -> None:
        key = (node_name, component_name)
        self.demand[key] = self.demand.get(key, 0.0) + calls

    def hottest_source(self, component_name: str) -> str | None:
        """The node generating the most demand for a component."""
        best_node, best_calls = None, 0.0
        for (node_name, comp), calls in sorted(self.demand.items()):
            if comp == component_name and calls > best_calls:
                best_node, best_calls = node_name, calls
        return best_node


class MigrationPlanner:
    """Decides which components move where.

    Two policies from the paper:

    * :meth:`plan_load_levelling` — move components off overloaded nodes
      onto the least-loaded candidates;
    * :meth:`plan_affinity` — move components onto (or adjacent to) the
      node generating most of their demand, so they execute "closer" to it.
    """

    def __init__(self, assembly: Assembly,
                 high_watermark: float = 0.75,
                 low_watermark: float = 0.5) -> None:
        if not 0 < low_watermark <= high_watermark < 1:
            raise MigrationError(
                "watermarks must satisfy 0 < low <= high < 1, got "
                f"low={low_watermark}, high={high_watermark}"
            )
        self.assembly = assembly
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark

    def _movable(self, node_name: str) -> list[Component]:
        return [
            component
            for component in self.assembly.registry.on_node(node_name)
            if not component.lifecycle.is_stopped
        ]

    def _candidate_nodes(self, exclude: Iterable[str] = ()) -> list[Node]:
        banned = set(exclude)
        return [
            node for node in self.assembly.network.live_nodes()
            if node.name not in banned and node.region != "switch"
        ]

    def plan_load_levelling(self, max_moves: int = 10) -> list[MigrationMove]:
        """Drain nodes above the high watermark onto cool nodes."""
        moves: list[MigrationMove] = []
        utilisation = {
            node.name: node.utilisation
            for node in self.assembly.network.live_nodes()
        }
        hot_nodes = sorted(
            (name for name, util in utilisation.items()
             if util > self.high_watermark),
            key=lambda name: -utilisation[name],
        )
        for hot in hot_nodes:
            for component in self._movable(hot):
                if len(moves) >= max_moves:
                    return moves
                candidates = [
                    node for node in self._candidate_nodes(exclude=[hot])
                    if node.utilisation < self.low_watermark
                ]
                if not candidates:
                    return moves
                target = min(candidates,
                             key=lambda node: (node.utilisation, node.name))
                moves.append(MigrationMove(
                    component.name, hot, target.name,
                    reason=(f"load {utilisation[hot]:.2f} > "
                            f"{self.high_watermark:.2f}"),
                ))
                # Only move one component per hot node per round: the
                # next sweep re-measures before draining further.
                break
        return moves

    def plan_affinity(self, traffic: TrafficMatrix,
                      max_moves: int = 10) -> list[MigrationMove]:
        """Move components towards their dominant demand source."""
        moves: list[MigrationMove] = []
        for component in self.assembly.registry:
            if len(moves) >= max_moves:
                break
            hottest = traffic.hottest_source(component.name)
            if hottest is None or hottest == component.node_name:
                continue
            node = self.assembly.network.nodes.get(hottest)
            if node is None or not node.up or node.region == "switch":
                continue
            if node.utilisation > self.high_watermark:
                continue
            moves.append(MigrationMove(
                component.name, component.node_name or "?", hottest,
                reason=f"demand concentrated on {hottest}",
            ))
        return moves

    def to_changes(self, moves: list[MigrationMove]) -> list[MigrateComponent]:
        return [MigrateComponent(m.component, m.target) for m in moves]
