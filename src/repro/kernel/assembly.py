"""Assemblies: complete running configurations.

An :class:`Assembly` is "the global structure of the application" — the
object dynamic reconfiguration manipulates.  It owns the registry, one
container per simulated node, all tracked bindings and all connectors,
and can render itself as an architecture graph for consistency analysis
and RAML introspection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import BindingError, ComponentError, DeploymentError
from repro.kernel.binding import Binding, bind
from repro.kernel.component import Component, Invocable
from repro.kernel.container import Container
from repro.kernel.descriptor import DeploymentDescriptor
from repro.kernel.registry import Registry
from repro.netsim.network import Network

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


class Assembly:
    """A deployed component configuration over a simulated network."""

    def __init__(self, network: Network, name: str = "app") -> None:
        self.name = name
        self.network = network
        self.registry = Registry()
        self.containers: dict[str, Container] = {}
        self.bindings: list[Binding] = []
        self.connectors: dict[str, Any] = {}  # repro.connectors.Connector

    @property
    def sim(self):
        return self.network.sim

    # -- deployment ------------------------------------------------------------

    def container_on(self, node_name: str) -> Container:
        """The container of a node, created on first use."""
        if node_name not in self.containers:
            node = self.network.node(node_name)
            self.containers[node_name] = Container(node, self.registry)
        return self.containers[node_name]

    def deploy(self, component: Component, node_name: str,
               descriptor: DeploymentDescriptor | None = None) -> Component:
        """Deploy a component onto a node through its container."""
        return self.container_on(node_name).deploy(component, descriptor)

    def undeploy(self, component_name: str, stop: bool = True) -> Component:
        container = self._container_hosting(component_name)
        return container.undeploy(component_name, stop=stop)

    def _container_hosting(self, component_name: str) -> Container:
        component = self.registry.lookup(component_name)
        node_name = component.node_name
        if node_name is None or node_name not in self.containers:
            raise DeploymentError(
                f"component {component_name!r} is not hosted by any container"
            )
        return self.containers[node_name]

    def component(self, name: str) -> Component:
        return self.registry.lookup(name)

    # -- wiring ----------------------------------------------------------------

    def connect(self, source_component: str, required_port: str,
                target: Invocable | None = None,
                target_component: str | None = None,
                target_port: str = "svc") -> Binding:
        """Bind a required port to a provided port or connector endpoint.

        Either pass ``target`` (any invocable) or name a component's
        provided port.
        """
        source = self.registry.lookup(source_component).required_port(required_port)
        if target is None:
            if target_component is None:
                raise BindingError(
                    "connect() needs either target or target_component"
                )
            target = self.registry.lookup(target_component).provided_port(target_port)
        binding = bind(source, target)
        self.bindings.append(binding)
        return binding

    def disconnect(self, binding: Binding) -> None:
        binding.unbind()
        if binding in self.bindings:
            self.bindings.remove(binding)

    def add_connector(self, connector: Any) -> Any:
        if connector.name in self.connectors:
            raise ComponentError(
                f"assembly already has a connector named {connector.name!r}"
            )
        self.connectors[connector.name] = connector
        return connector

    def remove_connector(self, name: str) -> Any:
        try:
            return self.connectors.pop(name)
        except KeyError:
            raise ComponentError(f"no connector named {name!r}") from None

    # -- queries ---------------------------------------------------------------

    def bindings_from(self, component_name: str) -> list[Binding]:
        """Bindings whose source is a port of ``component_name``."""
        return [
            binding for binding in self.bindings
            if binding.source.component.name == component_name
        ]

    def bindings_to(self, component_name: str) -> list[Binding]:
        """Bindings whose current target belongs to ``component_name``."""
        matches = []
        for binding in self.bindings:
            owner = getattr(binding.target, "component", None)
            if owner is not None and owner.name == component_name:
                matches.append(binding)
        return matches

    def bindings_touching(self, component_name: str) -> list[Binding]:
        seen: list[Binding] = []
        for binding in self.bindings_from(component_name):
            seen.append(binding)
        for binding in self.bindings_to(component_name):
            if binding not in seen:
                seen.append(binding)
        return seen

    # -- introspection -----------------------------------------------------------

    def architecture_graph(self) -> nx.DiGraph:
        """Directed graph: component/connector nodes, binding/attachment
        edges — the structural view consistency checks run on.

        networkx is imported here, on first call, so the simulator
        itself never loads it."""
        import networkx as nx

        graph = nx.DiGraph()
        for component in self.registry:
            graph.add_node(component.name, kind="component",
                           node=component.node_name,
                           lifecycle=str(component.lifecycle.state))
        for connector in self.connectors.values():
            graph.add_node(connector.name, kind="connector",
                           connector_kind=connector.kind)
            for role_name, attachments in connector.attachments.items():
                for attachment in attachments:
                    owner = getattr(attachment.target, "component", None)
                    if owner is not None:
                        graph.add_edge(connector.name, owner.name,
                                       kind="attachment", role=role_name)
        for binding in self.bindings:
            source_name = binding.source.component.name
            target = binding.target
            owner = getattr(target, "component", None)
            if owner is not None:
                graph.add_edge(source_name, owner.name, kind="binding",
                               port=binding.source.name)
            else:
                connector = getattr(target, "connector", None)
                if connector is not None:
                    graph.add_edge(source_name, connector.name, kind="binding",
                                   port=binding.source.name)
        return graph

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "components": self.registry.describe(),
            "connectors": {
                name: connector.describe()
                for name, connector in self.connectors.items()
            },
            "bindings": [binding.describe() for binding in self.bindings],
            "nodes": self.network.utilisation_map(),
        }
