"""Component model (substrate S3).

Components with typed, versioned interfaces; provided/required ports with
an interceptor pipeline; dynamic bindings with blocking and redirect;
containers applying EJB/CCM-style deployment descriptors; a registry for
lookup and introspection.
"""

from repro.kernel.assembly import Assembly
from repro.kernel.binding import Binding, BindingMode, BindingStats, PendingCall, bind
from repro.kernel.component import (
    Component,
    Interceptor,
    Invocable,
    Invocation,
    Observer,
    ProvidedPort,
    RequiredPort,
    run_chain,
)
from repro.kernel.container import Container
from repro.kernel.descriptor import DeploymentDescriptor, PlacementConstraint
from repro.kernel.interface import (
    Interface,
    InterfaceAdapter,
    Operation,
    interface_of,
)
from repro.kernel.lifecycle import Lifecycle, LifecycleState
from repro.kernel.registry import Registry
from repro.kernel.versioning import Version

__all__ = [
    "Assembly",
    "Binding",
    "BindingMode",
    "BindingStats",
    "Component",
    "Container",
    "DeploymentDescriptor",
    "Interceptor",
    "Interface",
    "InterfaceAdapter",
    "Invocable",
    "Invocation",
    "Lifecycle",
    "LifecycleState",
    "Observer",
    "Operation",
    "PendingCall",
    "PlacementConstraint",
    "ProvidedPort",
    "Registry",
    "RequiredPort",
    "Version",
    "bind",
    "interface_of",
    "run_chain",
]
