"""Exception hierarchy for the repro platform.

Every package raises subclasses of :class:`ReproError` so that callers can
catch platform errors without swallowing programming errors such as
``TypeError``.  The hierarchy mirrors the package layout: one branch per
subsystem, with fine-grained leaves where callers are expected to
discriminate (for example, reconfiguration failures that are retryable
versus those that indicate an inconsistent target architecture).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro platform."""


# ---------------------------------------------------------------------------
# Simulation substrate
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Errors raised by the discrete-event kernel."""


class ClockError(SimulationError):
    """An event was scheduled in the past or the clock was misused."""


class ProcessError(SimulationError):
    """A simulated process misbehaved (e.g. yielded an unknown command)."""


class NetworkError(ReproError):
    """Errors raised by the network simulator."""


class NodeDownError(NetworkError):
    """The target node has crashed or is unreachable."""


class LinkDownError(NetworkError):
    """The link between two nodes is down or does not exist."""


class CapacityError(NetworkError):
    """A node or link has exhausted its configured capacity."""


class ParallelError(SimulationError):
    """Errors raised by the sharded parallel-simulation coordinator."""


class WorkerError(ParallelError):
    """A region worker raised; carries the remote traceback text."""

    def __init__(self, region: int, remote_traceback: str) -> None:
        super().__init__(
            f"region {region} worker failed:\n{remote_traceback}")
        self.region = region
        self.remote_traceback = remote_traceback


class WorkerTimeoutError(ParallelError):
    """A live worker did not reply within the supervision reply timeout."""

    def __init__(self, region: int, timeout: float) -> None:
        super().__init__(
            f"region {region} worker sent no reply within {timeout} s")
        self.region = region
        self.timeout = timeout


# ---------------------------------------------------------------------------
# Component model
# ---------------------------------------------------------------------------

class ComponentError(ReproError):
    """Errors raised by the component kernel."""


class LifecycleError(ComponentError):
    """An operation was attempted in an illegal lifecycle state."""


class InterfaceError(ComponentError):
    """Interface lookup or type-compatibility failure."""


class BindingError(ComponentError):
    """A binding could not be created, resolved or redirected."""


class RegistryError(ComponentError):
    """Component registry lookup or registration failure."""


class DeploymentError(ComponentError):
    """A deployment descriptor is invalid or cannot be satisfied."""


class VersionError(InterfaceError):
    """Interface versions are incompatible."""


# ---------------------------------------------------------------------------
# Behaviour and architecture description
# ---------------------------------------------------------------------------

class LtsError(ReproError):
    """Errors raised by the labelled-transition-system library."""


class AdlError(ReproError):
    """Errors raised by the architecture description language."""


class AdlSyntaxError(AdlError):
    """The ADL source text could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class AdlValidationError(AdlError):
    """The ADL document parsed but violates a semantic rule."""


# ---------------------------------------------------------------------------
# Mechanisms
# ---------------------------------------------------------------------------

class ConnectorError(ReproError):
    """Errors raised by connectors and the connector factory."""


class RoleError(ConnectorError):
    """A component does not satisfy the protocol of a connector role."""


class IncompatibleProtocolError(ConnectorError):
    """Connector glue and role protocols can deadlock or mismatch."""


class FilterError(ReproError):
    """Errors raised by composition filters."""


class AspectError(ReproError):
    """Errors raised by the aspect weaver."""


class MetaObjectError(ReproError):
    """Errors raised by meta-object chains."""


class ChainOrderError(MetaObjectError):
    """A meta-object chain violates its partial-order constraints."""


class InjectorError(ReproError):
    """Errors raised by injectors."""


class StrategyError(ReproError):
    """Errors raised by the strategy infrastructure."""


class PathError(ReproError):
    """Errors raised by composition paths."""


class RuleError(ReproError):
    """Errors raised by the FLO/C-style rule engine."""


class RuleCycleError(RuleError):
    """The rule set would create a cycle in the calling tree."""


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

class ReconfigurationError(ReproError):
    """Errors raised by the dynamic reconfiguration engine."""


class QuiescenceError(ReconfigurationError):
    """Quiescence could not be reached within the allotted time."""


class ConsistencyError(ReconfigurationError):
    """The target configuration is globally inconsistent."""


class StateTransferError(ReconfigurationError):
    """Component state could not be captured or restored."""


class MigrationError(ReconfigurationError):
    """A component could not be migrated to the target node."""


class RollbackError(ReconfigurationError):
    """A failed reconfiguration could not be rolled back cleanly."""


class DurabilityError(ReproError):
    """Errors raised by the durable-persistence subsystem."""


class StoreError(DurabilityError):
    """A persistence backend could not complete a read or write."""


class WalError(DurabilityError):
    """The write-ahead change log is malformed or was misused."""


class RecoveryError(DurabilityError):
    """Crash recovery could not drive the assembly to a consistent state."""


class AdaptationError(ReproError):
    """Errors raised by the dynamic adaptation engine."""


class QosError(ReproError):
    """Errors raised by QoS contracts and monitors."""


class ControlError(ReproError):
    """Errors raised by feedback controllers."""


class RamlError(ReproError):
    """Errors raised by the Reconfiguration and Adaptation Meta-Level."""


class MiddlewareError(ReproError):
    """Errors raised by the adaptive middleware (ORB)."""


class RequestError(MiddlewareError):
    """A remote invocation failed."""


class TimeoutError(MiddlewareError):  # noqa: A001 - deliberate, scoped name
    """A remote invocation did not complete in time."""
