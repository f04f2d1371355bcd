"""Intercession: the action side of RAML.

"These actions consist of interchanging the components or modifying the
connections between the components of the targeted application."  The
:class:`Intercessor` is a façade over the reconfiguration engine and the
lightweight mechanisms, giving RAML responses one vocabulary for both.
"""

from __future__ import annotations

from typing import Any

from repro.errors import RamlError
from repro.kernel.assembly import Assembly
from repro.kernel.component import Component
from repro.kernel.descriptor import DeploymentDescriptor
from repro.reconfig.changes import (
    AddComponent,
    ReplaceComponent,
    ReplaceImplementation,
    RewireBinding,
    SwapConnector,
)
from repro.reconfig.migration import MigrateComponent
from repro.reconfig.state_transfer import StateTranslator
from repro.reconfig.transaction import (
    ReconfigurationTransaction,
    TransactionReport,
)


class Intercessor:
    """Uniform act API for RAML responses."""

    def __init__(self, assembly: Assembly) -> None:
        self.assembly = assembly
        self.transactions: list[TransactionReport] = []

    def _audit(self, action: str, mechanism: str, **fields: Any) -> None:
        tracer = self.assembly.sim.tracer
        if tracer is not None:
            tracer.record_audit("raml.intercession", action=action,
                                mechanism=mechanism, **fields)

    # -- heavyweight (reconfiguration) ----------------------------------------

    def _run(self, name: str, *changes: Any) -> TransactionReport:
        txn = ReconfigurationTransaction(self.assembly, name=name)
        for change in changes:
            txn.add(change)
        try:
            report = txn.execute()
        except Exception:
            self._audit(name, "reconfiguration",
                        outcome=txn.report.state.value,
                        error=txn.report.error)
            raise
        self.transactions.append(report)
        self._audit(name, "reconfiguration", outcome=report.state.value,
                    changes=list(report.applied_changes))
        return report

    def replace_component(self, old_name: str, new_component: Component,
                          translator: StateTranslator | None = None
                          ) -> TransactionReport:
        """Strong hot-swap, state carried over."""
        return self._run(
            f"replace:{old_name}",
            ReplaceComponent(old_name, new_component, translator=translator),
        )

    def add_component(self, component: Component, node_name: str,
                      descriptor: DeploymentDescriptor | None = None
                      ) -> TransactionReport:
        return self._run(
            f"add:{component.name}",
            AddComponent(component, node_name, descriptor),
        )

    def rewire(self, source_component: str, required_port: str,
               target_component: str, target_port: str = "svc"
               ) -> TransactionReport:
        return self._run(
            f"rewire:{source_component}.{required_port}",
            RewireBinding(source_component, required_port,
                          target_component=target_component,
                          target_port=target_port),
        )

    def migrate(self, component_name: str, target_node: str
                ) -> TransactionReport:
        return self._run(
            f"migrate:{component_name}",
            MigrateComponent(component_name, target_node),
        )

    def swap_connector(self, old_name: str, new_connector: Any
                       ) -> TransactionReport:
        return self._run(
            f"swap-connector:{old_name}",
            SwapConnector(old_name, new_connector),
        )

    def replace_implementation(self, component_name: str, port_name: str,
                               implementation: Any) -> TransactionReport:
        return self._run(
            f"reimplement:{component_name}.{port_name}",
            ReplaceImplementation(component_name, port_name, implementation),
        )

    # -- lightweight (no quiescence) ----------------------------------------------

    def swap_connector_attachment(self, connector_name: str, role: str,
                                  old_target: Any, new_target: Any) -> None:
        try:
            connector = self.assembly.connectors[connector_name]
        except KeyError:
            raise RamlError(f"no connector named {connector_name!r}") from None
        connector.replace_attachment(role, old_target, new_target)
        self._audit(f"swap-attachment:{connector_name}.{role}", "adaptation",
                    outcome="applied",
                    old=getattr(old_target, "qualified_name", repr(old_target)),
                    new=getattr(new_target, "qualified_name", repr(new_target)))
