"""Polylith-style reconfiguration baseline.

Polylith [Port94] reconfigures by "waiting to reach a reconfiguration
point; and blocking communication channels (to manage the messages in
transit) while the module context is encoded and a new module is
created".  The crucial contrast with the connector/RAML approach is
*scope*: Polylith's software bus freezes **every** channel of the
application during the change, not just the affected region — so the
whole application pays for each swap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ReconfigurationError
from repro.kernel.assembly import Assembly
from repro.kernel.component import Component
from repro.reconfig.changes import Change, ReplaceComponent
from repro.reconfig.consistency import check_assembly
from repro.reconfig.quiescence import QuiescenceRegion, reach_quiescence


@dataclass
class PolylithReport:
    """Outcome of one Polylith-style change."""

    started_at: float = 0.0
    finished_at: float = 0.0
    blocked_channels: int = 0
    buffered_calls: int = 0

    @property
    def blocked_duration(self) -> float:
        return self.finished_at - self.started_at


class PolylithReconfigurator:
    """Applies changes with Polylith's global-freeze discipline."""

    def __init__(self, assembly: Assembly) -> None:
        self.assembly = assembly
        self.reports: list[PolylithReport] = []

    def _global_region(self) -> QuiescenceRegion:
        components = [c for c in self.assembly.registry
                      if not c.lifecycle.is_stopped]
        return QuiescenceRegion(components, list(self.assembly.bindings))

    def window_cost(self, changes: list[Change]) -> float:
        """Module context encoding + creation time (same model as the
        transactional engine, for a fair comparison)."""
        return sum(change.cost() for change in changes)

    def apply_async(self, changes: list[Change],
                    on_done: Callable[[PolylithReport], None] | None = None,
                    timeout: float = 10.0) -> None:
        """Freeze the whole bus, wait for a global reconfiguration point,
        apply, hold the window, thaw."""
        sim = self.assembly.sim
        report = PolylithReport(started_at=sim.now)
        region = self._global_region()
        report.blocked_channels = len(region.bindings)

        def at_reconfiguration_point() -> None:
            for change in changes:
                change.validate(self.assembly)
                change.apply(self.assembly)
            consistency = check_assembly(self.assembly)
            if not consistency:
                raise ReconfigurationError(
                    "polylith reconfiguration produced inconsistencies: "
                    + "; ".join(consistency.violations)
                )
            for change in changes:
                if isinstance(change, ReplaceComponent):
                    change.commit(self.assembly)

            def finish() -> None:
                report.buffered_calls = sum(
                    binding.pending_count for binding in region.bindings
                )
                region.release(now=sim.now)
                report.finished_at = sim.now
                self.reports.append(report)
                if on_done is not None:
                    on_done(report)

            sim.schedule(finish, delay=self.window_cost(changes))

        reach_quiescence(region, sim, at_reconfiguration_point,
                         timeout=timeout)

    def replace_module(self, old_name: str, new_component: Component,
                       on_done: Callable[[PolylithReport], None] | None = None
                       ) -> None:
        """The canonical Polylith operation: swap one module."""
        self.apply_async(
            [ReplaceComponent(old_name, new_component)], on_done=on_done
        )
