"""Failure injection.

Schedules node crashes/recoveries and link flaps on the simulated network.
Used by the fault-tolerance examples and by tests that assert the
reconfiguration engine survives infrastructure failures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.netsim.network import Network


@dataclass
class FailureEvent:
    """One scheduled failure or repair, recorded for post-run inspection."""

    time: float
    kind: str  # "node_crash" | "node_recover" | "link_fail" | "link_restore"
    target: str


class FailureInjector:
    """Deterministic, seeded failure schedule over a network."""

    def __init__(self, network: Network, seed: int = 0) -> None:
        self.network = network
        self.rng = random.Random(seed)
        self.log: list[FailureEvent] = []

    # -- explicit schedules --------------------------------------------------

    def crash_node(self, name: str, at: float, recover_after: float | None = None) -> None:
        """Crash ``name`` at time ``at``; optionally recover later."""
        self.network.sim.at(self._crash, name, when=at)
        if recover_after is not None:
            self.network.sim.at(self._recover, name, when=at + recover_after)

    def flap_link(self, a: str, b: str, at: float, down_for: float) -> None:
        """Take the a-b link down at ``at`` and restore it ``down_for`` later."""
        self.network.sim.at(self._link_fail, a, b, when=at)
        self.network.sim.at(self._link_restore, a, b, when=at + down_for)

    # -- random schedules ------------------------------------------------------

    def random_node_crashes(
        self,
        horizon: float,
        rate: float,
        recover_after: float,
        candidates: list[str] | None = None,
    ) -> int:
        """Schedule Poisson-ish node crashes up to ``horizon``.

        Returns the number of crashes scheduled.
        """
        names = candidates if candidates is not None else list(self.network.nodes)
        # Draw the whole schedule first, then bulk-insert instead of
        # per-crash pushes.  The (time, seq) order of the batch is
        # identical to the per-call ``sim.at`` sequence.
        items: list[tuple[float, object, tuple]] = []
        t = self.rng.expovariate(rate) if rate > 0 else horizon + 1
        while t < horizon:
            victim = self.rng.choice(names)
            items.append((t, self._crash, (victim,)))
            items.append((t + recover_after, self._recover, (victim,)))
            t += self.rng.expovariate(rate)
        self.network.sim.schedule_many(items, absolute=True)
        return len(items) // 2

    def random_link_flaps(
        self,
        horizon: float,
        rate: float,
        down_for: float,
    ) -> int:
        """Schedule random link flaps up to ``horizon``; returns the count."""
        keys = list(self.network.links)
        if not keys:
            return 0
        items: list[tuple[float, object, tuple]] = []
        t = self.rng.expovariate(rate) if rate > 0 else horizon + 1
        while t < horizon:
            a, b = self.rng.choice(keys)
            items.append((t, self._link_fail, (a, b)))
            items.append((t + down_for, self._link_restore, (a, b)))
            t += self.rng.expovariate(rate)
        self.network.sim.schedule_many(items, absolute=True)
        return len(items) // 2

    # -- internals ---------------------------------------------------------

    def _record(self, kind: str, target: str) -> None:
        self.log.append(FailureEvent(self.network.sim.now, kind, target))

    def _crash(self, name: str) -> None:
        self.network.node(name).crash()
        self.network.invalidate_routes()
        self._record("node_crash", name)

    def _recover(self, name: str) -> None:
        self.network.node(name).recover()
        self.network.invalidate_routes()
        self._record("node_recover", name)

    def _link_fail(self, a: str, b: str) -> None:
        self.network.link_between(a, b).fail()
        self.network.invalidate_routes()
        self._record("link_fail", f"{a}<->{b}")

    def _link_restore(self, a: str, b: str) -> None:
        self.network.link_between(a, b).restore()
        self.network.invalidate_routes()
        self._record("link_restore", f"{a}<->{b}")
