"""Transactional reconfiguration.

A :class:`ReconfigurationTransaction` bundles changes and applies them
with the guarantees the paper demands:

1. **validate** every change against the current configuration;
2. **quiesce** the affected region (block channels, drain calls);
3. **apply** the changes, keeping an undo log;
4. **check global consistency** of the result;
5. **release** the region (flush buffered traffic) — or, on any failure,
   **roll back** the undo log and release, leaving the original
   configuration intact.

The reconfiguration window occupies simulated time (the sum of change
costs), so concurrent traffic observes a realistic freeze.  Both entry
points run the same window body: :meth:`~ReconfigurationTransaction.execute`
quiesces at once and releases at once, while
:meth:`~ReconfigurationTransaction.execute_async` reaches quiescence
under live traffic and holds the region for the window's cost.

With a :class:`~repro.durability.wal.WriteAheadLog` supplied, every
phase transition is journaled *before* the corresponding in-memory
mutation — intent (with the pre-reconfiguration checksum), quiescence,
one write-ahead record per change, the commit decision marker, and the
post-commit checksum — so a crash anywhere inside the window is
recoverable by :func:`repro.durability.recovery.recover`.  WAL appends
on the forward path are load-bearing: a backend failure before the
commit marker aborts/rolls back the transaction (not durably journaled
means not done).  Appends on the failure path are best-effort: a broken
store must never stop an in-memory rollback, so those errors are
collected in ``report.wal_errors`` instead of raised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.errors import (
    ConsistencyError,
    QuiescenceError,
    ReconfigurationError,
    RollbackError,
    StoreError,
)
from repro.kernel.assembly import Assembly
from repro.reconfig.changes import Change, ReplaceComponent
from repro.reconfig.consistency import check_assembly
from repro.reconfig.quiescence import QuiescenceRegion, reach_quiescence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.durability.wal import WriteAheadLog


class TransactionState(enum.Enum):
    PENDING = "pending"
    COMMITTED = "committed"
    ROLLED_BACK = "rolled-back"
    FAILED = "failed"


@dataclass
class TransactionReport:
    """What happened during one reconfiguration transaction."""

    name: str
    state: TransactionState = TransactionState.PENDING
    started_at: float = 0.0
    finished_at: float = 0.0
    blocked_duration: float = 0.0
    buffered_calls: int = 0
    applied_changes: list[str] = field(default_factory=list)
    error: str = ""
    #: Best-effort WAL appends that failed (failure-path journaling
    #: never masks the in-memory outcome; it is surfaced here instead).
    wal_errors: list[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at


class ReconfigurationTransaction:
    """Builder + executor for one atomic reconfiguration.

    Args:
        assembly: the configuration the transaction mutates.
        name: also the write-ahead-log transaction id, so journaled
            transactions should use unique names per log.
        wal: optional :class:`~repro.durability.wal.WriteAheadLog`;
            when supplied, every phase is journaled ahead of its
            in-memory mutation (see the module docstring).
    """

    def __init__(self, assembly: Assembly, name: str = "reconfig",
                 wal: "WriteAheadLog | None" = None) -> None:
        self.assembly = assembly
        self.name = name
        self.wal = wal
        self.changes: list[Change] = []
        self.report = TransactionReport(name)

    def add(self, change: Change) -> "ReconfigurationTransaction":
        self.changes.append(change)
        return self

    # -- write-ahead journaling --------------------------------------------

    def _journal_apply(self, index: int, change: Change) -> None:
        """Write-ahead record for one change, journaled pre-mutation."""
        if self.wal is None:
            return
        if isinstance(change, ReplaceComponent) and change.transfer and (
                change.snapshot_journal is None):
            wal, txn, description = self.wal, self.name, change.description

            def journal_snapshot(snapshot: dict[str, Any]) -> None:
                wal.snapshot(txn, description, snapshot)

            change.snapshot_journal = journal_snapshot
        self.wal.apply(self.name, index, change.description,
                       change.journal_payload(self.assembly))

    def _journal_safe(self, write: Callable[[], Any]) -> None:
        """Failure-path journaling: a broken store must never stop an
        in-memory rollback, so only collect the error."""
        if self.wal is None:
            return
        try:
            write()
        except StoreError as exc:
            self.report.wal_errors.append(str(exc))

    # -- telemetry ---------------------------------------------------------

    def _audit_phase(self, phase: str, **fields) -> None:
        """Record one transaction phase in the RAML decision audit."""
        tracer = self.assembly.sim.tracer
        if tracer is not None:
            tracer.record_audit("reconfig.phase", txn=self.name, phase=phase,
                                **fields)

    def _emit_span(self) -> None:
        """One span covering the whole transaction window."""
        tracer = self.assembly.sim.tracer
        # "reconfig" sits in the default always-on sampling set, so this
        # records at any probabilistic rate unless explicitly opted out.
        if tracer is not None and tracer.sample("reconfig"):
            report = self.report
            tracer.emit("reconfig", self.name,
                        report.started_at, report.finished_at,
                        state=report.state.value,
                        blocked=report.blocked_duration,
                        buffered=report.buffered_calls)

    # -- region computation ----------------------------------------------------

    def region(self) -> QuiescenceRegion:
        """The components and channels that must be frozen."""
        components = []
        seen = set()
        for change in self.changes:
            for component in change.affected_components(self.assembly):
                if component.name not in seen:
                    seen.add(component.name)
                    components.append(component)
        bindings = []
        for component in components:
            for binding in self.assembly.bindings_touching(component.name):
                if binding not in bindings:
                    bindings.append(binding)
        return QuiescenceRegion(components, bindings)

    def window_cost(self) -> float:
        """Simulated time the reconfiguration window stays open."""
        return sum(change.cost() for change in self.changes)

    # -- execution ------------------------------------------------------------

    def _begin(self) -> QuiescenceRegion:
        """Before the window: reject a second run, validate the first
        change, journal the intent and compute the region.  Any later
        ``Exception`` leaves the report ``failed`` and is re-raised; a
        simulated crash (a ``BaseException``) passes straight through."""
        if self.report.state is not TransactionState.PENDING:
            raise ReconfigurationError(
                f"transaction {self.name!r} was already executed"
            )
        sim = self.assembly.sim
        self.report.started_at = sim.now
        try:
            # Pre-validate the first change only: later changes may depend
            # on earlier ones, so they are validated just before they apply.
            if self.changes:
                self.changes[0].validate(self.assembly)
            if self.wal is not None:
                # Durable intent + pre-checksum, before anything is touched.
                from repro.durability.checksum import assembly_checksum

                self.wal.intent(self.name, self.name,
                                [c.description for c in self.changes],
                                assembly_checksum(self.assembly))
            return self.region()
        except Exception as exc:
            self.report.state = TransactionState.FAILED
            self.report.error = str(exc)
            self.report.finished_at = sim.now
            raise

    def _window(self, region: QuiescenceRegion) -> Exception | None:
        """The reconfiguration window, entered with ``region`` quiescent.

        Applies every change, checks consistency, journals the commit
        decision and commits the replacements; returns ``None`` and leaves
        the region frozen for :meth:`_finish`.  On any failure it reverts
        what was applied, releases the region, records the report
        (``failed`` when nothing was applied, else ``rolled-back``) and
        returns the error.
        """
        sim = self.assembly.sim
        self._audit_phase("quiescence", outcome="reached",
                          components=[c.name for c in region.components])
        applied: list[Change] = []
        try:
            if self.wal is not None:
                self.wal.quiesce(self.name,
                                 [c.name for c in region.components])
            for index, change in enumerate(self.changes):
                change.validate(self.assembly)
                self._journal_apply(index, change)
                change.apply(self.assembly)
                applied.append(change)
                self.report.applied_changes.append(change.description)
                self._audit_phase("change", change=change.description)
            consistency = check_assembly(self.assembly)
            if not consistency:
                raise ConsistencyError(
                    "post-change consistency violations: "
                    + "; ".join(consistency.violations)
                )
            # The durable commit decision: journaled only after every
            # change applied and the consistency check passed.  A store
            # failure here lands in the except path — not durably
            # committed means rolled back.
            if self.wal is not None:
                self.wal.commit(self.name)
        except Exception as exc:
            error = str(exc)
            reverted = [change.description for change in applied]
            # ``abort`` when nothing was applied; else ``rollback-begin``
            # now and the matching ``rollback`` once the undo succeeded.
            if applied:
                self._journal_safe(
                    lambda: self.wal.rollback_begin(self.name, error))
                self._rollback(applied)
                self._journal_safe(
                    lambda: self.wal.rollback(self.name, reverted))
            else:
                self._journal_safe(lambda: self.wal.abort(self.name, error))
            region.release(now=sim.now)
            self.report.state = (
                TransactionState.ROLLED_BACK if applied
                else TransactionState.FAILED
            )
            self.report.error = error
            self.report.finished_at = sim.now
            self.report.blocked_duration = region.report.blocked_duration
            self._audit_phase("rollback", error=error, reverted=reverted)
            self._emit_span()
            return exc
        for change in applied:
            if isinstance(change, ReplaceComponent):
                change.commit(self.assembly)
                self._audit_phase("state_transfer", change=change.description)
        return None

    def execute(self) -> TransactionReport:
        """Validate → quiesce (immediately) → apply → check → release.

        Synchronous variant: assumes no call is in progress (true between
        simulator events).  Raises on failure *after* rolling back.
        """
        region = self._begin()
        sim = self.assembly.sim
        region.block(now=sim.now)
        if not region.is_drained():
            region.release(now=sim.now)
            self.report.state = TransactionState.FAILED
            self.report.error = "region not idle"
            self._audit_phase("quiescence", outcome="failed",
                              error="region not idle")
            raise QuiescenceError(
                f"transaction {self.name!r}: affected components are mid-call; "
                "use execute_async under live traffic"
            )
        region.passivate(now=sim.now)
        error = self._window(region)
        if error is not None:
            raise error
        # The synchronous variant does not advance simulated time; use
        # execute_async for a realistic timed window under live traffic.
        self._finish(region)
        return self.report

    def _finish(self, region: QuiescenceRegion) -> None:
        sim = self.assembly.sim
        region.release(now=sim.now)
        self.report.blocked_duration = region.report.blocked_duration
        self.report.buffered_calls = region.report.buffered_calls
        self.report.state = TransactionState.COMMITTED
        self.report.finished_at = sim.now
        if self.wal is not None:
            # Informational marker: the commit decision is already
            # durable, so a store failure here must not un-commit.
            from repro.durability.checksum import assembly_checksum

            self._journal_safe(lambda: self.wal.post_commit(
                self.name, assembly_checksum(self.assembly)))
        self._audit_phase("commit",
                          blocked=self.report.blocked_duration,
                          buffered=self.report.buffered_calls,
                          changes=list(self.report.applied_changes))
        self._emit_span()

    def execute_async(self, on_done: Callable[[TransactionReport], None]
                      | None = None,
                      quiescence_timeout: float = 10.0) -> None:
        """Run under live traffic: schedule quiescence, apply when drained.

        The window occupies simulated time; buffered calls flush on
        release.  ``on_done`` receives the final report (committed,
        failed or rolled back — rollback errors propagate through the
        event loop).
        """
        region = self._begin()
        sim = self.assembly.sim

        def finish() -> None:
            self._finish(region)
            if on_done is not None:
                on_done(self.report)

        def when_quiescent() -> None:
            if self._window(region) is None:
                sim.schedule(finish, delay=self.window_cost())
            elif on_done is not None:
                on_done(self.report)

        reach_quiescence(region, sim, when_quiescent,
                         timeout=quiescence_timeout)

    def _rollback(self, applied: list[Change]) -> None:
        errors = []
        for change in reversed(applied):
            try:
                change.revert(self.assembly)
            except Exception as exc:  # noqa: BLE001 - aggregated
                errors.append(f"{change.description}: {exc}")
        if errors:
            raise RollbackError(
                f"transaction {self.name!r} rollback failed: "
                + "; ".join(errors)
            )
