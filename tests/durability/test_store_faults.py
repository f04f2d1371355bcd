"""Backend write-failure injection at every WAL phase.

The SNIPPETS §2–3 idiom: every durable write is a fault site.  A
forward-path store failure must fail/roll back the transaction cleanly
(not durably journaled means not done); a failure-path store failure
must never mask the in-memory rollback — it lands in
``report.wal_errors`` instead.  And rollback errors still raise
``RollbackError``, injected store faults or not.
"""

import pathlib

import pytest

from repro.durability import MemoryStore, WriteAheadLog, assembly_checksum
from repro.errors import RollbackError, StoreError
from repro.injectors import FlakyStore, record_point
from repro.reconfig import (
    Change,
    ReconfigurationTransaction,
    TransactionState,
)

from tests.durability.helpers import (
    FORWARD_POINTS,
    build_assembly,
    build_changes,
    post_checksum,
    pre_checksum,
)
from tests.helpers import ExplodingChange


def journaled_txn(store, name="txn-1"):
    assembly = build_assembly()
    txn = ReconfigurationTransaction(assembly, name=name,
                                     wal=WriteAheadLog(store))
    for change in build_changes(assembly):
        txn.add(change)
    return assembly, txn


class UnrevertableChange(Change):
    description = "unrevertable change"

    def apply(self, assembly):
        pass

    def revert(self, assembly):
        raise RuntimeError("cannot undo")


@pytest.mark.parametrize("point", FORWARD_POINTS)
def test_write_failure_at_every_phase_reports_cleanly(point):
    store = FlakyStore(MemoryStore(), fail_point=point)
    assembly, txn = journaled_txn(store)

    if point == "post-commit":
        # Past the durable commit decision: informational journaling
        # must not un-commit — the failure is surfaced instead.
        txn.execute()
        assert txn.report.state is TransactionState.COMMITTED
        assert txn.report.wal_errors
        assert assembly_checksum(assembly) == post_checksum()
    else:
        with pytest.raises(StoreError):
            txn.execute()
        assert txn.report.state in (TransactionState.FAILED,
                                    TransactionState.ROLLED_BACK)
        assert "injected backend write failure" in txn.report.error
        assert assembly_checksum(assembly) == pre_checksum()
    assert store.injected == 1


def test_intent_failure_fails_before_touching_anything():
    store = FlakyStore(MemoryStore(), fail_point="intent")
    assembly, txn = journaled_txn(store)
    with pytest.raises(StoreError):
        txn.execute()
    assert txn.report.state is TransactionState.FAILED
    assert txn.report.applied_changes == []
    assert store.inner.logs() == []


def test_commit_failure_means_rolled_back():
    # Not durably committed means not done: the changes applied in
    # memory but the decision marker never landed, so they are undone.
    store = FlakyStore(MemoryStore(), fail_point="commit")
    assembly, txn = journaled_txn(store)
    with pytest.raises(StoreError):
        txn.execute()
    assert txn.report.state is TransactionState.ROLLED_BACK
    assert assembly_checksum(assembly) == pre_checksum()
    phases = WriteAheadLog(store.inner).phases("txn-1")
    assert "commit" not in phases
    assert phases[-2:] == ["rollback-begin", "rollback"]


def test_nth_append_failure_also_rolls_back():
    store = FlakyStore(MemoryStore(), fail_after=4)  # 4th append: apply:1
    assembly, txn = journaled_txn(store)
    with pytest.raises(StoreError):
        txn.execute()
    assert txn.report.state is TransactionState.ROLLED_BACK
    assert assembly_checksum(assembly) == pre_checksum()


def test_dying_store_still_rolls_back_in_memory():
    class DyingStore:
        """Goes down for good the moment the commit record arrives."""

        def __init__(self, inner):
            self.inner = inner
            self.dead = False

        def append(self, log, record):
            if record_point(record) == "commit":
                self.dead = True
            if self.dead:
                raise StoreError("backend gone")
            return self.inner.append(log, record)

        def __getattr__(self, name):
            return getattr(self.inner, name)

    store = DyingStore(MemoryStore())
    assembly, txn = journaled_txn(store)
    with pytest.raises(StoreError):
        txn.execute()
    # The in-memory rollback completed even though every failure-path
    # journal write also failed; the losses are surfaced, not raised.
    assert txn.report.state is TransactionState.ROLLED_BACK
    assert assembly_checksum(assembly) == pre_checksum()
    assert len(txn.report.wal_errors) == 2  # rollback-begin + rollback


def test_failure_path_store_errors_are_collected_not_raised():
    class DeadOnRollback(FlakyStore):
        def append(self, log, record):
            if record_point(record) in ("rollback-begin", "rollback"):
                raise StoreError("store died during rollback journaling")
            return self.inner.append(log, record)

    store = DeadOnRollback(MemoryStore(), fail_point="unused")
    assembly = build_assembly()
    txn = (ReconfigurationTransaction(
        assembly, name="t-collect", wal=WriteAheadLog(store))
        .add(build_changes(assembly)[0])
        .add(ExplodingChange()))
    with pytest.raises(RuntimeError, match="boom"):
        txn.execute()
    assert txn.report.state is TransactionState.ROLLED_BACK
    assert len(txn.report.wal_errors) == 2
    assert assembly_checksum(assembly) == pre_checksum()


def test_rollback_errors_still_raise_rollback_error():
    store = MemoryStore()
    assembly = build_assembly()
    wal = WriteAheadLog(store)
    txn = (ReconfigurationTransaction(assembly, name="t-rbfail", wal=wal)
           .add(UnrevertableChange())
           .add(ExplodingChange()))
    with pytest.raises(RollbackError, match="cannot undo"):
        txn.execute()
    # The journal narrates how far things got: the undo began but never
    # completed — no terminal "rollback" record.
    phases = wal.phases("t-rbfail")
    assert "rollback-begin" in phases
    assert "rollback" not in phases


def test_no_bare_except_in_the_durability_layer():
    # The SNIPPETS §2–3 contract: failures surface as typed errors,
    # never vanish into a bare ``except:``.
    import repro.durability as durability
    import repro.injectors.crash as crash

    sources = list(pathlib.Path(durability.__file__).parent.glob("*.py"))
    sources.append(pathlib.Path(crash.__file__))
    assert len(sources) >= 6
    for source in sources:
        assert "except:" not in source.read_text(), f"bare except in {source}"
