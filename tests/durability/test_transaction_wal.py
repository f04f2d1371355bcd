"""ReconfigurationTransaction × WriteAheadLog integration.

Every phase transition must hit the log *before* the in-memory mutation,
and the failure paths must journal their outcome without ever masking
the in-memory rollback.
"""

import pytest

from repro.durability import (
    MemoryStore,
    WriteAheadLog,
    assembly_checksum,
)
from repro.events import Simulator
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import (
    AddComponent,
    MigrateComponent,
    ReconfigurationTransaction,
    TransactionState,
)
from repro.reconfig.state_transfer import state_size

from tests.durability.helpers import (
    build_assembly,
    build_changes,
    fresh_counter,
    post_checksum,
    pre_checksum,
    run_journaled,
)
from tests.helpers import ExplodingChange


class TestForwardPath:
    def test_committed_transaction_journals_every_phase(self):
        store = MemoryStore()
        _assembly, txn, crashed = run_journaled(store)
        assert not crashed
        assert txn.report.state is TransactionState.COMMITTED
        wal = WriteAheadLog(store)
        assert wal.phases("txn-1") == [
            "intent", "quiesce", "apply", "apply", "commit", "post-commit",
        ]

    def test_intent_checksum_matches_the_builder(self):
        store = MemoryStore()
        run_journaled(store)
        intent = WriteAheadLog(store).records("txn-1")[0]
        assert intent["pre_checksum"] == pre_checksum()
        assert intent["changes"] == ["add extra on leaf2",
                                     "replace server with server2"]

    def test_post_commit_checksum_matches_the_committed_state(self):
        store = MemoryStore()
        assembly, _txn, _crashed = run_journaled(store)
        post = WriteAheadLog(store).records("txn-1")[-1]
        assert post["post_checksum"] == assembly_checksum(assembly)
        assert post["post_checksum"] == post_checksum()

    def test_apply_records_precede_mutation_with_payloads(self):
        store = MemoryStore()
        run_journaled(store)
        records = WriteAheadLog(store).records("txn-1")
        applies = [r for r in records if r["phase"] == "apply"]
        assert [r["index"] for r in applies] == [0, 1]
        replace = applies[1]["payload"]
        assert replace["old"] == "server"
        assert replace["new"] == "server2"
        assert replace["transfer"] is True
        assert replace["state_keys"] == ["total"]

    def test_migration_apply_record_carries_its_payload(self):
        store = MemoryStore()
        assembly = build_assembly()
        state_bytes = state_size(assembly.component("server"))
        txn = ReconfigurationTransaction(assembly, name="t-move",
                                         wal=WriteAheadLog(store))
        txn.add(MigrateComponent("server", "leaf2")).execute()
        (apply,) = [record for record in WriteAheadLog(store).records("t-move")
                    if record["phase"] == "apply"]
        assert apply["payload"] == {"component": "server", "source": "leaf1",
                                    "state_bytes": state_bytes,
                                    "target": "leaf2"}
        assert state_bytes > 0
        assert assembly.component("server").node_name == "leaf2"

    def test_replacement_state_snapshot_is_journaled(self):
        store = MemoryStore()
        run_journaled(store)
        snapshots = WriteAheadLog(store).snapshots("txn-1")
        assert len(snapshots) == 1
        assert snapshots[0]["snapshot"] == {"total": 7}

    def test_unjournaled_transaction_writes_nothing(self):
        assembly = build_assembly()
        txn = ReconfigurationTransaction(assembly)
        for change in build_changes(assembly):
            txn.add(change)
        txn.execute()
        assert txn.wal is None
        assert txn.report.wal_errors == []


class TestFailurePaths:
    def test_nothing_applied_journals_abort(self):
        store = MemoryStore()
        assembly = build_assembly()
        wal = WriteAheadLog(store)
        txn = (ReconfigurationTransaction(assembly, name="t-abort", wal=wal)
               .add(ExplodingChange()))
        with pytest.raises(RuntimeError):
            txn.execute()
        assert txn.report.state is TransactionState.FAILED
        phases = wal.phases("t-abort")
        assert phases == ["intent", "quiesce", "apply", "abort"]
        assert assembly_checksum(assembly) == pre_checksum()

    def test_partial_failure_journals_rollback_pair(self):
        store = MemoryStore()
        assembly = build_assembly()
        wal = WriteAheadLog(store)
        txn = (ReconfigurationTransaction(assembly, name="t-rb", wal=wal)
               .add(AddComponent(fresh_counter("extra"), "leaf2"))
               .add(ExplodingChange()))
        with pytest.raises(RuntimeError):
            txn.execute()
        assert txn.report.state is TransactionState.ROLLED_BACK
        phases = wal.phases("t-rb")
        assert phases[-2:] == ["rollback-begin", "rollback"]
        rollback = wal.records("t-rb")[-1]
        assert rollback["reverted"] == ["add extra on leaf2"]
        assert assembly_checksum(assembly) == pre_checksum()

    def test_async_execution_journals_the_same_phases(self):
        store = MemoryStore()
        sim = Simulator()
        assembly = Assembly(star(sim, leaves=3))
        assembly.deploy(fresh_counter("server"), "leaf1")
        wal = WriteAheadLog(store)
        done = []
        txn = (ReconfigurationTransaction(assembly, name="t-async", wal=wal)
               .add(AddComponent(fresh_counter("extra"), "leaf2")))
        txn.execute_async(on_done=done.append)
        sim.run()
        assert done[0].state is TransactionState.COMMITTED
        assert wal.phases("t-async") == [
            "intent", "quiesce", "apply", "commit", "post-commit",
        ]
