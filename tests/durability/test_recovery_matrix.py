"""The fault-injection crash matrix.

Crash at every WAL phase point, before and after the record becomes
durable, on both backends — then restart, rebuild, recover, and require
the acceptance rule: the recovered assembly passes ``check_assembly``
and hashes to exactly the pre- or post-reconfiguration checksum, never a
hybrid.  The decision rule is fixed: a log containing the ``commit``
marker rolls forward; anything short of it rolls back.
"""

import pytest

from repro.durability import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    MemoryStore,
    SqliteStore,
    WriteAheadLog,
    decide,
    recover,
)
from repro.errors import RecoveryError
from repro.injectors import CrashInjector

from tests.durability.helpers import (
    FORWARD_POINTS,
    build_assembly,
    build_changes,
    expected_mode,
    post_checksum,
    pre_checksum,
    run_journaled,
)

#: (point, when) → does the durable log contain the commit marker?
MATRIX = [
    (point, when)
    for point in FORWARD_POINTS
    for when in ("before", "after")
]


def make_store(backend, tmp_path):
    if backend == "memory":
        return MemoryStore()
    return SqliteStore(str(tmp_path / "crash.db"))


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("point,when", MATRIX)
class TestCrashMatrix:
    def test_recovery_reaches_pre_or_post_never_hybrid(
            self, backend, point, when, tmp_path):
        store = make_store(backend, tmp_path)
        _assembly, _txn, crashed = run_journaled(
            store, crash=CrashInjector(point, when=when))
        assert crashed

        fresh = build_assembly()
        report = recover(store, fresh, build_changes(fresh))
        mode = expected_mode(point, when)
        assert report.mode == mode
        assert report.consistent
        if mode == ROLL_FORWARD:
            assert report.checksum == post_checksum()
        else:
            assert report.checksum == pre_checksum()

    def test_second_recovery_is_idempotent(
            self, backend, point, when, tmp_path):
        store = make_store(backend, tmp_path)
        run_journaled(store, crash=CrashInjector(point, when=when))

        fresh = build_assembly()
        first = recover(store, fresh, build_changes(fresh))
        again = build_assembly()
        second = recover(store, again, build_changes(again))
        assert second.mode == first.mode
        assert second.checksum == first.checksum

    def test_same_seed_recovery_audit_is_byte_identical(
            self, backend, point, when, tmp_path):
        outputs = []
        for run in range(2):
            if backend == "memory":
                store = MemoryStore()
            else:
                store = SqliteStore(str(tmp_path / f"crash{run}.db"))
            run_journaled(store, crash=CrashInjector(point, when=when))
            fresh = build_assembly()
            report = recover(store, fresh, build_changes(fresh))
            outputs.append(report.to_json())
        assert outputs[0] == outputs[1]


class TestDecisionRule:
    def test_decide_is_the_commit_marker_rule(self):
        assert decide(["intent", "quiesce", "apply"]) == ROLL_BACK
        assert decide(["intent", "quiesce", "apply", "commit"]) \
            == ROLL_FORWARD
        assert decide([]) == ROLL_BACK

    def test_clean_log_reports_clean(self):
        fresh = build_assembly()
        report = recover(MemoryStore(), fresh, build_changes(fresh))
        assert report.mode == CLEAN
        assert report.checksum == pre_checksum()

    def test_recovered_record_lands_in_the_log(self):
        store = MemoryStore()
        run_journaled(store, crash=CrashInjector("apply:1"))
        fresh = build_assembly()
        recover(store, fresh, build_changes(fresh))
        wal = WriteAheadLog(store)
        assert wal.phases("txn-1")[-1] == "recovered"
        record = wal.records("txn-1")[-1]
        assert record["mode"] == ROLL_BACK


class TestGuards:
    def test_nondeterministic_builder_is_rejected(self):
        store = MemoryStore()
        run_journaled(store, crash=CrashInjector("apply:1"))
        drifted = build_assembly()
        drifted.component("server").state["total"] = 12345
        with pytest.raises(RecoveryError, match="not deterministic"):
            recover(store, drifted, build_changes(drifted))

    def test_mismatched_change_list_is_rejected(self):
        store = MemoryStore()
        run_journaled(store, crash=CrashInjector("apply:1"))
        fresh = build_assembly()
        with pytest.raises(RecoveryError, match="journaled intent"):
            recover(store, fresh, build_changes(fresh)[:1])

    def test_torn_log_without_intent_is_rejected(self):
        store = MemoryStore()
        WriteAheadLog(store).commit("ghost")
        fresh = build_assembly()
        with pytest.raises(RecoveryError, match="torn"):
            recover(store, fresh, build_changes(fresh), txn="ghost")
