"""No-hybrid recovery over generated transactions and every crash point.

The crash matrix in ``test_recovery_matrix.py`` crashes one fixed
transaction.  Here Hypothesis generates transactions of 1–4 valid
changes on a small star assembly (rewires, client migrations, strong
replacements with state transfer, additions, and a removal last),
crashes each one at
every WAL point before and after the append, on both backends and
through both entry points (``execute()``, or ``execute_async()`` with
the crash firing inside the event loop), then rebuilds and recovers.
The recovered assembly must hash to the clean pre- or post-checksum, and
recovery must pick the mode the decision rule names: roll forward
exactly when the commit marker was durable, clean when the crash came
before the intent record.

The same generated transactions, with an always-failing change at a
generated position, check that both entry points run one window: the
same report outcome, the same WAL records and the same final assembly.
"""

import contextlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    MemoryStore,
    SqliteStore,
    WriteAheadLog,
    assembly_checksum,
    canonical_json,
    recover,
)
from repro.events import Simulator
from repro.injectors import CrashInjector, SimulatedCrash
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import (
    AddComponent,
    MigrateComponent,
    ReconfigurationTransaction,
    RemoveComponent,
    ReplaceComponent,
    RewireBinding,
)

from tests.durability.helpers import (
    expected_mode,
    fresh_client,
    fresh_counter,
)
from tests.helpers import ExplodingChange


def build_assembly():
    """Clients c0, c1 bound to servers s0, s1 and an unbound spare, on a
    3-leaf star."""
    assembly = Assembly(star(Simulator(), leaves=3))
    assembly.deploy(fresh_counter("s0", total=3), "leaf0")
    assembly.deploy(fresh_counter("s1", total=5), "leaf1")
    assembly.deploy(fresh_counter("spare"), "leaf2")
    for index in range(2):
        assembly.deploy(fresh_client(f"c{index}"), f"leaf{index}")
        assembly.connect(f"c{index}", "peer", target_component=f"s{index}")
    return assembly


#: (rewires as (client, server), clients migrated to leaf2, replaced
#: servers, leaves to add on, remove the spare last?)
plans = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2),
    st.lists(st.integers(0, 1), max_size=2, unique=True),
    st.lists(st.integers(0, 1), max_size=2, unique=True),
    st.lists(st.integers(0, 2), max_size=2),
    st.booleans(),
).filter(lambda plan: 1 <= sum(map(len, plan[:-1])) + plan[-1] <= 4)


def build_changes(plan):
    """Fresh change objects, ordered so each applies: rewires,
    migrations, replacements, additions, then the removal."""
    rewires, migrated, replaced, adds, remove = plan
    changes = [RewireBinding(f"c{client}", "peer",
                             target_component=f"s{server}")
               for client, server in rewires]
    changes += [MigrateComponent(f"c{client}", "leaf2")
                for client in migrated]
    changes += [ReplaceComponent(f"s{server}", fresh_counter(f"s{server}b"))
                for server in replaced]
    changes += [AddComponent(fresh_counter(f"extra{index}"), f"leaf{leaf}")
                for index, leaf in enumerate(adds)]
    if remove:
        changes.append(RemoveComponent("spare"))
    return changes


def crash_points(count):
    points = ["intent", "quiesce", *(f"apply:{i}" for i in range(count)),
              "commit", "post-commit"]
    return [(point, when) for point in points for when in ("before", "after")]


def run(txn, entry):
    """Execute ``txn`` through one entry point: ``execute()``, or
    ``execute_async()`` and the event loop until it drains."""
    if entry == "sync":
        txn.execute()
    else:
        txn.execute_async()
        txn.assembly.sim.run()


def execute(plan, wal=None, entry="sync"):
    assembly = build_assembly()
    txn = ReconfigurationTransaction(assembly, name="txn", wal=wal)
    for change in build_changes(plan):
        txn.add(change)
    run(txn, entry)
    return assembly


@pytest.mark.parametrize("entry", ["sync", "async"])
@pytest.mark.parametrize("open_store", [
    MemoryStore, lambda: SqliteStore(":memory:")], ids=["memory", "sqlite"])
@settings(max_examples=25, deadline=None)
@given(plans)
def test_every_crash_recovers_to_pre_or_post_never_hybrid(open_store, entry,
                                                          plan):
    pre = assembly_checksum(build_assembly())
    post = assembly_checksum(execute(plan))
    checksums = {CLEAN: pre, ROLL_BACK: pre, ROLL_FORWARD: post}
    for point, when in crash_points(len(build_changes(plan))):
        store = open_store()
        wal = WriteAheadLog(store)
        CrashInjector(point, when=when).arm(wal)
        try:
            execute(plan, wal, entry)
        except SimulatedCrash:
            pass
        else:
            raise AssertionError(f"no crash at {point} ({when})")
        fresh = build_assembly()
        report = recover(store, fresh, build_changes(plan))
        mode = expected_mode(point, when)
        assert (report.mode, report.checksum) == (mode, checksums[mode]), (
            point, when)
        assert report.consistent
        assert assembly_checksum(fresh) == checksums[mode]
        store.close()


@settings(max_examples=25, deadline=None)
@given(plans, st.none() | st.integers(0, 4))
@example(plan=([], [], [], [2], False), fail_at=0)
def test_execute_and_execute_async_run_one_window(plan, fail_at):
    outcomes = []
    for entry in ("sync", "async"):
        changes = build_changes(plan)
        if fail_at is not None:
            # Never after the removal: a stopped component cannot revert.
            last = len(changes) - plan[-1]
            changes.insert(min(fail_at, last), ExplodingChange())
        wal = WriteAheadLog(MemoryStore())
        txn = ReconfigurationTransaction(build_assembly(), name="txn",
                                         wal=wal)
        for change in changes:
            txn.add(change)
        with contextlib.suppress(RuntimeError):  # execute() re-raises
            run(txn, entry)
        report = txn.report
        outcomes.append((
            report.state, report.error, report.applied_changes,
            report.wal_errors,
            [canonical_json(record) for record in wal.records()],
            assembly_checksum(txn.assembly),
        ))
    assert outcomes[0] == outcomes[1]
