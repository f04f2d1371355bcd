"""No-hybrid recovery over generated transactions and every crash point.

The crash matrix in ``test_recovery_matrix.py`` crashes one fixed
transaction.  Here Hypothesis generates transactions of 1–4 valid
changes on a small star assembly (rewires, strong replacements with
state transfer, additions, and a removal last), crashes each one at
every WAL point before and after the append, on both backends, then
rebuilds and recovers.  The recovered assembly must hash to the clean
pre- or post-checksum, and recovery must pick the mode the decision rule
names: roll forward exactly when the commit marker was durable, clean
when the crash came before the intent record.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    MemoryStore,
    SqliteStore,
    WriteAheadLog,
    assembly_checksum,
    recover,
)
from repro.events import Simulator
from repro.injectors import CrashInjector, SimulatedCrash
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import (
    AddComponent,
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


#: (rewires as (client, server), replaced servers, leaves to add on,
#: remove the spare last?)
plans = st.tuples(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=2),
    st.lists(st.integers(0, 1), max_size=2, unique=True),
    st.lists(st.integers(0, 2), max_size=2),
    st.booleans(),
).filter(lambda plan: 1 <= sum(map(len, plan[:3])) + plan[3] <= 4)


def build_changes(plan):
    """Fresh change objects, ordered so each applies: rewires,
    replacements, additions, then the removal."""
    rewires, replaced, adds, remove = plan
    changes = [RewireBinding(f"c{client}", "peer",
                             target_component=f"s{server}")
               for client, server in rewires]
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


def execute(plan, wal=None):
    assembly = build_assembly()
    txn = ReconfigurationTransaction(assembly, name="txn", wal=wal)
    for change in build_changes(plan):
        txn.add(change)
    txn.execute()
    return assembly


@pytest.mark.parametrize("open_store", [
    MemoryStore, lambda: SqliteStore(":memory:")], ids=["memory", "sqlite"])
@settings(max_examples=25, deadline=None)
@given(plans)
def test_every_crash_recovers_to_pre_or_post_never_hybrid(open_store, plan):
    pre = assembly_checksum(build_assembly())
    post = assembly_checksum(execute(plan))
    checksums = {CLEAN: pre, ROLL_BACK: pre, ROLL_FORWARD: post}
    for point, when in crash_points(len(build_changes(plan))):
        store = open_store()
        wal = WriteAheadLog(store)
        CrashInjector(point, when=when).arm(wal)
        try:
            execute(plan, wal)
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
