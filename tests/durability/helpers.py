"""Deterministic builder fixtures for the crash-recovery matrix.

Recovery's contract is a *deterministic builder*: the same code that
built the pre-crash system rebuilds it after restart and hands
:func:`repro.durability.recover` fresh change objects.  These helpers
are that builder — every call to :func:`build_assembly` produces a
checksum-identical assembly, and :func:`build_changes` produces a fresh
copy of the canonical crash-matrix transaction (one structural add, one
strong replacement with state transfer).
"""

from repro.durability import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    WriteAheadLog,
    assembly_checksum,
)
from repro.events import Simulator
from repro.injectors import SimulatedCrash
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import (
    AddComponent,
    ReconfigurationTransaction,
    ReplaceComponent,
)

from tests.helpers import CounterComponent, counter_interface


def fresh_counter(name, total=0):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    component.state["total"] = total
    return component


def fresh_client(name="client"):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    component.require("peer", counter_interface())
    return component


def build_assembly():
    """The pre-reconfiguration system: client → server on a 3-leaf star."""
    sim = Simulator()
    assembly = Assembly(star(sim, leaves=3))
    assembly.deploy(fresh_client(), "leaf0")
    assembly.deploy(fresh_counter("server", total=7), "leaf1")
    assembly.connect("client", "peer", target_component="server")
    return assembly


def build_changes(assembly):
    """Fresh change objects for the canonical matrix transaction."""
    return [
        AddComponent(fresh_counter("extra"), "leaf2"),
        ReplaceComponent("server", fresh_counter("server2")),
    ]


#: Crash-matrix point keys of the canonical transaction's forward path,
#: in journal order (two changes → two apply points).
FORWARD_POINTS = ("intent", "quiesce", "apply:0", "apply:1",
                  "commit", "post-commit")


def expected_mode(point, when):
    """The recovery mode a crash at ``point`` (``when`` the append) must
    lead to: roll forward exactly when the commit marker was durable."""
    if point == "intent" and when == "before":
        return CLEAN  # nothing durable: the transaction never existed
    committed = (
        (point == "commit" and when == "after")
        or point == "post-commit"
    )
    return ROLL_FORWARD if committed else ROLL_BACK


def pre_checksum():
    return assembly_checksum(build_assembly())


def post_checksum():
    """Checksum after the canonical transaction commits cleanly."""
    assembly = build_assembly()
    txn = ReconfigurationTransaction(assembly, name="probe")
    for change in build_changes(assembly):
        txn.add(change)
    txn.execute()
    return assembly_checksum(assembly)


def run_journaled(store, *, name="txn-1", crash=None, wal_log=None):
    """Run the canonical transaction journaled into ``store``.

    Returns ``(assembly, txn, crashed)``; with a ``crash`` injector
    armed, the :class:`SimulatedCrash` is swallowed here (the in-memory
    assembly is abandoned, exactly like a process death) and ``crashed``
    reports whether it fired.
    """
    assembly = build_assembly()
    wal = (WriteAheadLog(store) if wal_log is None
           else WriteAheadLog(store, wal_log))
    if crash is not None:
        crash.arm(wal)
    txn = ReconfigurationTransaction(assembly, name=name, wal=wal)
    for change in build_changes(assembly):
        txn.add(change)
    crashed = False
    try:
        txn.execute()
    except SimulatedCrash:
        crashed = True
    return assembly, txn, crashed
