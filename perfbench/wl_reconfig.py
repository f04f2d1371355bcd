"""``reconfig_journal``: journaled reconfiguration and crash recovery.

A 16-component assembly (8 stateful servers, 8 clients) on a star.
Every commit op is one ``ReconfigurationTransaction.execute()`` of 2–4
seeded changes — a strong replacement with state transfer, adding or
removing an auxiliary component, rewiring a client binding — journaled
through a ``WriteAheadLog`` into a ``SqliteStore``.  Every tenth op is a
crash-recovery episode: a ``CrashInjector`` raises ``SimulatedCrash`` at
a seeded WAL point, then ``recover()`` runs against the deterministic
builder.  Each episode journals into its own fresh store, and the commit
stream starts a fresh store every :data:`SEGMENT` ops, so no per-op cost
grows with run length.

The stores are SQLite in-memory databases: the full SQLite statement and
commit path without a device fsync, whose shared-disk latency would
swamp the program's own cost.  This benchmark does not measure device
durability.

Op: one commit (``execute()``) or one recovery episode (crashed run,
rebuild, ``recover()``), host time.  A cycle is :data:`CYCLE_OPS` ops
from a freshly built assembly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from repro import Simulator, star
from repro.durability import (
    CLEAN,
    ROLL_BACK,
    ROLL_FORWARD,
    SqliteStore,
    WAL_LOG,
    WriteAheadLog,
    assembly_checksum,
    canonical_json,
    recover,
)
from repro.injectors import CrashInjector, SimulatedCrash
from repro.kernel import Assembly, Component, Interface, Operation
from repro.reconfig import (
    AddComponent,
    ReconfigurationTransaction,
    RemoveComponent,
    ReplaceComponent,
    RewireBinding,
    TransactionState,
)

from harness import CheckFailed, Cycle, Spans, digest, quantile, span

LEAVES = 8
SERVERS = 8
CLIENTS = 8
STATE_WORDS = 16
CYCLE_OPS = 1000
#: Every SEGMENT-th op is a recovery episode; the commit stream also
#: starts a fresh store every SEGMENT ops.
SEGMENT = 10
MAX_AUX = 3
#: Crash points, swept in order (and before, then after, the append) so
#: that every seed recovers the same mix of clean, rolled-back and
#: rolled-forward transactions.
CRASH_PHASES = ("intent", "quiesce", "apply", "commit", "post-commit")
TRACED_DURATIONS = ("reconfig", "durability.append", "durability.recover")


def counter_interface() -> Interface:
    return Interface("Counter", "1.0", [
        Operation("increment", ("amount",)),
        Operation("total", ()),
    ])


class Server(Component):
    """A stateful counter; its state moves on every replacement."""

    def on_initialize(self) -> None:
        self.state.setdefault("total", 0)
        self.state.setdefault("log", [])

    def increment(self, amount: int) -> int:
        self.state["total"] += amount
        self.state["log"] = self.state["log"][1:] + [amount]
        return self.state["total"]

    def total(self) -> int:
        return self.state["total"]


def make_server(name: str, rng: random.Random | None = None) -> Server:
    server = Server(name)
    server.provide("svc", counter_interface())
    if rng is not None:
        server.state["total"] = rng.randrange(1000)
        server.state["log"] = [rng.randrange(1000)
                               for _ in range(STATE_WORDS)]
    return server


def make_aux(name: str) -> Component:
    aux = Server(name)
    aux.provide("svc", counter_interface())
    return aux


def build_assembly(seed: int) -> Assembly:
    """The deterministic builder: same seed, checksum-identical assembly."""
    rng = random.Random(seed)
    assembly = Assembly(star(Simulator(), leaves=LEAVES, seed=seed),
                        name="journal")
    for index in range(SERVERS):
        assembly.deploy(make_server(f"svc{index}", rng),
                        f"leaf{rng.randrange(LEAVES)}")
    for index in range(CLIENTS):
        client = Component(f"cli{index}")
        client.require("peer", counter_interface())
        assembly.deploy(client, f"leaf{rng.randrange(LEAVES)}")
        assembly.connect(client.name, "peer",
                         target_component=f"svc{rng.randrange(SERVERS)}")
    return assembly


class Names:
    """Current component names as the change stream renames them."""

    def __init__(self) -> None:
        self.servers = [f"svc{index}" for index in range(SERVERS)]
        self.aux: list[str] = []
        self.serial = 0


def plan_changes(rng: random.Random, names: Names) -> list:
    """2–4 non-conflicting changes, ordered so the transaction can apply
    them: rewires, then replacements, then additions, removal last."""
    wanted = rng.randint(2, 4)
    rewires, replaces, adds, removes = [], [], [], []
    existing_aux = list(names.aux)
    servers_before = list(names.servers)
    replaced: set[int] = set()
    while len(rewires) + len(replaces) + len(adds) + len(removes) < wanted:
        kind = rng.choice(("replace", "rewire", "aux"))
        if kind == "rewire":
            slot = rng.randrange(SERVERS)
            rewires.append(RewireBinding(
                f"cli{rng.randrange(CLIENTS)}", "peer",
                target_component=servers_before[slot]))
        elif kind == "replace":
            slot = rng.randrange(SERVERS)
            if slot in replaced:
                continue
            replaced.add(slot)
            names.serial += 1
            new_name = f"svc{slot}.{names.serial}"
            replaces.append(ReplaceComponent(names.servers[slot],
                                             make_server(new_name)))
            names.servers[slot] = new_name
        elif existing_aux and not removes and (
                len(names.aux) >= MAX_AUX or rng.random() < 0.5):
            victim = existing_aux.pop(rng.randrange(len(existing_aux)))
            names.aux.remove(victim)
            removes.append(RemoveComponent(victim))
        elif len(names.aux) < MAX_AUX:
            names.serial += 1
            name = f"aux{names.serial}"
            names.aux.append(name)
            adds.append(AddComponent(make_aux(name),
                                     f"leaf{rng.randrange(LEAVES)}"))
    return rewires + replaces + adds + removes


def expected_mode(point: str, when: str) -> str:
    """Roll forward exactly when the commit marker was durable."""
    if point == "intent" and when == "before":
        return CLEAN
    if point == "post-commit" or (point == "commit" and when == "after"):
        return ROLL_FORWARD
    return ROLL_BACK


@dataclass(frozen=True)
class Episode:
    changes_seed: int
    point: str
    when: str
    mode: str
    checksum: str


@dataclass(frozen=True)
class Plan:
    seed: int
    episodes: tuple[Episode, ...]


def prepare(seed: int) -> Plan:
    """Seeded crash episodes with their expected outcomes, computed by a
    clean, unjournaled run of the same transaction."""
    rng = random.Random(seed)
    pre = assembly_checksum(build_assembly(seed))
    episodes = []
    for index in range(CYCLE_OPS // SEGMENT):
        changes_seed = rng.randrange(1 << 30)
        changes = plan_changes(random.Random(changes_seed), Names())
        point = CRASH_PHASES[index % len(CRASH_PHASES)]
        if point == "apply":
            point = f"apply:{rng.randrange(len(changes))}"
        when = ("before", "after")[index // len(CRASH_PHASES) % 2]
        mode = expected_mode(point, when)
        checksum = pre
        if mode == ROLL_FORWARD:
            assembly = build_assembly(seed)
            txn = ReconfigurationTransaction(assembly, name="reference")
            for change in changes:
                txn.add(change)
            txn.execute()
            checksum = assembly_checksum(assembly)
        episodes.append(Episode(changes_seed, point, when, mode, checksum))
    return Plan(seed, tuple(episodes))


class TimedStore:
    """Store proxy that runs every backend call inside a durability span."""

    def __init__(self, inner: SqliteStore, spans: Spans) -> None:
        self.inner = inner
        self.spans = spans

    def append(self, log: str, record: dict) -> int:
        self.spans.open("durability.append")
        try:
            return self.inner.append(log, record)
        finally:
            self.spans.close()

    def read(self, log: str, start: int = 1) -> list:
        self.spans.open("durability.read")
        try:
            return self.inner.read(log, start)
        finally:
            self.spans.close()

    def logs(self) -> list[str]:
        return self.inner.logs()

    def truncate(self, log: str) -> int:
        return self.inner.truncate(log)

    def close(self) -> None:
        self.inner.close()


class Journal:
    """One cycle's stores and what reading them back found."""

    def __init__(self, spans: Spans | None) -> None:
        self.spans = spans
        self.phases: list[tuple[str, str]] = []
        self.appends = 0
        self.bytes = 0
        self.store = None

    def open(self):
        raw = SqliteStore(":memory:")
        return raw if self.spans is None else TimedStore(raw, self.spans)

    def rotate(self, assembly: Assembly | None) -> WriteAheadLog | None:
        """Read back and close the current commit store; open the next."""
        if self.store is not None:
            self.settle(self.store, assembly)
        self.store = None if assembly is None else self.open()
        return None if self.store is None else WriteAheadLog(self.store)

    def settle(self, store, assembly: Assembly | None) -> list[dict]:
        """Check a finished store's WAL, fold it into the cycle's phase
        digest and close it.  Reads go straight to the backend: checking
        is the benchmark's work, not the program's."""
        raw = store.inner if isinstance(store, TimedStore) else store
        records = []
        for log in raw.logs():
            for _seq, record in raw.read(log):
                self.appends += 1
                self.bytes += len(canonical_json(record))
                if log == WAL_LOG:
                    records.append(record)
        for record in records:
            self.phases.append((record["txn"], record["phase"]))
        if assembly is not None:
            _check_commits(records, assembly)
        raw.close()
        return records


def _check_commits(records: list[dict], assembly: Assembly) -> None:
    by_txn: dict[str, list[dict]] = {}
    for record in records:
        by_txn.setdefault(record["txn"], []).append(record)
    for txn, entries in by_txn.items():
        phases = [entry["phase"] for entry in entries]
        applies = phases.count("apply")
        if phases != ["intent", "quiesce"] + ["apply"] * applies + [
                "commit", "post-commit"] or not 2 <= applies <= 4:
            raise CheckFailed(f"transaction {txn} journaled {phases}")
    last = records[-1]
    if last["post_checksum"] != assembly_checksum(assembly):
        raise CheckFailed(f"post-commit checksum of {last['txn']} does not "
                          "match the live assembly")


def setup_probe(plan: Plan) -> None:
    """Set-up as a user pays it: the assembly and an open journal."""
    build_assembly(plan.seed)
    WriteAheadLog(SqliteStore(":memory:")).store.close()


def run_cycle(plan: Plan, spans: Spans | None) -> Cycle:
    cycle = Cycle()
    build = span(spans, "kernel", build_assembly)
    assembly = build(plan.seed)
    names = Names()
    journal = Journal(spans)
    execute = span(spans, "reconfig", ReconfigurationTransaction.execute)
    poke = span(spans, "kernel", _poke)
    reports = []
    txns = rollbacks = 0
    for index in range(CYCLE_OPS):
        if index % SEGMENT == 0:
            wal = journal.rotate(assembly)
        if index % SEGMENT == SEGMENT - 1:
            episode = plan.episodes[index // SEGMENT]
            start = perf_counter()
            report, store = _episode(plan, episode, index, journal, spans,
                                     build)
            cycle.op_times.append(perf_counter() - start)
            txns += 1
            records = journal.settle(store, None)
            if episode.mode != CLEAN and records[-1]["phase"] != "recovered":
                cycle.problems.append(
                    f"episode {index} left no recovered record")
            if report.mode != episode.mode or \
                    report.checksum != episode.checksum:
                cycle.problems.append(
                    f"episode {index} crashed {episode.when} "
                    f"{episode.point} and recovered {report.mode} to "
                    f"{report.checksum[:12]}; expected {episode.mode} to "
                    f"{episode.checksum[:12]}")
            reports.append(report.to_json())
            continue
        rng = random.Random(f"{plan.seed}/{index}")
        poke(assembly, rng)
        txn = ReconfigurationTransaction(assembly, name=f"t{index}", wal=wal)
        for change in plan_changes(rng, names):
            txn.add(change)
        start = perf_counter()
        report = execute(txn)
        cycle.op_times.append(perf_counter() - start)
        txns += 1
        if report.state is not TransactionState.COMMITTED or \
                report.wal_errors:
            rollbacks += report.state is TransactionState.ROLLED_BACK
            cycle.problems.append(
                f"transaction {index} ended {report.state.value} with "
                f"wal_errors={report.wal_errors}")
    journal.rotate(None)
    cycle.outputs = {
        "checksum": assembly_checksum(assembly),
        "wal": digest(journal.phases),
        "recoveries": reports,
    }
    episodes = CYCLE_OPS // SEGMENT
    cycle.counts = {
        "reconfig.txns": txns,
        "reconfig.rollbacks": rollbacks,
        "durability.appends": journal.appends,
        "durability.appends_per_txn": journal.appends / txns,
        "durability.bytes": journal.bytes,
        "durability.recoveries": episodes,
        "kernel.port_calls": CYCLE_OPS - episodes,
    }
    return cycle


def _poke(assembly: Assembly, rng: random.Random) -> None:
    """One call through a client binding, so transferred state moves."""
    client = assembly.component(f"cli{rng.randrange(CLIENTS)}")
    client.required_port("peer").call("increment", rng.randrange(1, 100))


def _episode(plan: Plan, episode: Episode, index: int, journal: Journal,
             spans: Spans | None, build) -> tuple:
    """Crash a journaled transaction at the seeded point, then recover;
    returns the recovery report and the episode's store."""
    store = journal.open()
    wal = WriteAheadLog(store)
    CrashInjector(episode.point, episode.when).arm(wal)
    txn = ReconfigurationTransaction(build(plan.seed), name=f"e{index}",
                                     wal=wal)
    for change in plan_changes(random.Random(episode.changes_seed), Names()):
        txn.add(change)
    try:
        span(spans, "reconfig.crashed", txn.execute)()
    except SimulatedCrash:
        pass
    else:
        raise CheckFailed(f"episode {index}: no crash at {episode.point}")
    fresh = build(plan.seed)
    changes = plan_changes(random.Random(episode.changes_seed), Names())
    report = span(spans, "durability.recover", recover)(store, fresh, changes)
    return report, store


def layer_times(spans: Spans, phase) -> dict[str, float]:
    """Per-layer host times of the traced phase."""
    executes = sorted(spans.durations["reconfig"])
    appends = sorted(spans.durations["durability.append"])
    recoveries = spans.durations["durability.recover"]
    return {
        "reconfig.execute_us_p50": quantile(executes, 0.50) * 1e6,
        "reconfig.self_us": spans.per_call_us("reconfig"),
        "durability.append_us_p50": quantile(appends, 0.50) * 1e6,
        "durability.append_us_p99": quantile(appends, 0.99) * 1e6,
        "durability.read_us": spans.per_call_us("durability.read"),
        "durability.recover_us": (sum(recoveries) / len(recoveries) * 1e6
                                  if recoveries else 0.0),
    }
