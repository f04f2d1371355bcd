"""The per-region runtime and the worker-process entry point.

:class:`RegionRuntime` is the unit of sharded execution: one region's
:class:`~repro.events.Simulator`, its :class:`~repro.netsim.RegionNetwork`
shard and (optionally) its own tracer.  The coordinator drives it in
**rounds** — conservative-lookahead windows it may simulate without
hearing from other regions — through exactly one method,
:meth:`RegionRuntime.run_round`, so the inline and process backends
execute identical code and produce identical traces.

Both backends speak one protocol of plain tuples, served by
:meth:`RegionRuntime.handle` (:func:`worker_main` wraps it in a pipe
loop for the process backend):

========================================== ==================================
coordinator → worker                        worker → coordinator
========================================== ==================================
``("round", k, horizon, incl, injections)`` ``("done", k, outbox, counters)``
``("collect",)``                            ``("report", report_dict)``
``("stop",)``                               ``("bye", region)``
========================================== ==================================

Any exception crosses back as ``("error", region, traceback_text)``.
"""

from __future__ import annotations

import traceback
from typing import Any, Callable

from repro.events import Simulator
from repro.netsim.message import MessageIdAllocator, use_allocator
from repro.netsim.partition import Partition, RegionNetwork
from repro.telemetry.instrument import configure as _configure_telemetry
from repro.telemetry.merge import region_records

#: Message-id namespace stride: region ``r`` numbers its messages from
#: ``r * stride + 1``, so merged telemetry never shows colliding ids.
MSG_ID_STRIDE = 10_000_000

#: Builds one region's shard: ``build_region(region, sim, partition,
#: seed) -> RegionNetwork`` — create the RegionNetwork, add the region's
#: nodes/links, bind endpoints and schedule the region's workload.
RegionBuilder = Callable[[int, Simulator, Partition, int], RegionNetwork]


class RegionRuntime:
    """One region's simulator + network shard + tracer.

    Each runtime owns a :class:`~repro.netsim.message.MessageIdAllocator`
    seeded into its strided namespace and installs it around every build
    and round, so interleaving many runtimes in one process (the inline
    backend) numbers messages exactly as isolated worker processes do —
    a precondition for backend-identical merged trace checksums — with
    no global reset-order discipline.
    """

    def __init__(self, region: int, partition: Partition,
                 build_region: RegionBuilder, seed: int = 0,
                 telemetry: dict[str, Any] | None = None) -> None:
        self.region = region
        self.partition = partition
        self.ids = MessageIdAllocator(region * MSG_ID_STRIDE + 1)
        self.sim = Simulator()
        self.tracer = (_configure_telemetry(self.sim, **telemetry)
                       if telemetry is not None else None)
        previous = use_allocator(self.ids)
        try:
            self.net = build_region(region, self.sim, partition, seed)
        finally:
            use_allocator(previous)
        if not isinstance(self.net, RegionNetwork):
            raise TypeError(
                f"build_region must return a RegionNetwork, "
                f"got {type(self.net).__name__}")
        self.rounds = 0

    def run_round(self, index: int, horizon: float, inclusive: bool,
                  injections: list[tuple]) -> tuple[list[tuple], dict]:
        """Simulate one conservative window and drain the outbox.

        ``injections`` are boundary tuples from other regions, already in
        deterministic merge order; they are scheduled at their arrival
        times (all >= now, guaranteed by the lookahead) with one bulk
        insert so their event sequence numbers follow that order.  The
        window then runs to ``horizon`` — exclusive between rounds so an
        event exactly at the horizon fires in the *next* round, after any
        remote tuple arriving at the same instant has been injected.

        The returned counters carry ``egress_floor`` — the earliest
        simulated time this region could still egress a boundary tuple
        given its pending state (``inf`` when it provably cannot) — the
        per-region promise adaptive lookahead widens horizons with.
        """
        net, sim = self.net, self.sim
        previous = use_allocator(self.ids)
        try:
            if injections:
                ingress = net.ingress
                sim.schedule_many(
                    ((record[4], ingress, (record,))
                     for record in injections),
                    absolute=True)
            sim.run(until=horizon, inclusive=inclusive)
        finally:
            use_allocator(previous)
        outbox, net.outbox = net.outbox, []
        self.rounds += 1
        counters = {
            "executed": sim.executed_events,
            "now": sim.now,
            "outbound": len(outbox),
            "in_flight": net.in_flight,
            "egress_floor": net.egress_floor(),
        }
        return outbox, counters

    def collect(self) -> dict[str, Any]:
        """Final per-region report: counters, stats and (when telemetry
        is configured) the region's export-ready trace records."""
        net = self.net
        stats = dict(net.stats.snapshot())
        stats["forwarded_out"] = net.forwarded_out
        stats["ingressed"] = net.ingressed
        stats["in_flight"] = net.in_flight
        extra = getattr(net, "extra_stats", None)
        if extra is not None:
            # Scenario-specific counters (e.g. the lean shard's
            # order-invariant delivery digest) ride along in the report.
            stats.update(extra())
        return {
            "region": self.region,
            "executed": self.sim.executed_events,
            "now": self.sim.now,
            "rounds": self.rounds,
            "stats": stats,
            "records": (region_records(self.tracer, self.region)
                        if self.tracer is not None else []),
        }

    def handle(self, command: tuple) -> tuple:
        """Execute one coordinator command and return its reply (see the
        module's protocol table) — the one dispatch both backends share.
        Any exception becomes an ``("error", region, traceback)`` reply.
        """
        try:
            op = command[0]
            if op == "round":
                _, index, horizon, inclusive, injections = command
                return ("done", index,
                        *self.run_round(index, horizon, inclusive, injections))
            if op == "collect":
                return ("report", self.collect())
            if op == "stop":
                return ("bye", self.region)
            return ("error", self.region, f"unknown command {op!r}")
        except Exception:
            return ("error", self.region, traceback.format_exc())


def worker_main(conn: Any, region: int, partition: Partition,
                build_region: RegionBuilder, seed: int,
                telemetry: dict[str, Any] | None) -> None:
    """Worker-process loop: build the runtime, serve pipe commands until
    ``stop``, an error reply, or the coordinator closing the pipe."""
    try:
        runtime = RegionRuntime(region, partition, build_region,
                                seed=seed, telemetry=telemetry)
    except Exception:
        conn.send(("error", region, traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            command = conn.recv()
        except EOFError:  # coordinator went away
            return
        reply = runtime.handle(command)
        conn.send(reply)
        if reply[0] in ("bye", "error"):
            conn.close()
            return
