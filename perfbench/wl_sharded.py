"""``sharded_ring``: a two-region sharded run on worker processes.

``ParallelSimulation`` over ``star_ring_partition(2, …)`` with
``build_star_region``: one worker process per region (two, matching a
two-core host), overlapped exchange, fixed cadence, and sampled
telemetry so that the merged trace checksum serves as a witness.

Op: one round, timed on the coordinator as the host interval between
successive completions of a round index by every region (the
``after_round`` hook does not name the region).  Each cycle is one full
run from spawn to collect; its spawn, region build and first round are
set-up, not ops.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter

from repro.parallel import (
    ParallelSimulation,
    build_star_region,
    star_ring_partition,
)

from harness import Cycle, Spans, quantile, span

REGIONS = 2
LEAVES = 8
MESSAGES = 21_000
#: 1,050 rounds: each cycle times 1,049, so that ten lie beyond its p99.
UNTIL = 10.5
CROSS_FRACTION = 0.2
BOUNDARY_LATENCY = 0.01
TELEMETRY = {"sample_rate": 0.1}
TRACED_DURATIONS = ()


def prepare(seed: int) -> int:
    return seed


def _simulation(seed: int, traced: bool) -> ParallelSimulation:
    partition = star_ring_partition(REGIONS, leaves=LEAVES,
                                    boundary_latency=BOUNDARY_LATENCY)
    build = partial(traced_region if traced else build_star_region,
                    leaves=LEAVES, messages=MESSAGES, until=UNTIL,
                    cross_fraction=CROSS_FRACTION)
    return ParallelSimulation(partition, build, seed=seed,
                              telemetry={**TELEMETRY, "seed": seed})


def traced_region(region, sim, partition, seed, **sizes):
    """``build_star_region`` plus host timers on the worker's simulator
    loop and network sends, reported through the region's stats."""
    net = build_star_region(region, sim, partition, seed, **sizes)
    totals = {"run_s": 0.0, "send_s": 0.0, "sends": 0, "queue_peak": 0}
    round_s: list[float] = []
    run, send = sim.run, net.send

    def timed_run(*args, **kwargs):
        start = perf_counter()
        try:
            return run(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            totals["run_s"] += elapsed
            round_s.append(elapsed)
            totals["queue_peak"] = max(totals["queue_peak"], sim.queue_size)

    def timed_send(message):
        start = perf_counter()
        try:
            return send(message)
        finally:
            totals["send_s"] += perf_counter() - start
            totals["sends"] += 1

    sim.run, net.send = timed_run, timed_send
    net.extra_stats = lambda: {**totals, "round_s": round_s,
                               "compactions": sim.compactions}
    return net


class _Rounds:
    """``after_round`` hook: a round index is complete once every region
    has reported it; an op is the interval between completions."""

    def __init__(self) -> None:
        self.reported: dict[int, int] = {}
        self.last: float | None = None
        self.op_times: list[float] = []

    def __call__(self, psim, index: int, now: float) -> None:
        count = self.reported.get(index, 0) + 1
        self.reported[index] = count
        if count < REGIONS:
            return
        del self.reported[index]
        stamp = perf_counter()
        if self.last is not None:
            self.op_times.append(stamp - self.last)
        self.last = stamp


def setup_probe(seed: int) -> None:
    """Set-up as a user pays it: spawn, region build and the first round."""
    _simulation(seed, False).run(until=BOUNDARY_LATENCY, backend="process",
                                 mode="overlapped")


def run_cycle(seed: int, spans: Spans | None) -> Cycle:
    rounds = _Rounds()
    psim = _simulation(seed, spans is not None)
    result = span(spans, "parallel", psim.run)(
        until=UNTIL, backend="process", mode="overlapped",
        after_round=span(spans, "harness", rounds))
    cycle = Cycle()
    cycle.op_times = rounds.op_times
    sent, delivered = result.stat("sent"), result.stat("delivered")
    dropped = result.stat("dropped")
    cycle.outputs = {
        "checksum": result.checksum,
        "executed": result.executed,
        "sent": sent,
        "delivered": delivered,
        "in_flight": result.stat("in_flight"),
        "leftovers": result.leftovers,
        "rounds": result.rounds,
        "sync_stalls": result.sync_stalls,
    }
    if dropped or result.restarts or result.degraded or \
            result.revival_attempts:
        cycle.problems.append(
            f"dropped={dropped} restarts={result.restarts} "
            f"degraded={result.degraded}")
    meta = [record for record in result.records
            if record.get("type") == "meta"]
    cycle.counts = {
        "events.executed": result.executed,
        "netsim.sent": sent,
        "netsim.delivered": delivered,
        "netsim.dropped": dropped,
        "parallel.rounds": result.rounds,
        "parallel.sync_stalls": result.sync_stalls,
        "parallel.leftovers": result.leftovers,
        "parallel.restarts": result.restarts,
        "parallel.events_per_round": result.executed / result.rounds,
        "telemetry.records": len(result.records),
        "telemetry.drops": sum(record.get("dropped_spans", 0)
                               for record in meta),
    }
    if spans is not None:
        reports = [result.regions[region]["stats"]
                   for region in sorted(result.regions)]
        cycle.counts["events.compactions"] = sum(
            report["compactions"] for report in reports)
        cycle.counts["events.queue_peak"] = max(
            report["queue_peak"] for report in reports)
        cycle.worker = reports
    return cycle


def layer_times(spans: Spans, phase) -> dict[str, float]:
    """Worker-side busy times (on other cores than the coordinator) and
    the coordinator's view of a round."""
    run_s = send_s = 0.0
    sends = 0
    skews: list[float] = []
    for cycle in phase.cycles:
        for report in cycle.worker:
            run_s += report["run_s"]
            send_s += report["send_s"]
            sends += report["sends"]
        per_round = zip(*(report["round_s"] for report in cycle.worker))
        skews += [max(times) - min(times) for times in per_round]
    rounds = sorted(phase.op_times)
    return {
        "events.run_s": (run_s - send_s) / len(phase.cycles),
        "netsim.send_us": send_s / sends * 1e6 if sends else 0.0,
        "parallel.round_us_p50": quantile(rounds, 0.50) * 1e6,
        "parallel.round_skew_us": quantile(sorted(skews), 0.50) * 1e6,
    }
