"""Reference exchange for the coordinator tests: a lock-step loop.

Every region runs every fixed-lookahead window over
:meth:`RegionRuntime.run_round`, and round ``k``'s egress is injected
into round ``k+1`` in ``(arrival, origin region, origin seq)`` order —
the full barrier the coordinator's neighbour-gated engine must match
byte for byte.
"""

from repro.parallel import RegionRuntime
from repro.telemetry.merge import merge_records, merged_checksum


def lockstep(partition, build_region, until, *, seed=0, telemetry=None):
    """Run the reference exchange; returns ``(checksum, rounds,
    reports)`` with the merged trace checksum (``None`` without
    telemetry) and each region's ``collect()`` report."""
    runtimes = [RegionRuntime(region, partition, build_region, seed=seed,
                              telemetry=telemetry)
                for region in range(partition.regions)]
    inject = [[] for _ in runtimes]
    now, rounds = 0.0, 0
    while now < until:
        now = min((rounds + 1) * partition.lookahead, until)
        outboxes = [runtime.run_round(rounds, now, now >= until, batch)[0]
                    for runtime, batch in zip(runtimes, inject)]
        inject = [[] for _ in runtimes]
        for record in (rec for outbox in outboxes for rec in outbox):
            inject[record[2]].append(record)
        for batch in inject:
            batch.sort(key=lambda rec: (rec[4], rec[1], rec[5]))
        rounds += 1
    reports = {runtime.region: runtime.collect() for runtime in runtimes}
    records = merge_records({r: reports[r]["records"] for r in reports})
    checksum = merged_checksum(records) if telemetry is not None else None
    return checksum, rounds, reports
