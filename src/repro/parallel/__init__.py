"""Sharded parallel simulation with conservative lookahead.

The scalability story for the simulation substrate: partition the
topology into regions (:class:`~repro.netsim.Partition`), give each
region its own event queue in its own worker process, and synchronize
conservatively — the minimum cross-region link latency is the safe
horizon, so regions exchange boundary messages only between rounds and
never see an event out of order.

The same per-region code runs under two backends (``"process"`` workers
over pipes, or the ``"inline"`` single-shard baseline) and one exchange
engine: each region starts its next round as soon as its boundary
*neighbours* allow, so rounds pipeline around the region graph with no
global barrier.  Per-region telemetry merges deterministically by
(sim-time, region-id, seq), and a killed worker is revived by replaying
its command history — all paths produce byte-identical merged trace
checksums for the same seed.  The memory-lean scenario
(:func:`build_lean_star_region`) scales the same ring-of-stars workload
to millions of leaves with columnar per-leaf state and an
order-invariant delivery digest.

Quick start::

    from repro.netsim import Partition
    from repro.parallel import ParallelSimulation

    partition = Partition(4)
    ...  # assign nodes, add boundaries
    psim = ParallelSimulation(partition, build_region, seed=7,
                              telemetry={"sample_rate": 0.1})
    result = psim.run(until=10.0, backend="process")
    result.events_per_sec, result.checksum, result.stat("delivered")
"""

from repro.parallel.coordinator import (
    ParallelResult,
    ParallelSimulation,
    SupervisionPolicy,
)
from repro.parallel.runtime import (
    MSG_ID_STRIDE,
    RegionRuntime,
    worker_main,
)
from repro.parallel.scenario import (
    LeanStarRegion,
    build_lean_star_region,
    build_star_region,
    lean_star_partition,
    star_ring_partition,
)

__all__ = [
    "MSG_ID_STRIDE",
    "LeanStarRegion",
    "ParallelResult",
    "ParallelSimulation",
    "RegionRuntime",
    "SupervisionPolicy",
    "build_lean_star_region",
    "build_star_region",
    "lean_star_partition",
    "star_ring_partition",
    "worker_main",
]
