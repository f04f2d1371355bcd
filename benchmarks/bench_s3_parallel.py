"""S3-P — does sharding the simulation scale, and is it still the
same simulation?

The tentpole claims of ``repro.parallel`` under the bench harness:

* **throughput** — the 4-region star-ring scenario on one worker process
  per region (conservative-lookahead rounds over pipes) against the
  identical workload on the single-shard inline baseline; the committed
  claim (gated by ``check_bench_regression.py`` on hosts with >= 4
  cores) is **>= 2.5x events/sec**.  The artifact records ``cores`` so
  the gate can skip the speedup floor on starved runners (a 1-core
  container cannot demonstrate parallelism) while always enforcing the
  determinism claims.
* **determinism** — the merged telemetry checksum (per-region traces
  interleaved by sim-time, region-id, seq) must be byte-identical
  between the process backend, the single-shard baseline, repeated
  same-seed runs, and a run whose worker was SIGKILLed mid-flight and
  revived by deterministic replay.
* **overlap** — the neighbour-gated exchange must charge strictly fewer
  synchronization stalls than the ``R·(R-1)`` per round after the first
  that a full barrier would (each region waits only on its boundary
  neighbours, not on a global round).
* **memory** — every artifact records peak RSS and a tracemalloc
  bytes-per-node probe; the ``--large`` tier runs the memory-lean
  streaming scenario (columnar leaves, self-rescheduling workload
  streams) at >= 1M nodes / >= 10M messages and gates determinism on an
  order-invariant per-region delivery digest.

Full runs land in ``BENCH_parallel.json`` (folded into the PR-over-PR
dashboard and gated by ``check_bench_regression.py``); ``--smoke`` runs
default to the gitignored ``BENCH_parallel.smoke.json`` so short noisy
runs never replace the canonical artifact.  The million-node tier
writes ``BENCH_parallel_large.json`` (``--large``) or the gitignored
``BENCH_parallel_large.smoke.json`` (``--large-smoke``, CI-sized).
Run standalone::

    python benchmarks/bench_s3_parallel.py
        [--smoke | --large | --large-smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src"), str(_ROOT / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.events import Simulator
from repro.parallel import (
    ParallelSimulation,
    build_lean_star_region,
    build_star_region,
    lean_star_partition,
    star_ring_partition,
)

from conftest import fmt, peak_rss_mb, print_table, traced_bytes

DEFAULT_OUT = _ROOT / "BENCH_parallel.json"
SMOKE_OUT = _ROOT / "BENCH_parallel.smoke.json"
LARGE_OUT = _ROOT / "BENCH_parallel_large.json"
LARGE_SMOKE_OUT = _ROOT / "BENCH_parallel_large.smoke.json"

SEED = 11
TELEMETRY = {"sample_rate": 0.1, "seed": 7}

#: Scenario sizes: (leaves per region, messages per region, sim horizon).
SIZES = {
    "smoke": dict(leaves=4, messages=1_500, until=2.0),
    "full": dict(leaves=8, messages=20_000, until=10.0),
}
#: Memory-lean tier sizes; ``large`` is the committed million-node /
#: ten-million-message claim, ``large_smoke`` the CI-sized rehearsal.
LARGE_SIZES = {
    "large_smoke": dict(leaves=25_000, messages=100_000, until=10.0),
    "large": dict(leaves=250_000, messages=2_500_000, until=10.0),
}
REGIONS = 4
CROSS_FRACTION = 0.2
#: Lean tier: message m crosses a boundary iff m % CROSS_EVERY == 0.
CROSS_EVERY = 25
BOUNDARY_LATENCY = 0.05


def make_sim(size: dict) -> ParallelSimulation:
    partition = star_ring_partition(REGIONS, leaves=size["leaves"],
                                    boundary_latency=BOUNDARY_LATENCY)
    build = partial(build_star_region, leaves=size["leaves"],
                    messages=size["messages"], until=size["until"],
                    cross_fraction=CROSS_FRACTION)
    return ParallelSimulation(partition, build, seed=SEED,
                              telemetry=TELEMETRY)


def make_lean_sim(size: dict) -> ParallelSimulation:
    partition = lean_star_partition(REGIONS,
                                    boundary_latency=BOUNDARY_LATENCY)
    build = partial(build_lean_star_region, leaves=size["leaves"],
                    messages=size["messages"], until=size["until"],
                    cross_every=CROSS_EVERY)
    return ParallelSimulation(partition, build, seed=SEED)


def summarize(result) -> dict:
    return {
        "events_per_sec": result.events_per_sec,
        "executed": result.executed,
        "wall_s": result.wall_seconds,
        "rounds": result.rounds,
        "restarts": result.restarts,
        "sync_stalls": result.sync_stalls,
        "sent": result.stat("sent"),
        "delivered": result.stat("delivered"),
        "dropped": result.stat("dropped"),
        "checksum": result.checksum,
        "peak_rss_mb": peak_rss_mb(),
    }


def bytes_per_node_probes(size: dict) -> dict:
    """Tracemalloc probes: build ONE region's topology (no workload) and
    charge the traced heap to its node count.

    The classic builder materializes every leaf as Node + Link + routes;
    the lean builder keeps one ``array('I')`` slot per leaf — the ratio
    is the headline of the memory-lean fast path.  The probe needs
    enough leaves to amortize per-region constants (hub, boundaries,
    rng) or both readings degenerate to constants/leaves; tiny scenario
    tiers therefore probe at a floor leaf count — the builds are
    workload-free, so this stays cheap.
    """
    leaves = max(size["leaves"], 10_000)

    def classic() -> None:
        partition = star_ring_partition(REGIONS, leaves=leaves,
                                        boundary_latency=BOUNDARY_LATENCY)
        build_star_region(0, Simulator(), partition, SEED, leaves=leaves,
                          messages=0, until=1.0)

    def lean() -> None:
        partition = lean_star_partition(REGIONS,
                                        boundary_latency=BOUNDARY_LATENCY)
        build_lean_star_region(0, Simulator(), partition, SEED,
                               leaves=leaves, messages=0, until=1.0)

    nodes = leaves + 1  # one region: its leaves plus the hub
    return {
        "probe_leaves": leaves,
        "bytes_per_node_classic": round(traced_bytes(classic) / nodes, 1),
        "bytes_per_node": round(traced_bytes(lean) / nodes, 1),
    }


def run_suite(smoke: bool) -> dict:
    size = SIZES["smoke" if smoke else "full"]
    until = size["until"]

    single = make_sim(size).run(until=until, backend="inline")
    parallel = make_sim(size).run(until=until, backend="process")
    repeat = make_sim(size).run(until=until, backend="process")

    kill_at = max(1, parallel.rounds // 2)
    killed = []

    def chaos(psim, round_index, now):
        # after_round fires once per region round: kill only once.
        if round_index == kill_at and not killed:
            killed.append(round_index)
            psim.kill_worker(1)

    restarted = make_sim(size).run(until=until, backend="process",
                                   after_round=chaos)
    assert restarted.restarts == 1, "chaos hook did not trigger a restart"

    determinism = {
        "backends_match": parallel.checksum == single.checksum,
        "repeat_match": repeat.checksum == parallel.checksum,
        "restart_match": restarted.checksum == single.checksum,
    }
    speedup = (parallel.events_per_sec / single.events_per_sec
               if single.events_per_sec else 0.0)

    print_table(
        "S3-P sharded parallel simulation (4-region star ring)",
        ["run", "backend", "events", "events/sec", "stalls", "speedup",
         "checksum ok"],
        [
            ["single-shard", "inline", single.executed,
             f"{single.events_per_sec:,.0f}", single.sync_stalls,
             "baseline", "-"],
            ["parallel", "process", parallel.executed,
             f"{parallel.events_per_sec:,.0f}", parallel.sync_stalls,
             fmt(speedup, 2) + "x",
             "yes" if determinism["backends_match"] else "NO"],
            ["repeat", "process", repeat.executed,
             f"{repeat.events_per_sec:,.0f}", repeat.sync_stalls, "-",
             "yes" if determinism["repeat_match"] else "NO"],
            [f"kill@round {kill_at}", "process", restarted.executed,
             f"{restarted.events_per_sec:,.0f}", restarted.sync_stalls,
             "-", "yes" if determinism["restart_match"] else "NO"],
        ],
    )

    return {
        "bench": "s3_parallel",
        "mode": "smoke" if smoke else "full",
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "cores": os.cpu_count(),
        "scenario": {
            "regions": REGIONS,
            "workers": REGIONS,
            "cross_fraction": CROSS_FRACTION,
            "boundary_latency": BOUNDARY_LATENCY,
            "seed": SEED,
            "telemetry": TELEMETRY,
            **size,
        },
        "single_shard": summarize(single),
        "parallel": summarize(parallel),
        "restart": summarize(restarted),
        "speedup": speedup,
        "determinism": determinism,
        "memory": {
            "peak_rss_mb": peak_rss_mb(),
            **bytes_per_node_probes(size),
        },
    }


# ---------------------------------------------------------------------------
# Million-node tier: the memory-lean streaming scenario.
# ---------------------------------------------------------------------------


def digest_checksum(result) -> str:
    """Order-invariant determinism checksum for the lean scenario.

    The lean shard folds every delivery into a mod-2^64 digest keyed by
    (delivery time, origin region, message id, leaf); hashing the sorted
    per-region digests plus the traffic counters gives one hex string
    that must be byte-identical across backends — delivery *times* are
    a pure function of the workload even where trace record order is
    not.
    """
    rows = [
        (region,
         result.regions[region]["stats"]["digest"],
         result.regions[region]["stats"]["sent"],
         result.regions[region]["stats"]["delivered"],
         result.regions[region]["stats"]["dropped"],
         result.regions[region]["stats"]["forwarded_out"],
         result.regions[region]["stats"]["ingressed"])
        for region in sorted(result.regions)
    ]
    payload = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def summarize_large(result) -> dict:
    summary = summarize(result)
    summary["checksum"] = digest_checksum(result)
    return summary


def run_large_suite(smoke: bool) -> dict:
    size = LARGE_SIZES["large_smoke" if smoke else "large"]
    until = size["until"]
    nodes_total = REGIONS * (size["leaves"] + 1)
    messages_total = REGIONS * size["messages"]

    probes = bytes_per_node_probes(size)
    single = make_lean_sim(size).run(until=until, backend="inline")
    parallel = make_lean_sim(size).run(until=until, backend="process")
    repeat = make_lean_sim(size).run(until=until, backend="process")

    runs = {
        "single_shard": summarize_large(single),
        "parallel": summarize_large(parallel),
        "repeat": summarize_large(repeat),
    }
    base = runs["single_shard"]["checksum"]
    determinism = {
        "backends_match": runs["parallel"]["checksum"] == base,
        "repeat_match":
            runs["repeat"]["checksum"] == runs["parallel"]["checksum"],
        "zero_drops": all(run["dropped"] == 0 for run in runs.values()),
    }

    print_table(
        f"S3-P million-node tier ({nodes_total:,} nodes, "
        f"{messages_total:,} messages)",
        ["run", "backend", "events", "events/sec", "stalls", "peak MB",
         "checksum ok"],
        [
            [name,
             "inline" if name == "single_shard" else "process",
             run["executed"], f"{run['events_per_sec']:,.0f}",
             run["sync_stalls"], run["peak_rss_mb"],
             "-" if name == "single_shard" else
             ("yes" if run["checksum"] ==
              (runs["parallel"]["checksum"] if name == "repeat"
               else base) else "NO")]
            for name, run in runs.items()
        ],
    )
    print(f"bytes/node: lean {probes['bytes_per_node']} vs classic "
          f"{probes['bytes_per_node_classic']} "
          f"(probe at {probes['probe_leaves']:,} leaves/region)")

    return {
        "bench": "s3_parallel_large",
        "mode": "large_smoke" if smoke else "large",
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "cores": os.cpu_count(),
        "scenario": {
            "regions": REGIONS,
            "workers": REGIONS,
            "nodes_total": nodes_total,
            "messages_total": messages_total,
            "cross_every": CROSS_EVERY,
            "boundary_latency": BOUNDARY_LATENCY,
            "seed": SEED,
            **size,
        },
        **runs,
        "determinism": determinism,
        "memory": {
            "peak_rss_mb": peak_rss_mb(),
            **probes,
        },
    }


def write_results(results: dict, out: Path = DEFAULT_OUT) -> None:
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")


# ---------------------------------------------------------------------------
# pytest entry points (smoke-sized; determinism is asserted here because
# it must hold on any host — the speedup floor is only meaningful on
# multi-core machines and is gated on the full run by
# check_bench_regression.py, conditional on the recorded core count).
# ---------------------------------------------------------------------------

_CACHED_RESULTS: dict | None = None


def _results() -> dict:
    global _CACHED_RESULTS
    if _CACHED_RESULTS is None:
        _CACHED_RESULTS = run_suite(smoke=True)
        # Never the canonical path: pytest runs are smoke-sized and must
        # not clobber the gated full-mode artifact.
        write_results(_CACHED_RESULTS, SMOKE_OUT)
    return _CACHED_RESULTS


def test_s3_process_backend_matches_single_shard_checksum():
    results = _results()
    assert results["determinism"]["backends_match"], (
        results["parallel"]["checksum"], results["single_shard"]["checksum"])
    assert results["parallel"]["executed"] \
        == results["single_shard"]["executed"]


def test_s3_neighbour_gating_stalls_below_a_full_barrier():
    results = _results()
    run = results["parallel"]
    barrier = REGIONS * (REGIONS - 1) * (run["rounds"] - 1)
    assert 0 < run["sync_stalls"] < barrier


def test_s3_repeated_same_seed_runs_are_byte_stable():
    results = _results()
    assert results["determinism"]["repeat_match"]


def test_s3_killed_worker_revives_with_identical_checksum():
    results = _results()
    assert results["restart"]["restarts"] == 1
    assert results["determinism"]["restart_match"]


def test_s3_workload_is_delivered():
    results = _results()
    run = results["parallel"]
    assert run["sent"] == REGIONS * SIZES["smoke"]["messages"]
    assert run["delivered"] >= run["sent"] * 0.95
    assert run["dropped"] == 0


def test_s3_memory_metrics_recorded():
    results = _results()
    memory = results["memory"]
    assert memory["bytes_per_node"] > 0
    # The lean shard must be dramatically cheaper per node than the
    # object-per-leaf builder, and peak RSS must be a plausible reading.
    assert memory["bytes_per_node"] < memory["bytes_per_node_classic"] / 4
    assert memory["peak_rss_mb"] >= 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument("--smoke", action="store_true",
                      help="small sizes for CI smoke runs")
    tier.add_argument("--large", action="store_true",
                      help="million-node memory-lean tier (full size)")
    tier.add_argument("--large-smoke", action="store_true",
                      help="memory-lean tier at CI size (~100k nodes)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON results")
    cli = parser.parse_args()
    if cli.large or cli.large_smoke:
        suite = run_large_suite(smoke=cli.large_smoke)
        out = cli.out or (LARGE_SMOKE_OUT if cli.large_smoke else LARGE_OUT)
    else:
        suite = run_suite(smoke=cli.smoke)
        # Smoke runs land next to — never on top of — the canonical
        # full-mode artifact, which check_bench_regression.py gates on.
        out = cli.out or (SMOKE_OUT if cli.smoke else DEFAULT_OUT)
    write_results(suite, out)
