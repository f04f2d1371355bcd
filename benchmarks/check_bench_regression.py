"""CI gate: fail the build when a benchmark regresses below its floor.

Reads the JSON artifacts the bench suites write and enforces the
committed performance claims:

* ``BENCH_kernel.json`` — the S0 kernel/QoS speedups over the seed
  implementations must stay above their floors (the same floors
  ``bench_s0_kernel.py`` asserts in its pytest entries).
* ``BENCH_telemetry.json`` (optional) — telemetry that is installed but
  disabled must stay near-free on the kernel hot path (<5%), sampled
  telemetry at 1% must stay production-grade (<10% on both the kernel
  churn and the netsim lineage storm), and the sampled run must not
  have wrapped the default span ring (zero drops).
* ``BENCH_parallel.json`` (optional) — the sharded run must be the same
  simulation: merged trace checksums identical across the process
  backend, the single-shard baseline, repeated same-seed runs and a
  killed-and-replayed worker; the neighbour-gated process run must
  charge *strictly fewer* synchronization stalls than the
  ``R·(R-1)·(rounds-1)`` a full barrier would.  The >= 2.5x events/sec
  speedup floor is enforced only when the artifact was produced on a
  host with >= 4 cores — a starved runner cannot demonstrate
  parallelism, but it can still demonstrate determinism.
* ``BENCH_parallel_large.json`` (optional) — the memory-lean
  million-node tier: per-region delivery digests identical across
  backends and repeats, zero drops, and the tracemalloc
  bytes-per-node probe under its ceiling.  The >= 1M nodes / >= 10M
  messages scenario floors apply only to ``mode == "large"`` artifacts
  (the CI-sized ``large_smoke`` rehearsal keeps the determinism and
  memory floors).

Exit status 0 = all floors held; 1 = regression (or missing/garbled
required artifact).  Run::

    python benchmarks/check_bench_regression.py [--kernel PATH]
        [--telemetry PATH] [--parallel PATH] [--parallel-large PATH]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: (artifact, dotted-path, floor, direction) — one row per claim.
#: direction "min" means value must be >= floor; "max" means <= floor.
FLOORS = [
    ("kernel", "events.speedup", 1.5, "min",
     "event-churn speedup over seed kernel"),
    ("kernel", "qos.speedup", 2.5, "min",
     "QoS statistics speedup over seed implementation"),
    ("telemetry", "kernel.overhead_pct.disabled", 5.0, "max",
     "kernel overhead in mode 'disabled' — installed but not "
     "recording (%)"),
    ("telemetry", "kernel.overhead_pct.sampled_1pct", 10.0, "max",
     "kernel overhead in mode 'sampled_1pct' — enabled, 1% head "
     "sampling (%)"),
    ("telemetry", "netsim.overhead_pct_sampled", 10.0, "max",
     "netsim lineage overhead in mode 'sampled 1%' (%)"),
    ("telemetry", "drops", 0, "max",
     "span-ring drops in mode 'sampled_1pct' at default capacity"),
    ("parallel", "determinism.backends_match", 1, "min",
     "merged trace checksum: process backend == single-shard baseline"),
    ("parallel", "determinism.repeat_match", 1, "min",
     "merged trace checksum byte-stable across same-seed parallel runs"),
    ("parallel", "determinism.restart_match", 1, "min",
     "merged trace checksum preserved across a killed-worker replay"),
    ("parallel", "restart.restarts", 1, "min",
     "the chaos run actually killed and revived a worker"),
    ("parallel_large", "determinism.backends_match", 1, "min",
     "lean-tier delivery digest: process backend == single-shard"),
    ("parallel_large", "determinism.repeat_match", 1, "min",
     "lean-tier delivery digest byte-stable across same-seed "
     "process runs"),
    ("parallel_large", "determinism.zero_drops", 1, "min",
     "lean tier delivers every message (no drops in any run)"),
    ("parallel_large", "memory.bytes_per_node", 64.0, "max",
     "memory-lean scenario traced bytes per node (probe reads ~9)"),
]

#: Enforced only when the parallel artifact reports enough cores.
PARALLEL_SPEEDUP_FLOOR = 2.5
PARALLEL_MIN_CORES = 4
#: Million-node tier scenario floors, applied to mode == "large" only.
LARGE_MIN_NODES = 1_000_000
LARGE_MIN_MESSAGES = 10_000_000


def lookup(data: dict, dotted: str):
    value = data
    for key in dotted.split("."):
        value = value[key]
    return value


def check(kernel_path: Path, telemetry_path: Path,
          parallel_path: Path, parallel_large_path: Path) -> int:
    artifacts = {}
    if not kernel_path.exists():
        print(f"FAIL  required artifact missing: {kernel_path}")
        return 1
    artifacts["kernel"] = json.loads(kernel_path.read_text())
    if telemetry_path.exists():
        artifacts["telemetry"] = json.loads(telemetry_path.read_text())
    else:
        print(f"note  {telemetry_path} not found; telemetry floors skipped")
    if parallel_path.exists():
        artifacts["parallel"] = json.loads(parallel_path.read_text())
    else:
        print(f"note  {parallel_path} not found; parallel floors skipped")
    if parallel_large_path.exists():
        artifacts["parallel_large"] = json.loads(
            parallel_large_path.read_text())
    else:
        print(f"note  {parallel_large_path} not found; million-node "
              f"floors skipped")

    floors = list(FLOORS)
    parallel = artifacts.get("parallel")
    if parallel is not None:
        cores = parallel.get("cores") or 0
        if cores >= PARALLEL_MIN_CORES:
            floors.append(
                ("parallel", "speedup", PARALLEL_SPEEDUP_FLOOR, "min",
                 f"parallel events/sec over single-shard baseline "
                 f"({cores} cores)"))
        else:
            print(f"note  parallel artifact from a {cores}-core host; "
                  f"speedup floor ({PARALLEL_SPEEDUP_FLOOR}x) needs "
                  f">= {PARALLEL_MIN_CORES} cores and is skipped — "
                  f"determinism floors still apply")
        regions = parallel.get("scenario", {}).get("regions")
        rounds = parallel.get("parallel", {}).get("rounds")
        if regions and rounds:
            # Strictly fewer than a full barrier, where every region
            # waits on every other each round after the first.
            barrier_stalls = regions * (regions - 1) * (rounds - 1)
            floors.append(
                ("parallel", "parallel.sync_stalls",
                 barrier_stalls - 1, "max",
                 f"neighbour-gated sync stalls strictly below a full "
                 f"barrier's {barrier_stalls}"))
    large = artifacts.get("parallel_large")
    if large is not None and large.get("mode") == "large":
        floors.append(
            ("parallel_large", "scenario.nodes_total",
             LARGE_MIN_NODES, "min",
             "million-node tier simulates >= 1M nodes"))
        floors.append(
            ("parallel_large", "scenario.messages_total",
             LARGE_MIN_MESSAGES, "min",
             "million-node tier pushes >= 10M messages"))

    failures = 0
    for artifact, dotted, floor, direction, claim in floors:
        data = artifacts.get(artifact)
        if data is None:
            continue
        try:
            value = lookup(data, dotted)
        except KeyError:
            print(f"FAIL  {artifact}:{dotted} missing — {claim}")
            failures += 1
            continue
        ok = value >= floor if direction == "min" else value <= floor
        bound = ">=" if direction == "min" else "<="
        status = "ok  " if ok else "FAIL"
        print(f"{status}  {artifact}:{dotted} = {value:.3f} "
              f"(floor {bound} {floor}) — {claim}")
        if not ok:
            failures += 1

    if failures:
        print(f"\n{failures} benchmark floor(s) violated")
        return 1
    print("\nall benchmark floors held")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kernel", type=Path,
                        default=_ROOT / "BENCH_kernel.json")
    parser.add_argument("--telemetry", type=Path,
                        default=_ROOT / "BENCH_telemetry.json")
    parser.add_argument("--parallel", type=Path,
                        default=_ROOT / "BENCH_parallel.json")
    parser.add_argument("--parallel-large", type=Path,
                        default=_ROOT / "BENCH_parallel_large.json")
    cli = parser.parse_args(argv)
    return check(cli.kernel, cli.telemetry, cli.parallel,
                 cli.parallel_large)


if __name__ == "__main__":
    sys.exit(main())
