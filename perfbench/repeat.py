"""Steadiness check: repeat the benchmark and report the spread.

Runs ``run.py`` once per seed for each workload, then prints, per metric
and workload, the median, the quartiles and the spread — the distance
between the first and third quartile as a share of the median, the way
``statistics.quantiles(values, n=4)`` gives them.  A metric whose spread
exceeds its bound in BENCHMARK.json is flagged ``OVER``, one above a
third of it ``WIDE``.  A run is flagged ``DRIFT`` when its median op
time grew from the first to the last quarter of the run by more than
:data:`RUN_DRIFT_LIMIT` (op times scaled to the nominal host speed), or
within its cycles (median over cycles) by more than
:data:`CYCLE_DRIFT_LIMIT`.  With ``--sets 2`` the whole series runs twice and
the second median is compared with the first, as an acceptance check
does.  Run from the root of a checkout::

    python3 perfbench/repeat.py --seeds 1-10 --seconds 20
    python3 perfbench/repeat.py --workloads sharded_ring --seeds 1-5
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DRIFT_LIMIT = 1.25
CYCLE_DRIFT_LIMIT = 1.15


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    match = re.search(r"drift (\d+\.\d+) \(within cycles (\d+\.\d+)\)",
                      done.stdout)
    result["drift"], result["cycle_drift"] = (
        (float(match.group(1)), float(match.group(2))) if match
        else (1.0, 1.0))
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(
        entry["name"] for entry in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="also write every result as JSON")
    args = parser.parse_args(argv)
    group = "per_layer" if args.trace else "end_to_end"
    bounds = {entry["name"]: (entry.get("bound"), entry["better"])
              for entry in spec[group]}
    seeds = seed_list(args.seeds)
    raw: dict[str, list[list[dict]]] = {}
    flagged = 0
    for workload in args.workloads.split(","):
        raw[workload] = []
        for set_index in range(args.sets):
            results = []
            for seed in seeds:
                result = run_once(workload, seed, args.seconds, args.trace)
                results.append(result)
                state = "ok" if result["correct"] else "INCORRECT"
                flagged += not result["correct"]
                drifting = (result["drift"] > RUN_DRIFT_LIMIT
                            or result["cycle_drift"] > CYCLE_DRIFT_LIMIT)
                flagged += drifting
                print(f"{workload} set {set_index} seed {seed}: {state}, "
                      f"drift {result['drift']:.3f} (within cycles "
                      f"{result['cycle_drift']:.3f})"
                      + (" DRIFT" if drifting else ""), flush=True)
            raw[workload].append(results)
        flagged += report(workload, raw[workload], bounds)
    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    print(f"{flagged} flag(s)")
    return 1 if flagged else 0


def report(workload: str, sets: list[list[dict]],
           bounds: dict[str, tuple[float | None, str]]) -> int:
    """Print one row per metric and set; return how many were flagged."""
    flagged = 0
    medians: dict[str, list[float]] = {}
    for set_index, results in enumerate(sets):
        for name, (bound, _better) in bounds.items():
            values = [result["metrics"][name]["value"] for result in results]
            median, q1, q3, share = spread(values)
            medians.setdefault(name, []).append(median)
            mark = ""
            if bound is not None and name != "setup_s":
                if share > bound:
                    mark, flagged = "OVER", flagged + 1
                elif share > bound / 3:
                    mark = "WIDE"
            print(f"  {workload:17} set {set_index} {name:27} "
                  f"median {median:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                  f"spread {share:7.2%}  bound {bound} {mark}")
    for name, values in medians.items():
        bound, better = bounds[name]
        if bound is None or len(values) < 2:
            continue
        first, last = values[0], values[-1]
        worse = (last - first) / first if better == "lower" else \
            (first - last) / first
        mark = ""
        if worse > bound:
            mark, flagged = "WORSE", flagged + 1
        print(f"  {workload:17} {name:27} second median worse by "
              f"{worse:7.2%} (bound {bound}) {mark}")
    return flagged


if __name__ == "__main__":
    sys.exit(main())
