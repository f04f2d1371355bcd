"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload figure1_request --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs half the time untraced and half traced and prints
every per-layer metric.  The last stdout line is the JSON result; the
lines before it say what was run and checked.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = {
    "figure1_request": "wl_figure1",
    "reconfig_journal": "wl_reconfig",
    "sharded_ring": "wl_sharded",
}

#: Independent set-ups per run; ``setup_s`` reports their median.
SETUP_SAMPLES = 3

#: Times the workload is also imported in a fresh interpreter, beside
#: this process's own import; ``setup_s`` counts their median.
IMPORT_PROBES = 2


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="fail unless the outputs hash to this digest")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import harness

    factor = harness.host_factor()
    start = perf_counter()
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = perf_counter() - start
    plan = workload.prepare(args.seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        begin = perf_counter()
        workload.setup_probe(plan)
        samples.append(perf_counter() - begin)
    factor = (factor + harness.host_factor()) / 2
    import_s /= factor
    samples = [sample / factor for sample in samples]
    print(f"{args.workload} seed={args.seed}: host factor {factor:.3f}, "
          f"scaled import {import_s:.3f}s, set-up samples "
          f"{[round(s, 4) for s in samples]}")

    problems: list[str] = []
    values: dict[str, float] = {}
    attempted = failed = 0
    try:
        if args.trace:
            phase, values = traced_run(harness, workload, plan, args)
        else:
            phase = harness.timed_phase(
                lambda: workload.run_cycle(plan, None), args.seconds)
            values = end_to_end(harness, phase)
            imports = [import_s] + [import_seconds(WORKLOADS[args.workload])
                                    for _ in range(IMPORT_PROBES)]
            values["setup_s"] = (statistics.median(imports)
                                 + statistics.median(samples))
            print(f"import samples {[round(s, 4) for s in imports]}")
        attempted, failed = phase.ops, phase.failed
        for index, cycle in enumerate(phase.cycles):
            problems += [f"cycle {index}: {text}" for text in cycle.problems]
        output_digest = harness.check_outputs(phase.cycles,
                                              args.expect_digest)
        run_drift = harness.drift(phase.scaled_op_times)
        print(f"{args.workload}: {len(phase.cycles)} cycles, {phase.ops} ops "
              f"in {phase.wall:.3f}s, host factors "
              f"{min(c.factor for c in phase.cycles):.2f}-"
              f"{max(c.factor for c in phase.cycles):.2f}, drift "
              f"{run_drift:.3f} (within cycles "
              f"{harness.cycle_drift(phase.cycles):.3f}), output digest "
              f"{output_digest}")
    except Exception as exc:  # noqa: BLE001 - any escape fails the run
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
        attempted, failed = max(attempted, 1), max(failed, 1)
    for problem in problems:
        print(f"CHECK FAILED {problem}")
    correct = not problems and failed == 0
    group = "per_layer" if args.trace else "end_to_end"
    if not correct:
        values = {name: values.get(name, 0.0)
                  for name in harness.metric_names(group)}
    print(harness.result_line(correct, attempted, failed, values, group))
    return 0 if correct else 1


def import_seconds(module: str) -> float:
    """Host time to import ``module`` in a fresh interpreter, scaled to
    the nominal host speed by probes either side of it."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
            "import harness; factor = harness.host_factor(); "
            f"start = time.perf_counter(); import {module}; "
            "elapsed = time.perf_counter() - start; "
            "print(2 * elapsed / (factor + harness.host_factor()))")
    done = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.split()[-1])


def end_to_end(harness, phase) -> dict[str, float]:
    """Throughput and op times over the faster half of the cycles, at the
    nominal host speed (the p99 as the median of each cycle's p99); peak
    memory before any probe process runs."""
    steady = phase.steady()
    times = steady.scaled_op_times
    p99 = harness.cycle_tail_quantile(steady.cycles)
    print(f"op samples: {len(times)} in the faster {len(steady.cycles)} of "
          f"{len(phase.cycles)} cycles")
    return {
        "ops_per_s": steady.ops_per_s,
        "op_p50_us": statistics.median(times) * 1e6,
        "op_p99_us": p99 * 1e6,
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def traced_run(harness, workload, plan, args):
    """Half the time untraced, half traced; per-layer metrics from the
    traced half, tracing overhead from the ratio of the two."""
    half = args.seconds / 2.0
    untraced = harness.timed_phase(lambda: workload.run_cycle(plan, None),
                                   half)
    spans = harness.Spans(workload.TRACED_DURATIONS)
    traced = harness.timed_phase(lambda: workload.run_cycle(plan, spans),
                                 half, spans)
    layers, unaccounted = spans.reconcile(traced.wall)
    spans.write_log(harness.TRACE_DIR / f"spans-{args.workload}-"
                                        f"{args.seed}.jsonl")
    counts = traced.cycles[0].counts
    for index, cycle in enumerate(traced.cycles):
        if cycle.counts != counts:
            raise harness.CheckFailed(
                f"traced cycle {index} counts differ from cycle 0")
    values = dict(counts)
    values.update(workload.layer_times(spans, traced))
    values["trace.overhead"] = (traced.steady().ops_per_s
                                / untraced.steady().ops_per_s)
    values["trace.unaccounted"] = unaccounted
    names = set(harness.metric_names("per_layer"))
    unknown = sorted(set(values) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    print("layer self seconds: " + ", ".join(
        f"{layer}={seconds:.3f}" for layer, seconds in sorted(layers.items()))
        + f"; unaccounted {unaccounted:.3%} of {traced.wall:.3f}s")
    # A layer this workload bypasses did no work: its metrics read 0.
    values = {name: values.get(name, 0.0) for name in names}
    return harness.Phase(untraced.cycles + traced.cycles), values


if __name__ == "__main__":
    sys.exit(main())
