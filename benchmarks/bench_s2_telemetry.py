"""S2-T — what does observing the platform cost?

The telemetry layer's contract is "free when off, production-grade when
sampled, cheap when fully on":

* **kernel churn** — the S0 timeout-churn workload under seven modes:
  ``off`` (telemetry never installed), ``disabled`` (tracer installed
  but not recording — the production default), ``sampled_0.1pct`` /
  ``sampled_1pct`` / ``sampled_10pct`` (head-based probabilistic
  sampling with aggregate kernel hooks — the production *enabled*
  modes), ``aggregate`` (full-rate per-site stats) and ``events`` (full
  kernel timeline into the trace).  Measures events/sec per mode plus
  span-ring occupancy/drops for the sampled modes.
* **netsim storm** — a 2-hop message storm with lineage off, fully on,
  and sampled at 1%; measures messages/sec, verifies the span ledger
  (full mode: one flow span plus two hop segments per delivered
  message; sampled mode: two hops per *sampled* flow — traces are kept
  or dropped whole) and records peak span-buffer memory.

Every overhead is judged from interleaved off/on *pairs*: each mode runs
beside its baseline (``off``, or lineage off), the two runs taking turns
through the same slices of simulated time, and the reported overhead is
the median of the per-pair ratios, with their interquartile range beside
it.  A change of host speed lands on both sides of a pair alike, where a
ratio of two separate best-of runs absorbs it whole.

Determinism is asserted across modes (instrumentation must not perturb
event interleaving) and across repeated enabled runs: every full-rate
and every sampled storm must produce the byte-identical Chrome trace
checksum — sampling decisions come from a seeded stream.

Full runs land in ``BENCH_telemetry.json`` (the document
``benchmarks/dashboard.py`` folds PR-over-PR and
``check_bench_regression.py`` gates); ``--smoke`` runs default to the
gitignored ``BENCH_telemetry.smoke.json`` so short noisy runs never
replace the canonical artifact.  Run standalone::

    python benchmarks/bench_s2_telemetry.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src"), str(_ROOT / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro import Simulator, telemetry
from repro.events import PeriodicTimer
from repro.netsim.message import Message, MessageIdAllocator, use_allocator
from repro.netsim.topology import star

from bench_s0_kernel import ChurnDriver
from conftest import fmt, peak_rss_mb, print_table

DEFAULT_OUT = _ROOT / "BENCH_telemetry.json"
SMOKE_OUT = _ROOT / "BENCH_telemetry.smoke.json"

#: Seed for every sampled mode: decisions must replay run over run.
SAMPLING_SEED = 0

#: Off/on pairs per mode.  The modes tier-1 and check_bench_regression.py
#: judge get enough pairs for a stable median (storm runs are shorter, so
#: noisier, and cheaper); the others are reported only.
JUDGED_PAIRS = 9
STORM_PAIRS = 11
REPORTED_PAIRS = 3
JUDGED = ("disabled", "sampled_1pct")

#: Slices of simulated time the two sides of a pair take turns through.
SLICES = 40

#: mode → (enabled?, kernel detail, sampling rate or None for full).
MODES = {
    "off": None,
    "disabled": (False, None, None),
    "sampled_0.1pct": (True, "aggregate", 0.001),
    "sampled_1pct": (True, "aggregate", 0.01),
    "sampled_10pct": (True, "aggregate", 0.1),
    "aggregate": (True, "aggregate", None),
    "events": (True, "events", None),
}


class Side(NamedTuple):
    """One prepared, untimed run: ``sim`` is timed in slices over
    ``[0, span]``, then on to ``until`` (``None``: until no event is
    left); ``report(elapsed)`` checks the outcome and returns it."""

    sim: Simulator
    span: float
    until: float | None
    report: Callable[[float], dict]


def run_pair(index: int, off: Side, on: Side) -> tuple[dict, dict]:
    """Time an off and an on run side by side; return their reports.

    Both advance through the same :data:`SLICES` slices of simulated
    time, taking turns, so a change of host speed lands on both sides
    alike instead of on whichever runs second.  The side that runs a
    slice first alternates from slice to slice, starting with ``off``
    on even ``index``.  gc.collect() first keeps earlier runs' garbage
    off this pair's bill.
    """
    sides = (off, on)
    elapsed = [0.0, 0.0]
    gc.collect()
    for step in range(1, SLICES + 1):
        stop = off.span * step / SLICES if step < SLICES else off.until
        for side in ((0, 1) if (index + step) % 2 else (1, 0)):
            start = time.perf_counter()
            sides[side].sim.run(until=stop)
            elapsed[side] += time.perf_counter() - start
    return off.report(elapsed[0]), on.report(elapsed[1])


def paired_overhead(pairs: list[tuple[dict, dict]],
                    rate: str) -> tuple[float, float]:
    """Median and interquartile range, in percent, of how much slower
    the on side ran than the off side within each pair."""
    overheads = [(off[rate] / on[rate] - 1.0) * 100.0 for off, on in pairs]
    q1, _, q3 = statistics.quantiles(overheads, n=4)
    return statistics.median(overheads), q3 - q1


# ---------------------------------------------------------------------------
# Workload 1: kernel churn per telemetry mode.
# ---------------------------------------------------------------------------


def churn_side(sessions: int, mode: str) -> Side:
    """The churn workload under one telemetry mode, ready to time."""
    sim = Simulator()
    tracer = None
    if MODES[mode] is not None:
        enabled, detail, rate = MODES[mode]
        tracer = telemetry.install(sim, enabled=enabled,
                                   kernel_detail=detail,
                                   sample_rate=1.0 if rate is None else rate,
                                   seed=SAMPLING_SEED)
    workload = ChurnDriver(sim, sessions)
    scheduled = workload.load()
    PeriodicTimer(sim, 1.0, workload.poll, name="poller")

    def report(elapsed: float) -> dict:
        assert workload.completed == sessions and workload.timed_out == 0
        result = {
            "mode": mode,
            "scheduled_events": scheduled,
            "elapsed_s": elapsed,
            "events_per_sec": scheduled / elapsed,
            "checksum": workload.checksum,
        }
        if tracer is not None and tracer.kernel is not None:
            result["observed_events"] = tracer.kernel.events_seen
            result["sites"] = len(tracer.kernel.sites)
            result["drops"] = tracer.drops
            result["span_buffer_bytes"] = tracer.ring.nbytes
        return result

    until = workload.horizon + 10.0
    return Side(sim, until, until, report)


def run_churn(sessions: int) -> dict[str, dict]:
    """Every mode against ``off`` in :func:`run_pair` pairs, pair
    indices interleaved round-robin across modes so a burst of host
    load hits a few pairs of each mode, not all pairs of one.

    Returns per mode its first run, with ``events_per_sec`` replaced by
    the median over all its runs and, for every mode but ``off``, the
    paired ``overhead_pct`` and ``overhead_iqr_pct``.
    """
    pairs: dict[str, list[tuple[dict, dict]]] = {
        mode: [] for mode in MODES if mode != "off"}
    for index in range(JUDGED_PAIRS):
        for mode, done in pairs.items():
            if index < (JUDGED_PAIRS if mode in JUDGED else REPORTED_PAIRS):
                done.append(run_pair(index, churn_side(sessions, "off"),
                                     churn_side(sessions, mode)))
    runs = {"off": [off for done in pairs.values() for off, _ in done]}
    runs.update((mode, [on for _, on in done])
                for mode, done in pairs.items())
    summary = {}
    for mode, results in runs.items():
        summary[mode] = dict(results[0], events_per_sec=statistics.median(
            result["events_per_sec"] for result in results))
        # Telemetry must observe, never perturb: identical interleavings.
        for result in results:
            assert result["checksum"] == runs["off"][0]["checksum"], (
                f"telemetry mode {mode!r} changed the event interleaving")
    for mode, done in pairs.items():
        summary[mode]["overhead_pct"], summary[mode]["overhead_iqr_pct"] = \
            paired_overhead(done, "events_per_sec")
    return summary


# ---------------------------------------------------------------------------
# Workload 2: 2-hop message storm — lineage off, fully on, sampled.
# ---------------------------------------------------------------------------

#: Simulated seconds between two storm sends.
STORM_GAP = 0.0001


def storm_side(messages: int, traced: bool,
               rate: float | None = None) -> Side:
    """The storm with lineage off, fully on or sampled, ready to time.
    Every message is built here, so its id comes from this side's own
    allocator even while the other side of a pair runs in between."""
    use_allocator(MessageIdAllocator(1))  # ids appear in traces; must match
    sim = Simulator()
    tracer = None
    if traced:
        # Full-rate lineage keeps 3 spans per message (flow + 2 hops):
        # size the ring to hold the whole run so the ledger assertion
        # below stays meaningful.  Sampled runs fit the default ring.
        capacity = (telemetry.DEFAULT_CAPACITY if rate is not None
                    else max(telemetry.DEFAULT_CAPACITY, 4 * messages))
        tracer = telemetry.install(sim, kernel_detail=None,
                                   sample_rate=1.0 if rate is None else rate,
                                   seed=SAMPLING_SEED, ring_slots=capacity)
    net = star(sim, leaves=4)
    delivered = []
    for i in range(4):
        net.node(f"leaf{i}").bind_endpoint(
            "svc", lambda node, message: delivered.append(message.msg_id)
        )
    # leaf→leaf traffic: every message crosses two links through the hub.
    items = []
    for i in range(messages):
        source, dest = f"leaf{i % 4}", f"leaf{(i + 1) % 4}"
        items.append((STORM_GAP * i, net.send,
                      (Message(source, dest, "svc", size=256),)))
    sim.schedule_many(items, absolute=True)

    def report(elapsed: float) -> dict:
        assert len(delivered) == messages
        result = {
            "messages": messages,
            "elapsed_s": elapsed,
            "messages_per_sec": messages / elapsed,
        }
        if tracer is None:
            return result
        flows = hops = 0
        for span in tracer.ring:
            if span.category == "net.msg":
                flows += 1
            elif span.category == "net.hop":
                hops += 1
        if rate is None:
            assert tracer.drops == 0, (tracer.drops, "full-rate ring wrapped")
            assert flows == messages, (flows, messages)
            assert hops == 2 * messages, (hops, messages)
        else:
            # Head sampling keeps or drops traces whole: every sampled
            # flow still carries both of its hop segments.
            assert hops == 2 * flows, (hops, flows)
            assert 0 < flows < messages, (flows, messages)
        result["flow_spans"] = flows
        result["hop_spans"] = hops
        result["drops"] = tracer.drops
        result["span_buffer_bytes"] = tracer.ring.nbytes
        result["categories"] = telemetry.category_stats(tracer)
        result["checksum"] = telemetry.trace_checksum(tracer)
        return result

    return Side(sim, STORM_GAP * messages, None, report)


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------


def run_suite(smoke: bool) -> dict:
    sessions = 20_000 if smoke else 150_000
    messages = 4_000 if smoke else 40_000
    sampled_rate = 0.01

    churn = run_churn(sessions)
    baseline_checksum = churn["off"]["checksum"]

    # Storms: lineage fully on and sampled, each against lineage off in
    # run_pair pairs, pair indices interleaved as in the churn.  The
    # repeats double as the determinism witness: every full and every
    # sampled trace must checksum identically.
    full: list[tuple[dict, dict]] = []
    sampled: list[tuple[dict, dict]] = []
    for index in range(STORM_PAIRS):
        if index < REPORTED_PAIRS:
            full.append(run_pair(index, storm_side(messages, traced=False),
                                 storm_side(messages, traced=True)))
        sampled.append(run_pair(
            index, storm_side(messages, traced=False),
            storm_side(messages, traced=True, rate=sampled_rate)))
    storm_on, storm_sampled = full[0][1], sampled[0][1]
    for _, on in full:
        assert on["checksum"] == storm_on["checksum"], (
            "lineage trace is not deterministic across identical runs"
        )
    for _, on in sampled:
        assert on["checksum"] == storm_sampled["checksum"], (
            "sampled lineage trace is not deterministic across "
            "same-seed runs"
        )

    def median_rate(runs):
        return statistics.median(run["messages_per_sec"] for run in runs)

    storm_off_rate = median_rate([off for off, _ in full + sampled])
    storm_on_rate = median_rate([on for _, on in full])
    storm_sampled_rate = median_rate([on for _, on in sampled])
    storm_overhead, storm_overhead_iqr = paired_overhead(
        full, "messages_per_sec")
    storm_overhead_sampled, storm_overhead_sampled_iqr = paired_overhead(
        sampled, "messages_per_sec")
    overhead = {mode: result["overhead_pct"]
                for mode, result in churn.items() if mode != "off"}

    print_table(
        "S2-T kernel churn under telemetry modes (median of off/on pairs)",
        ["mode", "events", "events/sec", "overhead", "IQR", "observed"],
        [[mode,
          result["scheduled_events"],
          f"{result['events_per_sec']:,.0f}",
          "baseline" if mode == "off" else fmt(overhead[mode], 1) + "%",
          "-" if mode == "off" else fmt(result["overhead_iqr_pct"], 1),
          result.get("observed_events", "-")]
         for mode, result in churn.items()],
    )
    print_table(
        "S2-T netsim 2-hop message storm (lineage, median of off/on pairs)",
        ["lineage", "messages", "messages/sec", "overhead", "IQR",
         "flows kept"],
        [
            ["off", messages, f"{storm_off_rate:,.0f}", "baseline", "-",
             "-"],
            ["full", messages, f"{storm_on_rate:,.0f}",
             fmt(storm_overhead, 1) + "%", fmt(storm_overhead_iqr, 1),
             storm_on["flow_spans"]],
            [f"sampled {sampled_rate:.0%}", messages,
             f"{storm_sampled_rate:,.0f}",
             fmt(storm_overhead_sampled, 1) + "%",
             fmt(storm_overhead_sampled_iqr, 1),
             storm_sampled["flow_spans"]],
        ],
    )

    return {
        "bench": "s2_telemetry",
        "mode": "smoke" if smoke else "full",
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "sampling": {"rate": sampled_rate, "seed": SAMPLING_SEED},
        "pairs": {"judged": JUDGED_PAIRS, "storm": STORM_PAIRS,
                  "reported": REPORTED_PAIRS},
        "kernel": {
            "scheduled_events": churn["off"]["scheduled_events"],
            "events_per_sec": {mode: result["events_per_sec"]
                               for mode, result in churn.items()},
            "overhead_pct": overhead,
            "overhead_iqr_pct": {mode: result["overhead_iqr_pct"]
                                 for mode, result in churn.items()
                                 if mode != "off"},
            "observed_events": {
                mode: result["observed_events"]
                for mode, result in churn.items()
                if "observed_events" in result},
            "trace_checksum": baseline_checksum,
        },
        "netsim": {
            "messages": messages,
            "messages_per_sec_off": storm_off_rate,
            "messages_per_sec_on": storm_on_rate,
            "messages_per_sec_sampled": storm_sampled_rate,
            "overhead_pct": storm_overhead,
            "overhead_pct_sampled": storm_overhead_sampled,
            "overhead_iqr_pct": storm_overhead_iqr,
            "overhead_iqr_pct_sampled": storm_overhead_sampled_iqr,
            "flow_spans": storm_on["flow_spans"],
            "hop_spans": storm_on["hop_spans"],
            "sampled_flow_spans": storm_sampled["flow_spans"],
            "sampled_hop_spans": storm_sampled["hop_spans"],
            "chrome_checksum": storm_on["checksum"],
            "sampled_chrome_checksum": storm_sampled["checksum"],
        },
        "categories": storm_sampled["categories"],
        "drops": storm_sampled["drops"],
        "span_buffer_bytes": max(storm_on["span_buffer_bytes"],
                                 storm_sampled["span_buffer_bytes"]),
        "memory": {"peak_rss_mb": peak_rss_mb()},
    }


def write_results(results: dict, out: Path = DEFAULT_OUT) -> None:
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")


# ---------------------------------------------------------------------------
# pytest entry points (smoke-sized; lenient floors so shared-runner noise
# cannot flake them — the stricter numbers are gated on the full run by
# check_bench_regression.py, not asserted here).
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


def test_s2_disabled_telemetry_is_free():
    results = _results()
    # A tracer that is installed-but-disabled must ride the same fast
    # path as never-installed (both skip hooks entirely); 10% headroom
    # absorbs scheduler noise on shared CI runners.
    assert results["kernel"]["overhead_pct"]["disabled"] < 10.0


def test_s2_sampled_telemetry_is_production_grade():
    results = _results()
    # The acceptance bar is <10% at 1% sampling on a quiet machine; the
    # pytest floor is looser so shared-runner noise cannot flake tier-1.
    assert results["kernel"]["overhead_pct"]["sampled_1pct"] < 25.0
    assert results["netsim"]["overhead_pct_sampled"] < 25.0
    # Sampled runs must never wrap the default ring on this workload.
    assert results["drops"] == 0


def test_s2_enabled_lineage_complete_and_deterministic():
    results = _results()
    # run_suite asserted checksum stability; re-check the span ledger.
    netsim = results["netsim"]
    assert netsim["flow_spans"] == netsim["messages"]
    assert netsim["hop_spans"] == 2 * netsim["messages"]
    # Sampled lineage keeps traces whole: two hops per surviving flow.
    assert netsim["sampled_hop_spans"] == 2 * netsim["sampled_flow_spans"]
    assert 0 < netsim["sampled_flow_spans"] < netsim["messages"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON results")
    cli = parser.parse_args()
    suite = run_suite(smoke=cli.smoke)
    # Smoke runs land next to — never on top of — the canonical full-mode
    # artifact, which is what check_bench_regression.py gates on.
    out = cli.out or (SMOKE_OUT if cli.smoke else DEFAULT_OUT)
    write_results(suite, out)
