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

Determinism is asserted across modes (instrumentation must not perturb
event interleaving) and across repeated enabled runs: full-rate and
sampled storms are each run twice and must produce byte-identical
Chrome trace checksums — sampling decisions come from a seeded stream.

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
import sys
import time
from pathlib import Path

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


# ---------------------------------------------------------------------------
# Workload 1: kernel churn per telemetry mode.
# ---------------------------------------------------------------------------


def run_churn_once(sessions: int, mode: str) -> dict:
    """One churn run under one telemetry mode."""
    sim = Simulator()
    tracer = None
    if MODES[mode] is not None:
        enabled, detail, rate = MODES[mode]
        tracer = telemetry.install(sim, enabled=enabled,
                                   kernel_detail=detail,
                                   sample_rate=1.0 if rate is None else rate,
                                   seed=SAMPLING_SEED)
    driver = ChurnDriver(sim, sessions)
    scheduled = driver.load()
    PeriodicTimer(sim, 1.0, driver.poll, name="poller")
    gc.collect()
    start = time.perf_counter()
    sim.run(until=driver.horizon + 10.0)
    elapsed = time.perf_counter() - start
    assert driver.completed == sessions and driver.timed_out == 0
    result = {
        "mode": mode,
        "scheduled_events": scheduled,
        "elapsed_s": elapsed,
        "events_per_sec": scheduled / elapsed,
        "checksum": driver.checksum,
    }
    if tracer is not None and tracer.kernel is not None:
        result["observed_events"] = tracer.kernel.events_seen
        result["sites"] = len(tracer.kernel.sites)
        result["drops"] = tracer.drops
        result["span_buffer_bytes"] = tracer.ring.nbytes
    return result


def run_churn(sessions: int, repeats: int = 3) -> dict[str, dict]:
    """Best-of-``repeats`` per mode, with the repeats *interleaved*
    round-robin across modes: host-speed drift over the suite (frequency
    scaling, noisy neighbours) then biases every mode equally instead of
    whichever mode happened to run last.  gc.collect() before each timed
    run keeps earlier modes' garbage off later modes' bill.
    """
    best: dict[str, dict] = {}
    for _ in range(repeats):
        for mode in MODES:
            result = run_churn_once(sessions, mode)
            if (mode not in best
                    or result["events_per_sec"]
                    > best[mode]["events_per_sec"]):
                best[mode] = result
    return best


# ---------------------------------------------------------------------------
# Workload 2: 2-hop message storm — lineage off, fully on, sampled.
# ---------------------------------------------------------------------------


def run_storm_mode(messages: int, traced: bool,
                   rate: float | None = None) -> dict:
    use_allocator(MessageIdAllocator(1))  # ids appear in traces; must match
    gc.collect()
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
        t = 0.0001 * i
        source, dest = f"leaf{i % 4}", f"leaf{(i + 1) % 4}"
        items.append((t, net.send,
                      (Message(source, dest, "svc", size=256),)))
    sim.schedule_many(items, absolute=True)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert len(delivered) == messages
    result = {
        "messages": messages,
        "elapsed_s": elapsed,
        "messages_per_sec": messages / elapsed,
    }
    if tracer is not None:
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


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------


def run_suite(smoke: bool) -> dict:
    sessions = 20_000 if smoke else 150_000
    messages = 4_000 if smoke else 40_000
    sampled_rate = 0.01

    # Full runs take more rounds: the <5% disabled gate needs the best-of
    # to actually reach the drift-free floor.
    churn = run_churn(sessions, repeats=3 if smoke else 5)
    # Telemetry must observe, never perturb: identical interleavings.
    baseline_checksum = churn["off"]["checksum"]
    for mode, result in churn.items():
        assert result["checksum"] == baseline_checksum, (
            f"telemetry mode {mode!r} changed the event interleaving"
        )

    # Storms: best-of-2 per lineage mode, rounds interleaved (same drift
    # argument as the churn); the repeat doubles as the determinism
    # witness — both full and sampled traces must checksum identically
    # across the rounds.
    storm_off = storm_on = storm_sampled = None
    for _ in range(2):
        round_off = run_storm_mode(messages, traced=False)
        if (storm_off is None or round_off["messages_per_sec"]
                > storm_off["messages_per_sec"]):
            storm_off = round_off
        round_on = run_storm_mode(messages, traced=True)
        if storm_on is not None:
            assert round_on["checksum"] == storm_on["checksum"], (
                "lineage trace is not deterministic across identical runs"
            )
        if (storm_on is None or round_on["messages_per_sec"]
                > storm_on["messages_per_sec"]):
            storm_on = round_on
        round_sampled = run_storm_mode(messages, traced=True,
                                       rate=sampled_rate)
        if storm_sampled is not None:
            assert round_sampled["checksum"] == storm_sampled["checksum"], (
                "sampled lineage trace is not deterministic across "
                "same-seed runs"
            )
        if (storm_sampled is None or round_sampled["messages_per_sec"]
                > storm_sampled["messages_per_sec"]):
            storm_sampled = round_sampled

    off_eps = churn["off"]["events_per_sec"]
    overhead = {
        mode: (off_eps / churn[mode]["events_per_sec"] - 1.0) * 100.0
        for mode in MODES if mode != "off"
    }
    storm_overhead = (storm_off["messages_per_sec"]
                      / storm_on["messages_per_sec"] - 1.0) * 100.0
    storm_overhead_sampled = (storm_off["messages_per_sec"]
                              / storm_sampled["messages_per_sec"]
                              - 1.0) * 100.0

    print_table(
        "S2-T kernel churn under telemetry modes",
        ["mode", "events", "events/sec", "overhead", "observed"],
        [[mode,
          result["scheduled_events"],
          f"{result['events_per_sec']:,.0f}",
          "baseline" if mode == "off" else fmt(overhead[mode], 1) + "%",
          result.get("observed_events", "-")]
         for mode, result in churn.items()],
    )
    print_table(
        "S2-T netsim 2-hop message storm (lineage)",
        ["lineage", "messages", "messages/sec", "overhead", "flows kept"],
        [
            ["off", storm_off["messages"],
             f"{storm_off['messages_per_sec']:,.0f}", "baseline", "-"],
            ["full", storm_on["messages"],
             f"{storm_on['messages_per_sec']:,.0f}",
             fmt(storm_overhead, 1) + "%", storm_on["flow_spans"]],
            [f"sampled {sampled_rate:.0%}", storm_sampled["messages"],
             f"{storm_sampled['messages_per_sec']:,.0f}",
             fmt(storm_overhead_sampled, 1) + "%",
             storm_sampled["flow_spans"]],
        ],
    )

    return {
        "bench": "s2_telemetry",
        "mode": "smoke" if smoke else "full",
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "sampling": {"rate": sampled_rate, "seed": SAMPLING_SEED},
        "kernel": {
            "scheduled_events": churn["off"]["scheduled_events"],
            "events_per_sec": {mode: result["events_per_sec"]
                               for mode, result in churn.items()},
            "overhead_pct": overhead,
            "observed_events": {
                mode: result["observed_events"]
                for mode, result in churn.items()
                if "observed_events" in result},
            "trace_checksum": baseline_checksum,
        },
        "netsim": {
            "messages": messages,
            "messages_per_sec_off": storm_off["messages_per_sec"],
            "messages_per_sec_on": storm_on["messages_per_sec"],
            "messages_per_sec_sampled": storm_sampled["messages_per_sec"],
            "overhead_pct": storm_overhead,
            "overhead_pct_sampled": storm_overhead_sampled,
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
