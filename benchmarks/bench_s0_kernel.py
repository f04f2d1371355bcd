"""S0 — the simulation substrate itself: event kernel + QoS statistics.

Every claim-bench (E1–E14, F1, A1) runs on `repro.events` and
`repro.qos.metrics`, so their per-event / per-sample cost bounds the whole
platform.  This bench pits the current fast-path kernel against inline
copies of the *seed* implementations (rich-compare dataclass events, O(n)
`pending_events`, no compaction, re-sorting percentiles) on two workloads:

* **churn** — a timeout-heavy session workload (arrival, completion,
  cancelled timeout per session) with a periodic poller reading
  `pending_events`; measures events/sec.
* **qos-monitor** — per-request latency recording with periodic monitor
  ticks reading mean/stddev/p50/p95/max; measures records/sec.

Determinism is asserted, not assumed: the legacy and fast kernels must
produce byte-identical event traces, and two fast runs must match too.

Full runs are written to ``BENCH_kernel.json`` at the repo root so the
perf trajectory is tracked from PR to PR; ``--smoke`` runs default to
the gitignored ``BENCH_kernel.smoke.json`` so short noisy runs never
replace the canonical artifact.  Run standalone::

    python benchmarks/bench_s0_kernel.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import random
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(_ROOT), str(_ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.events import PeriodicTimer, Simulator
from repro.qos.metrics import MetricSeries

from conftest import fmt, peak_rss_mb, print_table

_MASK = (1 << 64) - 1
DEFAULT_OUT = _ROOT / "BENCH_kernel.json"
SMOKE_OUT = _ROOT / "BENCH_kernel.smoke.json"


# ---------------------------------------------------------------------------
# Seed-shaped legacy implementations (the "old" side of old-vs-new).
# ---------------------------------------------------------------------------


@dataclass(order=True)
class LegacyEvent:
    """Seed event: rich-compare dataclass, compared on every heap sift."""

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        self.cancelled = True


class LegacySimulator:
    """Seed kernel: object heap, O(n) pending scan, garbage never compacted."""

    def __init__(self) -> None:
        self._queue: list[LegacyEvent] = []
        self._now = 0.0
        self._seq = 0
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule(self, *args, delay=None, priority=0):
        # Seed shape (delay, callback, *args); also accepts the canonical
        # (callback, *args, delay=...) so shared drivers (PeriodicTimer)
        # can run against this stand-in after the PR-8 API unification.
        if delay is None:
            delay, args = args[0], args[1:]
        return self.at(self._now + delay, *args, priority=priority)

    def at(self, *args, when=None, priority=0):
        if when is None:
            when, args = args[0], args[1:]
        event = LegacyEvent(when, priority, self._seq, args[0], args[1:])
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run(self, until=None):
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._queue)
            self._now = head.time
            self._executed += 1
            head.callback(*head.args)
        if until is not None and until > self._now:
            self._now = until
        return self._now


class LegacyMetricSeries:
    """Seed series: stats rescan the window; percentile re-sorts it."""

    def __init__(self, name, window=10.0):
        self.name = name
        self.window = window
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, value, now):
        self._times.append(now)
        self._values.append(float(value))
        cutoff = now - self.window
        keep_from = bisect_right(self._times, cutoff)
        if keep_from:
            del self._times[:keep_from]
            del self._values[:keep_from]

    def mean(self):
        return sum(self._values) / len(self._values) if self._values else 0.0

    def maximum(self):
        return max(self._values) if self._values else 0.0

    def stddev(self):
        if len(self._values) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(
            sum((v - mu) ** 2 for v in self._values) / (len(self._values) - 1)
        )

    def percentile(self, q):
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high or ordered[low] == ordered[high]:
            return ordered[low]
        frac = rank - low
        return ordered[low] * (1 - frac) + ordered[high] * frac


# ---------------------------------------------------------------------------
# Workloads (identical drivers for both kernels).
# ---------------------------------------------------------------------------


class ChurnDriver:
    """Timeout-churn sessions: arrival → completion cancelling a timeout.

    The cancelled timeouts are the lazy-deletion garbage the seed kernel
    never reclaims; the poller is the telemetry read that was O(n).
    """

    def __init__(self, sim, sessions: int, horizon: float = 100.0) -> None:
        self.sim = sim
        self.sessions = sessions
        self.horizon = horizon
        self.checksum = 17
        self.completed = 0
        self.timed_out = 0
        # The seed stand-in only speaks the pre-unification positional
        # shape; the real kernel only the canonical one.
        self._seed_shape = isinstance(sim, LegacySimulator)

    def _mix(self, *parts: float) -> None:
        state = self.checksum
        for part in parts:
            state = (state * 1000003 + hash(part)) & _MASK
        self.checksum = state

    def load(self) -> int:
        rng = random.Random(20260805)
        horizon = self.horizon
        arrivals = sorted(
            (rng.uniform(0.0, horizon), 0.01 + rng.random() * 0.5)
            for _ in range(self.sessions)
        )
        items = [(t, self._arrive, (duration,)) for t, duration in arrivals]
        if hasattr(self.sim, "schedule_many"):
            self.sim.schedule_many(items, absolute=True)
        else:
            for t, callback, args in items:
                self.sim.at(t, callback, *args)
        return 3 * len(items)  # arrival + completion + (cancelled) timeout

    def _arrive(self, duration: float) -> None:
        if self._seed_shape:
            timeout = self.sim.schedule(duration * 5.0, self._timeout)
            self.sim.schedule(duration, self._complete, timeout)
        else:
            timeout = self.sim.schedule(self._timeout, delay=duration * 5.0)
            self.sim.schedule(self._complete, timeout, delay=duration)

    def _complete(self, timeout) -> None:
        timeout.cancel()
        self.completed += 1
        self._mix(self.sim.now, 1.0)

    def _timeout(self) -> None:
        self.timed_out += 1
        self._mix(self.sim.now, 2.0)

    def poll(self) -> None:
        self._mix(float(self.sim.pending_events), 3.0)


def run_churn(sim_cls, sessions: int, poll_period: float = 1.0):
    sim = sim_cls()
    driver = ChurnDriver(sim, sessions)
    scheduled = driver.load()
    PeriodicTimer(sim, poll_period, driver.poll)
    start = time.perf_counter()
    sim.run(until=driver.horizon + 10.0)
    elapsed = time.perf_counter() - start
    assert driver.completed == sessions and driver.timed_out == 0
    return {
        "scheduled_events": scheduled,
        "elapsed_s": elapsed,
        "events_per_sec": scheduled / elapsed,
        "checksum": driver.checksum,
    }


def run_qos_monitor(series_cls, records: int, tick_every: int = 25,
                    window: float = 5.0):
    rng = random.Random(7)
    values = [0.001 + rng.random() * 0.2 for _ in range(records)]
    series = series_cls("latency", window=window)
    accumulator = 0.0
    start = time.perf_counter()
    now = 0.0
    for index, value in enumerate(values):
        now += 0.001
        series.record(value, now)
        if index % tick_every == 0:
            accumulator += (
                series.mean()
                + series.stddev()
                + series.percentile(50)
                + series.percentile(95)
                + series.maximum()
            )
    elapsed = time.perf_counter() - start
    return {
        "records": records,
        "monitor_ticks": records // tick_every + (1 if records else 0),
        "window_population": int(window / 0.001),
        "elapsed_s": elapsed,
        "records_per_sec": records / elapsed,
        "accumulator": accumulator,
    }


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------


def run_suite(smoke: bool) -> dict:
    sessions = 40_000 if smoke else 333_334  # ×3 events each
    records = 40_000 if smoke else 400_000

    legacy_churn = run_churn(LegacySimulator, sessions)
    new_churn = run_churn(Simulator, sessions)
    new_churn_repeat = run_churn(Simulator, sessions)

    # Determinism: the fast kernel must interleave exactly like the seed
    # kernel, and exactly like itself.
    assert new_churn["checksum"] == new_churn_repeat["checksum"], (
        "fast kernel is not deterministic across identical runs"
    )
    assert new_churn["checksum"] == legacy_churn["checksum"], (
        "fast kernel interleaves differently from the seed kernel"
    )

    legacy_qos = run_qos_monitor(LegacyMetricSeries, records)
    new_qos = run_qos_monitor(MetricSeries, records)
    qos_drift = abs(legacy_qos["accumulator"] - new_qos["accumulator"])
    qos_scale = max(1.0, abs(legacy_qos["accumulator"]))
    assert qos_drift / qos_scale < 1e-9, (
        f"incremental statistics diverged from the seed series: {qos_drift}"
    )

    events_speedup = new_churn["events_per_sec"] / legacy_churn["events_per_sec"]
    qos_speedup = new_qos["records_per_sec"] / legacy_qos["records_per_sec"]

    print_table(
        "S0 event-kernel churn (arrival/completion/cancelled-timeout)",
        ["kernel", "events", "elapsed", "events/sec"],
        [
            ["seed", legacy_churn["scheduled_events"],
             fmt(legacy_churn["elapsed_s"]) + "s",
             f"{legacy_churn['events_per_sec']:,.0f}"],
            ["fast", new_churn["scheduled_events"],
             fmt(new_churn["elapsed_s"]) + "s",
             f"{new_churn['events_per_sec']:,.0f}"],
            ["speedup", "", "", fmt(events_speedup, 2) + "x"],
        ],
    )
    print_table(
        "S0 QoS monitor (record + periodic mean/stddev/p50/p95/max)",
        ["series", "records", "elapsed", "records/sec"],
        [
            ["seed", legacy_qos["records"], fmt(legacy_qos["elapsed_s"]) + "s",
             f"{legacy_qos['records_per_sec']:,.0f}"],
            ["fast", new_qos["records"], fmt(new_qos["elapsed_s"]) + "s",
             f"{new_qos['records_per_sec']:,.0f}"],
            ["speedup", "", "", fmt(qos_speedup, 2) + "x"],
        ],
    )

    return {
        "bench": "s0_kernel",
        "mode": "smoke" if smoke else "full",
        "unix_time": time.time(),
        "python": sys.version.split()[0],
        "events": {
            "scheduled_events": new_churn["scheduled_events"],
            "legacy_events_per_sec": legacy_churn["events_per_sec"],
            "new_events_per_sec": new_churn["events_per_sec"],
            "speedup": events_speedup,
            "trace_checksum": new_churn["checksum"],
        },
        "qos": {
            "records": new_qos["records"],
            "monitor_ticks": new_qos["monitor_ticks"],
            "window_population": new_qos["window_population"],
            "legacy_records_per_sec": legacy_qos["records_per_sec"],
            "new_records_per_sec": new_qos["records_per_sec"],
            "speedup": qos_speedup,
        },
        "memory": {"peak_rss_mb": peak_rss_mb()},
    }


def write_results(results: dict, out: Path = DEFAULT_OUT) -> None:
    out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {out}")


# ---------------------------------------------------------------------------
# pytest entry points (collected by the tier-1 run; smoke-sized, with
# conservative speedup floors so shared-runner noise cannot flake them).
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


def test_s0_event_kernel_faster_and_deterministic():
    results = _results()
    # run_suite already asserted trace equality vs the seed kernel.
    assert results["events"]["speedup"] >= 1.5


def test_s0_qos_statistics_faster_and_exact():
    results = _results()
    assert results["qos"]["speedup"] >= 2.5


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON results")
    cli = parser.parse_args()
    suite = run_suite(smoke=cli.smoke)
    if not cli.smoke:
        assert suite["events"]["speedup"] >= 2.0, suite["events"]
        assert suite["qos"]["speedup"] >= 5.0, suite["qos"]
    # Smoke runs land next to — never on top of — the canonical full-mode
    # artifact, which is what check_bench_regression.py gates on.
    out = cli.out or (SMOKE_OUT if cli.smoke else DEFAULT_OUT)
    write_results(suite, out)
