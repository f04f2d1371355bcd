"""Shared machinery of the repository benchmark.

Timing and percentiles, the span stack the traced run uses to split host
time across layers, peak memory, the output digest check and the one-line
JSON result.  Nothing here imports ``repro``: the workloads do, after
``run.py`` has timed the import as part of set-up.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import resource
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

#: Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10

#: Spans kept in memory for the span log written after a traced run.
SPAN_LOG_CAP = 50_000

#: Layer self times plus unaccounted time must equal traced wall time
#: within this share of it.
RECONCILE_TOLERANCE = 0.01

#: Span names whose layer is the benchmark itself, not the program:
#: its own bookkeeping, and the whole traced phase (whose self time is
#: the part no other span covers).
HARNESS = "harness"
PHASE = "phase"

#: Where a traced run writes its span log (gitignored).
TRACE_DIR = ROOT / ".perfbench_out"

#: Host seconds :func:`reference_work` takes at the nominal host speed
#: the end-to-end times are scaled to (a 2.1 GHz shared virtual machine
#: in its faster regime).
REFERENCE_S = 0.0075


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


def metric_table() -> dict[str, dict[str, str]]:
    """Every metric BENCHMARK.json names, with its unit, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry
            for group in ("end_to_end", "per_layer") for entry in spec[group]}


def metric_names(group: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [entry["name"] for entry in spec[group]]


# -- statistics ---------------------------------------------------------------


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_quantile(values: list[float], q: float = 0.99) -> float:
    """``q`` quantile, refusing samples too small to hold
    :data:`TAIL_SAMPLES` beyond it."""
    beyond = math.floor(len(values) * (1.0 - q))
    if beyond < TAIL_SAMPLES:
        raise CheckFailed(
            f"{len(values)} samples leave {beyond} beyond the p{q * 100:g}; "
            f"at least {TAIL_SAMPLES} are needed")
    return quantile(sorted(values), q)


def cycle_tail_quantile(cycles: list["Cycle"], q: float = 0.99) -> float:
    """Median over ``cycles`` of each cycle's :func:`tail_quantile` of
    its scaled op times: a tail that stalls confined to a few cycles
    cannot move, where they would move the quantile of the pooled ops."""
    return statistics.median(
        tail_quantile([t / cycle.factor for t in cycle.op_times], q)
        for cycle in cycles)


def drift(op_times: list[float]) -> float:
    """Median op time of the last quarter over that of the first: a
    per-op cost that grows with run length reads above 1."""
    quarter = len(op_times) // 4
    if quarter < 1:
        return 1.0
    first = statistics.median(op_times[:quarter])
    last = statistics.median(op_times[-quarter:])
    return last / first if first > 0 else 1.0


class _Item:
    __slots__ = ("key", "slot", "tags")

    def __init__(self, key: int, slot: int) -> None:
        self.key = key
        self.slot = slot
        self.tags = {"key": key}

    def step(self, counts: dict[int, int]) -> int:
        return self.key + counts.get(self.slot, 0) + len(self.tags)


def reference_work(rounds: int = 6000) -> int:
    """Fixed pure-Python work — a heap of small objects, dict updates,
    string formatting — whose host time follows the host's current
    speed.  It is part of the benchmark, not the program, so the scaling
    it gives is the same on every commit."""
    heap: list = []
    counts: dict[int, int] = {}
    total = 0
    for index in range(rounds):
        heapq.heappush(heap, (index * 7919 % 1000, index,
                              _Item(index, index % 97)))
        counts[index % 97] = counts.get(index % 97, 0) + 1
        total += len(f"m{index}")
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].step(counts)
    return total


def host_factor() -> float:
    """How much slower than nominal the host runs right now."""
    start = perf_counter()
    reference_work()
    return (perf_counter() - start) / REFERENCE_S


def cycle_drift(cycles: list["Cycle"]) -> float:
    """Median over cycles of each cycle's :func:`drift`: growth within a
    cycle, unmoved by shifts of host speed between cycles."""
    return statistics.median(drift(cycle.op_times) for cycle in cycles)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def digest(document: Any) -> str:
    """sha256 of a canonical JSON rendering."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- the traced run's span stack ---------------------------------------------


class Spans:
    """Host-time spans opened and closed around calls into each layer.

    A span's self time is its duration minus the time its child spans
    cover.  Self time is summed per span name for the whole traced
    phase; the first :data:`SPAN_LOG_CAP` spans are also kept as
    ``(id, parent, name, start, end, request)`` and written out once the
    run ends.  ``durations`` keeps every duration of the names listed in
    ``keep_durations`` for percentiles.
    """

    def __init__(self, keep_durations: tuple[str, ...] = ()) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: dict[str, list[float]] = {
            name: [] for name in keep_durations}
        self.log: list[tuple] = []
        self.request = 0
        self._next_id = 1

    def open(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else 0
        self.stack.append([name, perf_counter(), 0.0, self._next_id, parent])
        self._next_id += 1

    def close(self) -> float:
        end = perf_counter()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(duration)
        if len(self.log) < SPAN_LOG_CAP:
            self.log.append((span_id, parent, name, start, end, self.request))
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call inside a span named ``name``."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapped

    def interceptor(self, name: str) -> Callable:
        """A port/connector/ORB interceptor whose ``proceed`` runs inside
        a span named ``name`` (the chain's bracketing hook)."""

        def bracket(invocation: Any, proceed: Callable) -> Any:
            self.open(name)
            try:
                return proceed(invocation)
            finally:
                self.close()

        return bracket

    def per_call_us(self, name: str) -> float:
        """Mean self time of one ``name`` span, in microseconds."""
        calls = self.calls[name]
        return self.self_s[name] / calls * 1e6 if calls else 0.0

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (the span name up to its first dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)

    def reconcile(self, wall: float) -> tuple[dict[str, float], float]:
        """Split ``wall`` into layer self times plus the unaccounted rest.

        Returns ``(layer seconds without the harness, unaccounted share)``.
        Raises :class:`CheckFailed` when a span was left open or the
        parts do not add back up to ``wall`` within
        :data:`RECONCILE_TOLERANCE`.
        """
        if self.stack:
            raise CheckFailed(
                f"{len(self.stack)} span(s) left open: "
                f"{[entry[0] for entry in self.stack]}")
        layers = self.layer_self()
        unaccounted = layers.pop(HARNESS, 0.0) + layers.pop(PHASE, 0.0)
        covered = sum(layers.values())
        if abs(covered + unaccounted - wall) > RECONCILE_TOLERANCE * wall:
            raise CheckFailed(
                f"layer self times ({covered:.4f}s) plus unaccounted time "
                f"({unaccounted:.4f}s) do not add up to traced wall time "
                f"({wall:.4f}s)")
        return layers, unaccounted / wall if wall > 0 else 0.0

    def write_log(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, start, end, request in self.log:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request,
                }) + "\n")


def span(spans: Spans | None, name: str, fn: Callable) -> Callable:
    """``fn`` inside a span when tracing, ``fn`` itself otherwise."""
    return fn if spans is None else spans.wrap(name, fn)


# -- cycles and the timed phase ----------------------------------------------


class Cycle:
    """What one workload cycle produced.

    ``op_times`` are host seconds per op; ``outputs`` are the
    deterministic outputs the digest check compares; ``counts`` are the
    cycle's per-layer counters (identical in every cycle of one seed).
    """

    def __init__(self) -> None:
        self.wall = 0.0
        #: Mean :func:`host_factor` of the probes either side of the cycle.
        self.factor = 1.0
        self.op_times: list[float] = []
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, Any] = {}
        self.counts: dict[str, float] = {}


class Phase:
    """Cycles run back to back until ``seconds`` of host time are spent."""

    def __init__(self, cycles: list[Cycle] | None = None) -> None:
        self.cycles: list[Cycle] = cycles or []
        self.wall = sum(cycle.wall for cycle in self.cycles)

    @property
    def op_times(self) -> list[float]:
        return [t for cycle in self.cycles for t in cycle.op_times]

    @property
    def scaled_op_times(self) -> list[float]:
        """Op times at the nominal host speed."""
        return [t / cycle.factor
                for cycle in self.cycles for t in cycle.op_times]

    @property
    def ops(self) -> int:
        return sum(len(cycle.op_times) for cycle in self.cycles)

    @property
    def failed(self) -> int:
        return sum(cycle.failed for cycle in self.cycles)

    @property
    def ops_per_s(self) -> float:
        """Ops per host second of the cycles, at the nominal host speed."""
        scaled = sum(cycle.wall / cycle.factor for cycle in self.cycles)
        return self.ops / scaled if scaled > 0 else 0.0

    def steady(self) -> "Phase":
        """The faster half of the cycles, by scaled ops per host second.

        Identical cycles of one seed vary up to twofold on a shared host
        whose speed shifts in regimes lasting seconds.  Scaling each
        cycle by the reference probes around it removes most of that;
        keeping the faster half drops cycles a probe misjudged (as
        ``timeit`` reports the best of its repeats).
        """
        ranked = sorted(self.cycles,
                        key=lambda cycle: len(cycle.op_times)
                        * cycle.factor / cycle.wall,
                        reverse=True)
        return Phase(ranked[:math.ceil(len(ranked) / 2)])


def timed_phase(run_cycle: Callable[[], Cycle], seconds: float,
                spans: Spans | None = None) -> Phase:
    """Run cycles until ``seconds`` have elapsed (always at least one),
    with a :func:`host_factor` probe before the first and after each.

    With ``spans`` the whole phase is the traced wall time the layer
    self times reconcile against; the probes are the benchmark's own.
    """
    phase = Phase()
    start = perf_counter()
    probe = host_factor if spans is None else spans.wrap(HARNESS,
                                                         host_factor)
    if spans is not None:
        spans.open(PHASE)
    before = probe()
    while True:
        begin = perf_counter()
        cycle = run_cycle()
        cycle.wall = perf_counter() - begin
        after = probe()
        cycle.factor = (before + after) / 2
        before = after
        phase.cycles.append(cycle)
        if perf_counter() - start >= seconds:
            break
    if spans is not None:
        spans.close()
    phase.wall = perf_counter() - start
    return phase


def check_outputs(cycles: list[Cycle], expect_digest: str | None) -> str:
    """Every cycle of one seed must produce the identical output digest
    (and ``expect_digest`` when given).  Returns the digest."""
    digests = [digest(cycle.outputs) for cycle in cycles]
    reference = expect_digest or digests[0]
    for index, value in enumerate(digests):
        if value != reference:
            raise CheckFailed(
                f"cycle {index} output digest {value[:16]} differs from "
                f"{reference[:16]}")
    return reference


def result_line(correct: bool, attempted: int, failed: int,
                values: dict[str, float], group: str) -> str:
    """The benchmark's last stdout line, holding every metric of
    ``group`` in BENCHMARK.json with its unit."""
    table = metric_table()
    metrics = {}
    for name in metric_names(group):
        if name not in values:
            raise KeyError(f"workload did not produce metric {name!r}")
        metrics[name] = {"value": float(values[name]),
                         "unit": table[name]["unit"]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})
