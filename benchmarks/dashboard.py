"""PR-over-PR observability dashboard: is telemetry getting cheaper?

``BENCH_telemetry.json`` is one run's worth of truth; this tool folds
a sequence of such runs — one per PR, commit or nightly — into a
history with regression deltas, so the cost of observing the platform is
itself observed over time (the same discipline ``BENCH_kernel.json``
applies to the kernel).

:class:`Dashboard` is an append-only JSONL history of run entries with
:meth:`~Dashboard.deltas` (metric-by-metric change between consecutive
runs), :meth:`~Dashboard.regressions` (changes in the *bad* direction
beyond a threshold) and :meth:`~Dashboard.render` (the terminal table).
A bench document's per-category span stats come from
:func:`repro.telemetry.category_stats`.

CLI (CI appends one entry per build and uploads the history)::

    python benchmarks/dashboard.py BENCH_telemetry.json \
        --history TELEMETRY_DASHBOARD.jsonl --label PR7
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

#: Columns the rendered table shows: (header, dotted path into an entry).
DEFAULT_COLUMNS = [
    ("off ev/s", "kernel_events_per_sec.off"),
    ("disabled %", "kernel_overhead_pct.disabled"),
    ("sampled 1% %", "kernel_overhead_pct.sampled_1pct"),
    ("net smp %", "netsim.overhead_pct_sampled"),
    ("net full %", "netsim.overhead_pct"),
    ("drops", "drops"),
    ("par ev/s", "parallel.events_per_sec"),
    ("par x", "parallel.speedup"),
    ("stalls", "parallel.sync_stalls"),
    ("peak MB", "memory.peak_rss_mb"),
    ("B/node", "memory.bytes_per_node"),
]

#: A metric whose dotted path contains one of these moves in the *bad*
#: direction when it increases.
_LOWER_IS_BETTER = ("overhead", "drops", "dropped", "sync_stalls",
                    "peak_rss", "bytes_per_node")
#: ... and these when it decreases.
_HIGHER_IS_BETTER = ("per_sec", "speedup")


def _lookup(entry: dict, dotted: str) -> Any:
    value: Any = entry
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def _flatten(entry: dict, prefix: str = "") -> dict[str, float]:
    """Numeric leaves of an entry as dotted paths (labels excluded)."""
    flat: dict[str, float] = {}
    for key, value in entry.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = float(value)
    return flat


class Dashboard:
    """An ordered history of telemetry-bench entries with deltas."""

    def __init__(self, entries: Iterable[dict] | None = None) -> None:
        self.entries: list[dict] = list(entries or [])

    # -- building entries --------------------------------------------------

    @staticmethod
    def entry_from_bench(bench: dict, label: str) -> dict:
        """Fold one bench document (``BENCH_telemetry.json`` or
        ``BENCH_parallel.json``) into an entry."""
        kernel = bench.get("kernel", {})
        netsim = bench.get("netsim", {})
        entry = {
            "label": label,
            "unix_time": bench.get("unix_time"),
            "bench_mode": bench.get("mode"),
            "kernel_events_per_sec": dict(kernel.get("events_per_sec", {})),
            "kernel_overhead_pct": dict(kernel.get("overhead_pct", {})),
            "netsim": {
                key: netsim[key]
                for key in ("overhead_pct", "overhead_pct_sampled",
                            "messages_per_sec_off")
                if key in netsim
            },
            "categories": dict(bench.get("categories", {})),
            "drops": bench.get("drops", 0),
            "span_buffer_bytes": bench.get("span_buffer_bytes", 0),
        }
        parallel = bench.get("parallel")
        if parallel:
            entry["parallel"] = {
                "events_per_sec": parallel.get("events_per_sec"),
                "single_shard_events_per_sec":
                    bench.get("single_shard", {}).get("events_per_sec"),
                "speedup": bench.get("speedup"),
                "cores": bench.get("cores"),
                "restarts": bench.get("restart", {}).get("restarts"),
                "deterministic":
                    all(bench.get("determinism", {}).values()),
                "sync_stalls": parallel.get("sync_stalls"),
            }
        memory = bench.get("memory")
        if memory:
            entry["memory"] = {
                key: memory[key]
                for key in ("peak_rss_mb", "bytes_per_node",
                            "bytes_per_node_classic")
                if key in memory
            }
        return entry

    def add(self, entry: dict) -> dict:
        self.entries.append(entry)
        return entry

    # -- persistence (JSONL, one entry per line) ---------------------------

    @classmethod
    def load(cls, path: str | Path) -> "Dashboard":
        path = Path(path)
        if not path.exists():
            return cls()
        entries = [json.loads(line)
                   for line in path.read_text().splitlines() if line.strip()]
        return cls(entries)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text("".join(json.dumps(entry, sort_keys=True) + "\n"
                                for entry in self.entries))
        return path

    # -- analysis ----------------------------------------------------------

    def deltas(self) -> list[dict[str, float]]:
        """Percent change of every shared numeric metric between each
        consecutive pair of entries (one dict per pair, keyed by path)."""
        out: list[dict[str, float]] = []
        for previous, current in zip(self.entries, self.entries[1:]):
            flat_prev, flat_cur = _flatten(previous), _flatten(current)
            pair: dict[str, float] = {}
            for path, value in flat_cur.items():
                base = flat_prev.get(path)
                if base is None or base == 0:
                    continue
                pair[path] = (value / base - 1.0) * 100.0
            out.append(pair)
        return out

    def regressions(self, threshold_pct: float = 10.0
                    ) -> list[tuple[str, str, float]]:
        """(entry label, metric path, delta %) for every consecutive-run
        change in the *bad* direction larger than ``threshold_pct``."""
        found: list[tuple[str, str, float]] = []
        for entry, pair in zip(self.entries[1:], self.deltas()):
            label = str(entry.get("label", "?"))
            for path, delta in sorted(pair.items()):
                if any(token in path for token in _LOWER_IS_BETTER):
                    bad = delta > threshold_pct
                elif any(token in path for token in _HIGHER_IS_BETTER):
                    bad = delta < -threshold_pct
                else:
                    continue
                if bad:
                    found.append((label, path, round(delta, 3)))
        return found

    # -- rendering ---------------------------------------------------------

    def render(self, columns: list[tuple[str, str]] | None = None,
               threshold_pct: float = 10.0) -> str:
        """The PR-over-PR table plus a regression verdict line."""
        if not self.entries:
            return "telemetry dashboard: no runs recorded"
        columns = columns or DEFAULT_COLUMNS
        headers = ["run"] + [header for header, _ in columns]
        rows: list[list[str]] = []
        previous: dict | None = None
        for entry in self.entries:
            row = [str(entry.get("label", "?"))]
            for _, path in columns:
                value = _lookup(entry, path)
                if value is None:
                    row.append("-")
                    continue
                cell = f"{value:,.1f}" if isinstance(value, float) else str(value)
                base = _lookup(previous, path) if previous else None
                if isinstance(base, (int, float)) and base:
                    delta = (float(value) / float(base) - 1.0) * 100.0
                    cell += f" ({delta:+.1f}%)"
                row.append(cell)
            rows.append(row)
            previous = entry
        widths = [max(len(headers[i]), *(len(row[i]) for row in rows))
                  for i in range(len(headers))]
        lines = ["telemetry dashboard (PR over PR)",
                 "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        lines.append("-" * len(lines[1]))
        lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in rows)
        regressions = self.regressions(threshold_pct)
        if regressions:
            lines.append("")
            lines.append(f"REGRESSIONS (> {threshold_pct:g}% worse than "
                         f"previous run):")
            lines.extend(f"  {label}: {path} {delta:+.1f}%"
                         for label, path, delta in regressions)
        else:
            lines.append("")
            lines.append(f"no metric regressed more than {threshold_pct:g}% "
                         f"vs its previous run")
        return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fold a BENCH_telemetry.json run into the PR-over-PR "
                    "telemetry dashboard and render it.")
    parser.add_argument("bench", nargs="?", type=Path,
                        help="BENCH_telemetry.json to append (omit to just "
                             "render the history)")
    parser.add_argument("--history", type=Path,
                        default=Path("TELEMETRY_DASHBOARD.jsonl"),
                        help="JSONL history file (default: %(default)s)")
    parser.add_argument("--label", default=None,
                        help="entry label (default: bench mode + unix time)")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent")
    parser.add_argument("--fail-on-regression", action="store_true",
                        help="exit 1 when the newest entry regressed")
    cli = parser.parse_args(argv)

    dashboard = Dashboard.load(cli.history)
    if cli.bench is not None:
        bench = json.loads(cli.bench.read_text())
        label = cli.label or (f"{bench.get('mode', 'run')}@"
                              f"{int(bench.get('unix_time', 0))}")
        dashboard.add(Dashboard.entry_from_bench(bench, label))
        dashboard.save(cli.history)
    print(dashboard.render(threshold_pct=cli.threshold))
    if cli.fail_on_regression:
        # Gate only the newest entry: historical regressions are already
        # on the record (and were accepted when committed) — re-failing
        # every subsequent run on them would wedge the gate forever.
        newest = Dashboard(dashboard.entries[-2:])
        if newest.regressions(cli.threshold):
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
