"""Terminal rendering: run summaries and timeline narration.

:func:`render_summary` turns a tracer into the table a developer reads
after a run — per-category simulated self-time profile, the hottest
kernel call sites by wall-clock, counters and audit totals.  Its span
profile is :func:`category_stats`, the per-category fold the telemetry
bench also embeds in ``BENCH_telemetry.json``.

:class:`Narrator` replaces the ad-hoc ``print(f"t={sim.now} ...")``
narration the demo and examples grew: every line is timestamped from the
simulated clock, recorded as a trace instant (so narration shows up in
exported traces), and optionally echoed live.
"""

from __future__ import annotations

from typing import Any, Callable, TYPE_CHECKING

from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.simulator import Simulator


def _table(title: str, headers: list[str], rows: list[list[Any]]) -> list[str]:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    head = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines = [title, head, "-" * len(head)]
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return lines


def category_stats(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-span-category stats for one run: span count, simulated time
    and wall milliseconds, by category name."""
    stats: dict[str, list[float]] = {}
    for span in tracer.ring:
        row = stats.get(span.category)
        if row is None:
            row = stats[span.category] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += span.duration
        row[2] += span.wall
    return {
        category: {
            "spans": int(count),
            "sim_time": round(sim_time, 9),
            "wall_ms": round(wall * 1000, 3),
        }
        for category, (count, sim_time, wall) in sorted(stats.items())
    }


def render_summary(tracer: Tracer, top: int = 10, wall: bool = True) -> str:
    """Human-readable profile of one traced run.

    ``wall=False`` drops the host-clock columns and ranks call sites by
    fired count instead of wall time, making the output byte-stable
    across identical seeded runs (the demo relies on this).
    """
    sections: list[str] = []

    policy = tracer.sampling
    if policy.rate < 1.0 or tracer.ring.dropped:
        sections.append(
            f"sampling: rate={policy.rate:g} seed={policy.seed} | "
            f"span buffer: {len(tracer.ring)}/{tracer.ring.capacity} slots, "
            f"{tracer.ring.dropped} dropped oldest-first")
        sections.append("")

    by_category = category_stats(tracer)
    if by_category:
        rows = [
            [category, row["spans"], f"{row['sim_time']:.4f}"]
            + ([f"{row['wall_ms']:.2f}"] if wall else [])
            for category, row in sorted(
                by_category.items(),
                key=lambda item: (-item[1]["sim_time"], item[0]))
        ]
        headers = ["category", "spans", "sim-s"] + (["wall-ms"] if wall else [])
        sections.extend(_table("span profile (by simulated time)",
                               headers, rows))

    kernel = tracer.kernel
    if kernel is not None and kernel.sites:
        if wall:
            ranked = kernel.hot_sites(top)
            rank_label = "by wall time"
        else:
            ranked = sorted(
                kernel.sites.items(),
                key=lambda item: (-item[1].fired, item[0]))[:top]
            rank_label = "by events fired"
        rows = [
            [name, stats.fired, stats.scheduled, stats.cancelled]
            + ([f"{stats.wall * 1000:.2f}"] if wall else [])
            for name, stats in ranked
        ]
        sections.append("")
        sections.extend(_table(
            f"hottest kernel call sites (top {min(top, len(kernel.sites))} "
            f"of {len(kernel.sites)}, {rank_label})",
            ["site", "fired", "scheduled", "cancelled"]
            + (["wall-ms"] if wall else []), rows))
        if kernel.timer_ticks:
            sections.append("")
            sections.extend(_table(
                "periodic timers",
                ["timer", "ticks"],
                [[name, count] for name, count in
                 sorted(kernel.timer_ticks.items(),
                        key=lambda item: (-item[1], item[0]))[:top]]))

    if tracer.counters:
        sections.append("")
        sections.extend(_table(
            "counters", ["counter", "value"],
            [[name, f"{tracer.counters[name]:g}"]
             for name in sorted(tracer.counters)]))

    audit_kinds = tracer.audit.kinds()
    if audit_kinds:
        sections.append("")
        sections.extend(_table(
            "decision audit", ["kind", "records"],
            [[kind, audit_kinds[kind]] for kind in sorted(audit_kinds)]))

    if not sections:
        return "telemetry summary: nothing recorded"
    return "\n".join(sections)


class Narrator:
    """Simulated-clock narration that also lands in the trace.

    ``fmt`` receives ``t`` (the simulated time) and ``line``; the default
    matches the platform demo's historical output so swapping the ad-hoc
    prints for a narrator keeps byte-stable output.
    """

    def __init__(self, sim: "Simulator",
                 fmt: str = "  t={t:5.2f}  {line}",
                 echo: bool = True,
                 sink: Callable[[str], None] = print) -> None:
        self.sim = sim
        self.fmt = fmt
        self.echo = echo
        self.sink = sink
        self.lines: list[str] = []

    def say(self, line: str) -> str:
        """Timestamp, record and (optionally) echo one narration line."""
        rendered = self.fmt.format(t=self.sim.now, line=line)
        self.lines.append(rendered)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant("narration", line)
        if self.echo:
            self.sink(rendered)
        return rendered

    def render(self) -> str:
        """The full narration transcript."""
        return "\n".join(self.lines)
