"""Deterministic merge of per-region telemetry streams.

Each region of a partitioned run (:mod:`repro.parallel`) records its own
trace with its own tracer; after the run the coordinator interleaves the
per-region record streams into one merged timeline.  The merge order is
the total order **(sim-time, region-id, seq)** — simulated time first,
region id to break cross-region ties, and the record's position in its
own region's stream to break same-region ties — so the merged trace is a
pure function of the per-region traces.  Two same-seed runs (including
one whose worker died and was deterministically replayed) produce
byte-identical merged serializations, witnessed by
:func:`merged_checksum`.

Records are plain dicts (the :func:`repro.telemetry.export.jsonl_records`
shapes, tagged with ``region`` and ``seq``) so they cross process pipes
as ordinary picklable data.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable, Mapping

from repro.telemetry.tracer import Tracer
from repro.telemetry.export import jsonl_records

#: Sort-time for records without a timestamp: meta (provenance) sorts
#: before everything, counters (end-of-run totals) after everything.
_BEFORE_ALL = float("-inf")
_AFTER_ALL = float("inf")


def record_time(record: Mapping[str, Any]) -> float:
    """The merge timestamp of one exported record."""
    kind = record.get("type")
    if kind == "span":
        return record["start"]
    if kind in ("instant", "audit"):
        return record["time"]
    if kind == "meta":
        return _BEFORE_ALL
    return _AFTER_ALL  # counters and anything else without a clock


def region_records(tracer: Tracer, region: int) -> list[dict[str, Any]]:
    """Export one region's trace as pipe-ready dicts.

    Each record is tagged with its ``region`` and its ``seq`` (position
    in this region's own stream) — the tie-breakers of the merge order.
    Wall-clock attribution is excluded, as in every deterministic export.
    """
    records = []
    for seq, record in enumerate(jsonl_records(tracer)):
        record["region"] = region
        record["seq"] = seq
        records.append(record)
    return records


def merge_records(streams: Mapping[int, Iterable[Mapping[str, Any]]]
                  ) -> list[dict[str, Any]]:
    """Interleave per-region streams by (sim-time, region-id, seq)."""
    merged: list[dict[str, Any]] = []
    for region in sorted(streams):
        for record in streams[region]:
            record = dict(record)
            record.setdefault("region", region)
            merged.append(record)
    merged.sort(key=lambda r: (record_time(r), r["region"], r.get("seq", 0)))
    return merged


def merged_trace_json(records: Iterable[Mapping[str, Any]]) -> str:
    """Canonical serialization of a merged stream (one JSON line per
    record, sorted keys) — the byte-stability surface."""
    return "\n".join(json.dumps(record, sort_keys=True)
                     for record in records) + "\n"


def merged_checksum(records: Iterable[Mapping[str, Any]]) -> str:
    """SHA-256 of the canonical merged serialization — the partitioned
    run's determinism witness (compare across backends, restarts and
    repeated same-seed runs)."""
    return hashlib.sha256(merged_trace_json(records).encode()).hexdigest()
