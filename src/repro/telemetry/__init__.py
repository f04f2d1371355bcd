"""Telemetry — sim-time-aware tracing, metrics and RAML decision audit.

The platform's cross-cutting observability layer: the meta-level can only
adapt what it can observe, and this package makes the platform itself
observable — at production overhead.

* :class:`Tracer` — spans/instants/counters on the **simulated** clock
  with wall-clock attribution on the side; free when disabled.  Spans
  land in a preallocated :class:`SpanRing` (overwrite-oldest, lazy
  materialization) and head-based :class:`SamplingPolicy` sampling keeps
  the enabled overhead production-grade while always-on categories
  (RAML/reconfiguration decisions) record at any rate.
* :class:`KernelInstrumentation` — schedule/fire/cancel/tick hooks on the
  event kernel, attributing every event to its scheduling site; under a
  sampling policy the kernel pays one integer decrement per unsampled
  event.
* Message lineage — :class:`repro.netsim.Network` emits per-hop link
  segments under an end-to-end flow span for every traced message.
* :class:`AuditLog` — why the RAML did what it did: introspection
  queries, intercession actions, policy firings, reconfiguration
  transaction phases, control-loop actuations.
* Exporters — JSONL, Chrome ``trace_event`` (Perfetto-loadable),
  folded stacks (:func:`folded_stacks` → flamegraph.pl / speedscope),
  the terminal summary/narrator and the per-category fold
  :func:`category_stats`.

Quick start (one-call setup — tracer, sampler and span ring wired)::

    from repro import telemetry

    tracer = telemetry.install(
        sim, sample_rate=0.01, seed=7,
        categories={"net.msg": 0.001})   # per-category rate override
    ...
    print(telemetry.render_summary(tracer))
    telemetry.write_chrome_trace(tracer, "run.trace.json")
    telemetry.write_folded("run.folded", telemetry.folded_stacks(tracer))
"""

from repro.telemetry.audit import AuditLog, AuditRecord
from repro.telemetry.export import (
    chrome_trace,
    chrome_trace_json,
    jsonl_records,
    trace_checksum,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.flamegraph import (
    folded_stacks,
    kernel_folded,
    span_folded,
    write_folded,
)
from repro.telemetry.hooks import EXTERNAL, KernelInstrumentation, site_name
from repro.telemetry.merge import (
    merge_records,
    merged_checksum,
    merged_trace_json,
    region_records,
)
from repro.telemetry.instrument import (
    install,
    instrument_assembly,
    instrument_connector,
    uninstall,
)
from repro.telemetry.ring import DEFAULT_CAPACITY, SpanRing
from repro.telemetry.sampling import ALWAYS_ON_CATEGORIES, Sampler, SamplingPolicy
from repro.telemetry.summary import Narrator, category_stats, render_summary
from repro.telemetry.tracer import Instant, Span, Tracer

__all__ = [
    "ALWAYS_ON_CATEGORIES",
    "AuditLog",
    "AuditRecord",
    "DEFAULT_CAPACITY",
    "EXTERNAL",
    "Instant",
    "KernelInstrumentation",
    "Narrator",
    "Sampler",
    "SamplingPolicy",
    "Span",
    "SpanRing",
    "Tracer",
    "category_stats",
    "chrome_trace",
    "chrome_trace_json",
    "folded_stacks",
    "install",
    "instrument_assembly",
    "instrument_connector",
    "jsonl_records",
    "kernel_folded",
    "merge_records",
    "merged_checksum",
    "merged_trace_json",
    "region_records",
    "render_summary",
    "site_name",
    "span_folded",
    "trace_checksum",
    "uninstall",
    "write_chrome_trace",
    "write_folded",
    "write_jsonl",
]
