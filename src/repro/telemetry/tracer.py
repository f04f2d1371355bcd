"""The span/trace core.

A :class:`Tracer` records what the platform does on the **simulated**
clock — spans (intervals of simulated time), instants (point events),
counters and :class:`~repro.telemetry.audit.AuditRecord` entries — with
optional **wall-clock attribution** (how much host CPU each span burned)
kept strictly out of the deterministic export payload.

Design constraints, in order:

1. *Disabled must be free.*  Every recording method early-returns on
   ``self.enabled``; :meth:`Tracer.span` returns one shared no-op context
   manager, so a disabled call allocates nothing.
2. *Enabled must be cheap.*  Head-based sampling
   (:class:`~repro.telemetry.sampling.SamplingPolicy`) decides each trace
   root's fate in a single branch at span start; finished spans land in a
   preallocated :class:`~repro.telemetry.ring.SpanRing` (eight indexed
   stores, no per-span allocation) and are only materialized back into
   :class:`Span` objects at export time.
3. *Deterministic.*  Span ids are a per-tracer counter, timestamps are
   simulated time, sampling decisions come from a seeded
   :class:`~repro.telemetry.sampling.Sampler`, and wall-clock
   measurements never enter the exported trace — two same-seed runs
   serialize byte-identically, sampled or not.
4. *Synchronous spans nest, asynchronous spans flow.*  ``with
   tracer.span(...)`` uses an explicit stack (callbacks within one
   simulator event nest synchronously); message lineage uses
   :meth:`sample` + :meth:`begin_flow` / :meth:`end_flow` because a
   message outlives the event that sent it.
"""

from __future__ import annotations

import weakref
from time import perf_counter
from typing import Any, TYPE_CHECKING

from repro.telemetry.audit import AuditLog
from repro.telemetry.ring import DEFAULT_CAPACITY, SpanRing
from repro.telemetry.sampling import Sampler, SamplingPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.simulator import Simulator


class Span:
    """One interval of simulated time attributed to a subsystem.

    Span objects exist while a span is *open* (on the tracer stack, or
    riding a message as a flow handle) and when the ring materializes
    finished spans for export — never on the steady-state record path.

    ``wall`` is host seconds spent inside the span (0.0 for flow spans
    whose work happens across many events); it feeds the terminal summary
    but is excluded from deterministic exports.
    """

    __slots__ = ("span_id", "parent_id", "category", "name",
                 "start", "end", "args", "wall")

    def __init__(self, span_id: int, parent_id: int, category: str,
                 name: str, start: float, args: dict[str, Any]) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.category = category
        self.name = name
        self.start = start
        self.end = start
        self.args = args
        self.wall = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span(#{self.span_id} {self.category}/{self.name} "
                f"[{self.start}, {self.end}])")


class Instant:
    """A point annotation on the simulated timeline."""

    __slots__ = ("time", "category", "name", "args")

    def __init__(self, time: float, category: str, name: str,
                 args: dict[str, Any]) -> None:
        self.time = time
        self.category = category
        self.name = name
        self.args = args


class _NoopSpanContext:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpanContext()


class _SuppressContext:
    """Shared per-tracer context for an *unsampled* trace root.

    Head-based sampling must drop the whole tree: while the suppression
    depth is nonzero, ``tracer.span`` hands this same object to every
    nested call, so no descendant of an unsampled root records anything
    — and nothing is allocated while doing so.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> None:
        self._tracer._suppressed += 1
        return None

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._suppressed -= 1
        return False


class _SpanContext:
    """Context manager opening a stacked span with wall attribution."""

    __slots__ = ("_tracer", "_category", "_name", "_args", "_span", "_wall0")

    def __init__(self, tracer: "Tracer", category: str, name: str,
                 args: dict[str, Any]) -> None:
        self._tracer = tracer
        self._category = category
        self._name = name
        self._args = args

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._category, self._name, self._args)
        self._wall0 = perf_counter()
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        span = self._span
        span.wall = perf_counter() - self._wall0
        if exc_type is not None:
            span.args["error"] = repr(exc)
        self._tracer._close(span)
        return False


class Tracer:
    """Collects spans/instants/counters/audit records for one simulator.

    Install via :func:`repro.telemetry.install`, which also attaches the
    tracer to ``sim.tracer`` so every subsystem can find it with one
    attribute read.

    Args:
        sampling: head-based sampling policy; the default records every
            trace root.  :func:`~repro.telemetry.install` builds it from
            its ``sample_rate``, ``categories``, ``always`` and ``seed``
            keywords: ``sample_rate=0.01`` keeps one trace in a hundred,
            with the ``always`` categories exempt.
        capacity: span-ring slots; once full, the oldest span is
            overwritten and :attr:`drops` increments.
    """

    def __init__(self, sim: "Simulator", enabled: bool = True,
                 sampling: SamplingPolicy | None = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self.sim = sim
        self.enabled = enabled
        self.sampling = sampling if sampling is not None else SamplingPolicy()
        self.ring = SpanRing(capacity)
        self.instants: list[Instant] = []
        self.counters: dict[str, float] = {}
        self.audit = AuditLog()
        #: Kernel instrumentation, when installed (set by ``install``).
        self.kernel: Any = None
        #: Connectors already carrying this tracer's observer, held
        #: weakly (see ``instrument_connector``).
        self._connectors: weakref.WeakSet[Any] = weakref.WeakSet()
        self._stack: list[Span] = []
        self._next_id = 1
        self._suppressed = 0
        self._suppress = _SuppressContext(self)
        policy = self.sampling
        self._always = policy.always
        self._overrides = dict(policy.overrides)
        #: True only when roots actually need a coin flip — the rate-1.0
        #: no-override default skips the sampler entirely (one attribute
        #: load).
        self._sample_roots = policy.rate < 1.0 or any(
            rate < 1.0 for rate in self._overrides.values())
        self._sampler = Sampler(policy.rate, policy.seed, stream=1)

    # -- lifecycle ---------------------------------------------------------

    def enable(self) -> None:
        """Resume recording (and re-attach kernel hooks, if any, unless
        a later ``install`` has replaced this tracer)."""
        self.enabled = True
        if self.kernel is not None and self.sim.tracer is self:
            self.sim.set_hooks(self.kernel)

    def disable(self) -> None:
        """Stop recording; kernel hooks detach so the hot loop pays only
        the ``is not None`` branch again."""
        self.enabled = False
        if self.sim._hooks is self.kernel and self.kernel is not None:
            self.sim.set_hooks(None)

    def clear(self) -> None:
        """Drop everything recorded so far (ids and the sampling stream
        restart too, so a cleared tracer reproduces the same trace for
        the same workload)."""
        self.ring.clear()
        self.instants.clear()
        self.counters.clear()
        self.audit.clear()
        self._stack.clear()
        self._next_id = 1
        self._suppressed = 0
        self._sampler.reset()
        if self.kernel is not None:
            self.kernel.clear()

    # -- materialized views ------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Finished spans, oldest-first, materialized from the ring.

        Each access rebuilds the list — cheap for inspection and export,
        but don't call it per-event; the record path never does.
        """
        return self.ring.materialize()

    @property
    def drops(self) -> int:
        """Spans lost oldest-first to ring wraparound."""
        return self.ring.dropped

    # -- sampling ----------------------------------------------------------

    def sample(self, category: str) -> bool:
        """Head decision for a new trace *root* (single branch).

        Callers that pay to assemble span arguments — netsim flows,
        connector observers, reconfiguration transactions — ask first,
        so an unsampled root costs one branch and zero allocation::

            if tracer.sample("net.msg"):
                span = tracer.begin_flow("net.msg", name, ...)

        Children of a sampled root record unconditionally (via the
        carried span handle / ``parent_id``), which is what makes the
        sampling head-based: traces are kept or dropped whole.
        """
        if not self.enabled:
            return False
        if not self._sample_roots or category in self._always:
            return True
        return self._root_keep(category)

    def _root_keep(self, category: str) -> bool:
        """Draw the head decision for a non-always root (one stream step,
        whether or not the category's rate is overridden)."""
        override = self._overrides.get(category)
        if override is None:
            return self._sampler.sample()
        return self._sampler.sample_at(override)

    # -- synchronous spans -------------------------------------------------

    def span(self, category: str, name: str, **args: Any):
        """Open a nested span: ``with tracer.span("raml", "sweep"): ...``

        The root of each stack makes the head sampling decision; nested
        spans inherit it (a suppressed root suppresses its whole subtree
        via a shared, allocation-free context manager).
        """
        if not self.enabled:
            return NOOP_SPAN
        if self._suppressed or (
                self._sample_roots and not self._stack
                and category not in self._always
                and not self._root_keep(category)):
            return self._suppress
        return _SpanContext(self, category, name, args)

    def _open(self, category: str, name: str, args: dict[str, Any]) -> Span:
        parent = self._stack[-1].span_id if self._stack else 0
        span = Span(self._next_id, parent, category, name, self.sim.now, args)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.sim.now
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.ring.append(span.span_id, span.parent_id, span.category,
                         span.name, span.start, span.end,
                         span.args or None, span.wall)

    # -- asynchronous (flow) spans ----------------------------------------

    def begin_flow(self, category: str, name: str, **args: Any) -> Span | None:
        """Open a span that outlives the current event (e.g. a message in
        flight).  Returns None when disabled — callers carry the handle.

        ``begin_flow`` is the *recording* primitive: the head sampling
        decision belongs to :meth:`sample`, asked by the caller before
        assembling the name and args (so unsampled flows allocate
        nothing).  Calling it without asking records unconditionally.
        """
        if not self.enabled:
            return None
        span = Span(self._next_id, 0, category, name, self.sim.now, args)
        self._next_id += 1
        return span

    def end_flow(self, span: Span, **args: Any) -> None:
        """Finish a flow span at the current simulated time."""
        if args:
            span.args.update(args)
        span.end = self.sim.now
        self.ring.append(span.span_id, span.parent_id, span.category,
                         span.name, span.start, span.end,
                         span.args or None, span.wall)

    def emit(self, category: str, name: str, start: float, end: float,
             parent_id: int = 0, wall: float = 0.0, **args: Any) -> None:
        """Record a complete span with explicit simulated times (used for
        per-hop link segments whose window is known when scheduled).

        Like :meth:`begin_flow` this records unconditionally: root emits
        are guarded by :meth:`sample` at the call site, child emits
        inherit the parent's head decision.
        """
        if not self.enabled:
            return
        self.ring.append(self._next_id, parent_id, category, name,
                         start, end, args or None, wall)
        self._next_id += 1

    # -- point data --------------------------------------------------------

    def instant(self, category: str, name: str, **args: Any) -> None:
        if not self.enabled:
            return
        self.instants.append(Instant(self.sim.now, category, name, args))

    def count(self, name: str, inc: float = 1.0) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + inc

    def record_audit(self, kind: str, /, **fields: Any):
        # ``kind`` is positional-only so records may carry a field that is
        # itself named "kind" (e.g. introspection count queries).
        """Append a RAML decision-audit record (see
        :class:`~repro.telemetry.audit.AuditLog`)."""
        if not self.enabled:
            return None
        return self.audit.record(self.sim.now, kind, fields)
