"""Installation and assembly instrumentation.

:func:`install` is the one-call entry point: create a tracer, attach it
to the simulator (``sim.tracer``) and wire the kernel hooks.  Every
subsystem that takes a simulator — the network, RAML, the reconfiguration
engine, control loops, QoS monitors — discovers the tracer through that
attribute, so installing telemetry *after* building a system still
captures everything from that point on.

Connectors, ports and bindings do not hold a simulator; they are traced
through their existing observer pipelines via
:func:`instrument_assembly` — zero overhead for untraced assemblies.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, TYPE_CHECKING

from repro.telemetry.hooks import KernelInstrumentation
from repro.telemetry.ring import DEFAULT_CAPACITY
from repro.telemetry.sampling import (
    ALWAYS_ON_CATEGORIES,
    Sampler,
    SamplingPolicy,
)
from repro.telemetry.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.simulator import Simulator


def install(sim: "Simulator", *,
            enabled: bool = True,
            sample_rate: float = 1.0,
            ring_slots: int = DEFAULT_CAPACITY,
            categories: dict[str, float] | None = None,
            always: Iterable[str] = ALWAYS_ON_CATEGORIES,
            seed: int = 0,
            kernel_detail: str | None = "aggregate") -> Tracer:
    """Create and attach a tracer to ``sim``: tracer, sampler and span
    ring, wired in one call::

        tracer = telemetry.install(
            sim, sample_rate=0.01, ring_slots=1 << 17,
            categories={"net.msg": 0.001, "connector": 0.1})

    Args:
        enabled: start recording immediately; a disabled tracer costs one
            boolean check per call site and installs no kernel hooks
            until :meth:`Tracer.enable`.
        sample_rate: global head-sampling rate for trace roots and kernel
            events in [0, 1]; ``1.0`` records everything, ``0.01`` is
            the production-overhead setting.
        ring_slots: span-ring capacity (see
            :class:`~repro.telemetry.ring.SpanRing`); the ring drops
            oldest-first once full and counts the drops.
        categories: per-category sample-rate overrides, e.g. run a
            chatty flow category at 0.1% while the rest samples at 1%.
            ``always`` categories ignore both the global rate and any
            override.
        always: categories recorded unconditionally (defaults to the
            meta-level decision categories).
        seed: sampling-stream seed — same seed, same workload, same
            sampled span set (the determinism contract).
        kernel_detail: ``"aggregate"`` (per-site counters),
            ``"events"`` (full kernel timeline in the trace) or ``None``
            (no kernel hooks at all).

    Returns the attached :class:`Tracer` (also reachable as
    ``sim.tracer``).  Installing again replaces the previous tracer and
    its kernel hooks; install before running, not mid-run.
    """
    policy = SamplingPolicy(rate=sample_rate, always=always, seed=seed,
                            overrides=categories)
    tracer = Tracer(sim, enabled=enabled, sampling=policy,
                    capacity=ring_slots)
    if kernel_detail is not None:
        # The kernel draws from its own stream so enabling/disabling span
        # consumers never shifts which events get sampled (and vice versa).
        sampler = (Sampler(policy.rate, policy.seed, stream=2)
                   if policy.rate < 1.0 else None)
        tracer.kernel = KernelInstrumentation(tracer, detail=kernel_detail,
                                              sampler=sampler)
    sim.set_hooks(tracer.kernel if enabled else None)
    sim.tracer = tracer
    return tracer


def uninstall(sim: "Simulator") -> None:
    """Detach telemetry; the simulator returns to the free path."""
    sim.set_hooks(None)
    sim.tracer = None


def instrument_connector(tracer: Tracer, connector: Any) -> None:
    """Emit one span per connector invocation via its observer pipeline.

    Connector calls nest synchronously (the glue may call through other
    connectors), so an explicit stack pairs before/after phases.  The
    head sampling decision is made in the *before* phase — an unsampled
    invocation pushes a ``None`` marker and assembles no span arguments.
    Retries inside the glue surface through ``invocation.meta['attempts']``.
    A connector already instrumented for ``tracer`` is left as it is.
    """
    if connector in tracer._connectors:
        return
    tracer._connectors.add(connector)
    stack: list[tuple[float, float] | None] = []

    def observer(phase: str, role: str, invocation: Any, payload: Any) -> None:
        if not tracer.enabled:
            stack.clear()
            return
        if phase == "before":
            stack.append((tracer.sim.now, perf_counter())
                         if tracer.sample("connector") else None)
            return
        if not stack:
            return
        entry = stack.pop()
        if entry is None:
            if phase == "error":
                tracer.count(f"connector.{connector.name}.errors")
            return
        start, wall0 = entry
        args: dict[str, Any] = {"role": role, "op": invocation.operation,
                                "outcome": "ok" if phase == "after" else "error"}
        attempts = invocation.meta.get("attempts")
        if attempts:
            args["attempts"] = attempts
        if phase == "error":
            args["error"] = repr(payload)
            tracer.count(f"connector.{connector.name}.errors")
        tracer.emit("connector", f"{connector.name}.{invocation.operation}",
                    start, tracer.sim.now, wall=perf_counter() - wall0, **args)

    connector.observers.append(observer)


def instrument_assembly(tracer: Tracer, assembly: Any) -> Tracer:
    """Trace every connector currently in an assembly; calling it again
    (say, after a reconfiguration adds a connector) instruments only the
    connectors new to ``tracer``."""
    for connector in assembly.connectors.values():
        instrument_connector(tracer, connector)
    return tracer
