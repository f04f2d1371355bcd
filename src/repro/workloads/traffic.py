"""Request traffic generators.

Open-loop (fixed arrival rate) and closed-loop (fixed concurrency)
drivers that issue calls through any callable transport — a binding, a
connector endpoint or an ORB proxy — and account successes, failures and
latencies into a metric registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.events import Simulator
from repro.qos.metrics import MetricRegistry

#: Transport: fn(operation, args, on_result, on_error) — must be async
#: (callbacks fire later or immediately).
AsyncTransport = Callable[
    [str, tuple, Callable[[Any], None], Callable[[Exception], None]], None
]


@dataclass
class TrafficStats:
    issued: int = 0
    succeeded: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def success_ratio(self) -> float:
        done = self.succeeded + self.failed
        return self.succeeded / done if done else 1.0


class OpenLoopGenerator:
    """Issues requests at a (possibly Poisson) arrival rate."""

    def __init__(self, sim: Simulator, transport: AsyncTransport,
                 operation: str,
                 make_args: Callable[[int], tuple] = lambda i: (),
                 rate: float = 100.0,
                 poisson: bool = False,
                 seed: int = 0,
                 registry: MetricRegistry | None = None,
                 metric: str = "latency") -> None:
        self.sim = sim
        self.transport = transport
        self.operation = operation
        self.make_args = make_args
        self.rate = rate
        self.poisson = poisson
        self.rng = random.Random(seed)
        self.registry = registry
        self.metric = metric
        self.stats = TrafficStats()
        self._running = False
        self._chained = True

    def _interval(self) -> float:
        if self.poisson:
            return self.rng.expovariate(self.rate)
        return 1.0 / self.rate

    def start(self, duration: float | None = None,
              preschedule: bool = False) -> "OpenLoopGenerator":
        """Begin issuing requests.

        With ``preschedule=True`` (requires ``duration``) every arrival
        instant is drawn up front and bulk-inserted with
        ``Simulator.schedule_many`` instead of a schedule-per-arrival
        chain; the arrivals are in time order, so they join the kernel's
        sorted run, not its heap, unless they start before the run's
        last entry.  Arrival times and the RNG draw
        sequence are identical to the chained mode; only the event
        insertion order differs (all arrivals first), so use it for
        throughput drivers, not for interleaving-sensitive replays.
        """
        self._running = True
        stop_at = None if duration is None else self.sim.now + duration
        if preschedule:
            if stop_at is None:
                raise ValueError("preschedule requires a duration")
            self._chained = False
            items = []
            t = self.sim.now
            while True:
                t += self._interval()
                if t > stop_at:
                    break
                items.append((t, self._fire, (stop_at,)))
            self.sim.schedule_many(items, absolute=True)
        else:
            self._chained = True
            self._schedule_next(stop_at)
        return self

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self, stop_at: float | None) -> None:
        if not self._running or not self._chained:
            return
        interval = self._interval()
        if stop_at is not None and self.sim.now + interval > stop_at:
            self._running = False
            return
        self.sim.schedule(self._fire, stop_at, delay=interval)

    def _fire(self, stop_at: float | None) -> None:
        if not self._running:
            return
        index = self.stats.issued
        self.stats.issued += 1
        sent_at = self.sim.now

        def on_result(_result: Any) -> None:
            latency = self.sim.now - sent_at
            self.stats.succeeded += 1
            self.stats.latencies.append(latency)
            if self.registry is not None:
                self.registry.record(self.metric, latency, self.sim.now)

        def on_error(_error: Exception) -> None:
            self.stats.failed += 1
            if self.registry is not None:
                self.registry.record(f"{self.metric}.errors", 1.0, self.sim.now)

        self.transport(self.operation, self.make_args(index),
                       on_result, on_error)
        self._schedule_next(stop_at)


class ClosedLoopGenerator:
    """Keeps ``concurrency`` requests outstanding (think-time optional)."""

    def __init__(self, sim: Simulator, transport: AsyncTransport,
                 operation: str,
                 make_args: Callable[[int], tuple] = lambda i: (),
                 concurrency: int = 4,
                 think_time: float = 0.0,
                 registry: MetricRegistry | None = None,
                 metric: str = "latency") -> None:
        self.sim = sim
        self.transport = transport
        self.operation = operation
        self.make_args = make_args
        self.concurrency = concurrency
        self.think_time = think_time
        self.registry = registry
        self.metric = metric
        self.stats = TrafficStats()
        self._running = False

    def start(self) -> "ClosedLoopGenerator":
        self._running = True
        for _ in range(self.concurrency):
            self.sim.call_soon(self._issue)
        return self

    def stop(self) -> None:
        self._running = False

    def _issue(self) -> None:
        if not self._running:
            return
        index = self.stats.issued
        self.stats.issued += 1
        sent_at = self.sim.now

        def again() -> None:
            if self.think_time > 0:
                self.sim.schedule(self._issue, delay=self.think_time)
            else:
                self.sim.call_soon(self._issue)

        def on_result(_result: Any) -> None:
            latency = self.sim.now - sent_at
            self.stats.succeeded += 1
            self.stats.latencies.append(latency)
            if self.registry is not None:
                self.registry.record(self.metric, latency, self.sim.now)
            again()

        def on_error(_error: Exception) -> None:
            self.stats.failed += 1
            again()

        self.transport(self.operation, self.make_args(index),
                       on_result, on_error)


def binding_transport(required_port: Any) -> AsyncTransport:
    """Adapt a kernel required port to the generator transport API."""

    def transport(operation: str, args: tuple,
                  on_result: Callable[[Any], None],
                  on_error: Callable[[Exception], None]) -> None:
        try:
            required_port.call_async(operation, *args, on_result=on_result)
        except Exception as exc:  # noqa: BLE001 - routed to accounting
            on_error(exc)

    return transport


def proxy_transport(proxy: Any) -> AsyncTransport:
    """Adapt a middleware proxy to the generator transport API."""

    def transport(operation: str, args: tuple,
                  on_result: Callable[[Any], None],
                  on_error: Callable[[Exception], None]) -> None:
        proxy.call(operation, *args, on_result=on_result, on_error=on_error)

    return transport
