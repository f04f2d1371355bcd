"""The simulated network: nodes, links, routing and delivery.

:class:`Network` owns the topology and moves :class:`Message` objects
between nodes over multi-hop shortest-latency routes.  Delivery takes
simulated time (per-hop propagation + transmission) and may fail (link
loss, node crash); the upper layers observe exactly what a real
distributed system would: delay, loss and unreachability.
"""

from __future__ import annotations

import random
import sys
from typing import Callable, Iterable

from repro.errors import LinkDownError, NetworkError, NodeDownError
from repro.events import DEFAULT_PRIORITY, Simulator
from repro.graphs import Adjacency, shortest_path
from repro.netsim.link import Link
from repro.netsim.message import Message
from repro.netsim.node import Node


class NetworkStats:
    """Aggregate counters for one network instance."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_link_down = 0
        self.dropped_node_down = 0
        self.dropped_no_route = 0
        self.total_latency = 0.0
        self.total_bytes = 0

    @property
    def dropped(self) -> int:
        return (
            self.dropped_loss
            + self.dropped_link_down
            + self.dropped_node_down
            + self.dropped_no_route
        )

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.delivered if self.delivered else 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "mean_latency": self.mean_latency,
            "total_bytes": self.total_bytes,
        }


class Network:
    """A topology of nodes and links with latency-aware routing.

    Routes are shortest paths by current link latency, recomputed lazily
    whenever the topology or link states change.
    """

    def __init__(self, sim: Simulator, seed: int = 0) -> None:
        self.sim = sim
        self.rng = random.Random(seed)
        self.nodes: dict[str, Node] = {}
        self.links: dict[tuple[str, str], Link] = {}
        self.stats = NetworkStats()
        self._graph_dirty = True
        self._adjacency: Adjacency = {}
        # Shortest-path cache, invalidated with the graph: message
        # delivery is a per-event caller, so repeated sends between the
        # same pair must not pay Dijkstra every time.  ``None`` caches a
        # negative result (no route) until the topology changes.
        self._route_cache: dict[tuple[str, str], list[str] | None] = {}
        # Path intern table: distinct (source, destination) pairs whose
        # shortest paths coincide (every leaf->hub route in a star, the
        # shared trunk of a datacenter) cache ONE list object, so the
        # route cache grows with unique paths, not unique pairs.
        self._path_intern: dict[tuple[str, ...], list[str]] = {}
        self.in_flight = 0
        # Per-direction transmitter occupancy: concurrent messages on the
        # same link direction serialize behind each other (full-duplex
        # links: the two directions are independent transmitters).
        self._transmitter_free_at: dict[tuple[tuple[str, str], str], float] = {}
        #: Observers called as fn(event_name, message) on send/deliver/drop.
        self.taps: list[Callable[[str, Message], None]] = []

    # -- topology -----------------------------------------------------------

    def add_node(
        self, name: str, capacity: float = 100.0, region: str = "default"
    ) -> Node:
        """Create and register a node."""
        if name in self.nodes:
            raise NetworkError(f"node {name!r} already exists")
        # Interned names: node names recur as dict keys, link endpoints,
        # route entries and message addresses; one string object each.
        name = sys.intern(name)
        node = Node(name, self.sim, capacity=capacity, region=region)
        self.nodes[name] = node
        self._graph_dirty = True
        return node

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = 0.001,
        bandwidth: float = 1_000_000.0,
        loss: float = 0.0,
    ) -> Link:
        """Create and register a bidirectional link between two nodes."""
        for name in (a, b):
            if name not in self.nodes:
                raise NetworkError(f"cannot link unknown node {name!r}")
        if a == b:
            raise NetworkError(f"cannot link node {a!r} to itself")
        link = Link(a, b, latency=latency, bandwidth=bandwidth, loss=loss)
        if link.key in self.links:
            raise NetworkError(f"link {link.key} already exists")
        self.links[link.key] = link
        self._graph_dirty = True
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Remove the a-b link from the topology.

        Unlike a failure (:meth:`Link.fail`), the link is gone for good;
        routes through it are recomputed on the next lookup.
        """
        key = (a, b) if a <= b else (b, a)
        try:
            link = self.links.pop(key)
        except KeyError:
            raise LinkDownError(f"no link between {a!r} and {b!r}") from None
        self._graph_dirty = True
        return link

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def link_between(self, a: str, b: str) -> Link:
        key = (a, b) if a <= b else (b, a)
        try:
            return self.links[key]
        except KeyError:
            raise LinkDownError(f"no link between {a!r} and {b!r}") from None

    def invalidate_routes(self) -> None:
        """Force route recomputation (call after link failures/repairs)."""
        self._graph_dirty = True

    def _rebuild_graph(self) -> None:
        adjacency: Adjacency = {
            name: {} for name, node in self.nodes.items() if node.up}
        for link in self.links.values():
            if link.up and link.a in adjacency and link.b in adjacency:
                adjacency[link.a][link.b] = link.latency
                adjacency[link.b][link.a] = link.latency
        self._adjacency = adjacency
        self._graph_dirty = False
        self._route_cache.clear()
        self._path_intern.clear()

    def route(self, source: str, destination: str) -> list[str]:
        """Shortest-latency node path, inclusive of both ends.

        Paths are cached until the topology or link states change.
        Raises :class:`NetworkError` when no route exists, including
        from an unknown or down node to itself.
        """
        if self._graph_dirty:
            self._rebuild_graph()
        if source == destination and source in self._adjacency:
            return [source]
        key = (source, destination)
        cache = self._route_cache
        path = cache.get(key, False)
        if path is False:
            path = shortest_path(self._adjacency, source, destination)
            if path is not None:
                path = self._path_intern.setdefault(tuple(path), path)
            cache[key] = path
        if path is None:
            raise NetworkError(
                f"no route from {source!r} to {destination!r}"
            )
        return path

    # -- delivery -----------------------------------------------------------

    def send(self, message: Message) -> None:
        """Inject a message; it is delivered (or dropped) asynchronously."""
        message.sent_at = self.sim.now
        self.stats.sent += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled \
                and tracer.sample("net.msg"):
            # Message lineage root: hops attach as children, so an
            # end-to-end latency decomposes into per-link segments.  The
            # head decision comes first so an unsampled message never
            # pays for the name or the args dict.
            message.trace_span = tracer.begin_flow(
                "net.msg",
                f"{message.source}->{message.destination}/{message.endpoint}",
                msg_id=message.msg_id, size=message.size,
            )
        self._notify("send", message)
        source = self.nodes.get(message.source)
        if source is None or not source.up:
            self._drop(message, "node_down")
            return
        self._depart(message, message.source)

    def _depart(self, message: Message, position: str) -> None:
        """Route ``message`` from ``position`` and take its first hop."""
        try:
            path = self.route(position, message.destination)
        except NetworkError:
            self._drop(message, "no_route")
            return
        self.in_flight += 1
        self._forward(message, path, 0)

    def _forward(self, message: Message, path: list[str], hop_index: int) -> None:
        """Advance a message one hop along its precomputed path.

        The link is looked up afresh at every hop, so one removed,
        replaced, failed or re-tuned since the message left shapes this
        hop as the topology now stands.
        """
        if hop_index >= len(path) - 1:
            self._arrive(message)
            return
        here, there = path[hop_index], path[hop_index + 1]
        key = (here, there) if here <= there else (there, here)
        link = self.links.get(key)
        if link is None or not link.up:
            self.in_flight -= 1
            self._drop(message, "link_down")
            return
        if link.loss and self.rng.random() < link.loss:
            link.dropped_messages += 1
            self.in_flight -= 1
            self._drop(message, "loss")
            return
        size = message.size
        link.transferred_messages += 1
        link.transferred_bytes += size
        # Serialize behind earlier traffic in this direction, then pay
        # transmission + propagation.
        transmitter = (key, here)
        sim = self.sim
        now = sim.now
        free_at = self._transmitter_free_at
        start = max(now, free_at.get(transmitter, 0.0))
        transmission = size / link.bandwidth
        free_at[transmitter] = start + transmission
        delay = (start - now) + transmission + link.latency
        span = message.trace_span
        if span is not None:
            # The hop's in-flight window is fully known here: queueing
            # behind earlier traffic, then transmission, then propagation.
            tracer = sim.tracer
            if tracer is not None:
                tracer.emit(
                    "net.hop", f"{here}->{there}", now, now + delay,
                    parent_id=span.span_id,
                    msg_id=message.msg_id,
                    queued=round(start - now, 9),
                    transmission=round(transmission, 9),
                    propagation=link.latency,
                )
        # The kernel's shared push path: the hop's absolute time is known,
        # so it skips ``schedule()``'s keyword handling.
        sim._schedule_at(now + delay, self._forward,
                         (message, path, hop_index + 1), DEFAULT_PRIORITY)

    def _arrive(self, message: Message) -> None:
        self.in_flight -= 1
        node = self.nodes.get(message.destination)
        if node is None or not node.up:
            self._drop(message, "node_down")
            return
        self.stats.delivered += 1
        self.stats.total_latency += self.sim.now - message.sent_at
        self.stats.total_bytes += message.size
        self._notify("deliver", message)
        try:
            node.deliver(message)
        except NodeDownError:
            # Node crashed between the liveness check and delivery.
            self.stats.delivered -= 1
            self._drop(message, "node_down")
            return
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end_flow(
                    span, outcome="delivered",
                    latency=round(self.sim.now - message.sent_at, 9),
                )

    def _drop(self, message: Message, reason: str) -> None:
        counter = f"dropped_{reason}"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end_flow(span, outcome=f"drop:{reason}")
                tracer.count(f"net.{counter}")
        self._notify(f"drop:{reason}", message)

    def _notify(self, event: str, message: Message) -> None:
        if not self.taps:
            return
        for tap in self.taps:
            tap(event, message)

    # -- convenience --------------------------------------------------------

    def live_nodes(self) -> Iterable[Node]:
        return [node for node in self.nodes.values() if node.up]

    def utilisation_map(self) -> dict[str, float]:
        """Current utilisation per live node — the RAML observation feed."""
        return {name: n.utilisation for name, n in self.nodes.items() if n.up}
