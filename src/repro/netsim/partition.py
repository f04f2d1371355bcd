"""Topology partitioning for sharded simulation.

The ADL-reconfiguration line of work argues the *architecture
description* should drive how a running system is split; here the
topology partition is that description: a :class:`Partition` assigns
every node to a region, declares the :class:`Boundary` links that cross
regions, and derives the **conservative lookahead** — the minimum
cross-region link latency — that :mod:`repro.parallel` uses as the safe
synchronization horizon (no message can cross a region boundary in less
simulated time than the slowest-safe bound, so regions may run
independently that far ahead).

:class:`RegionNetwork` is the per-region shard: a normal
:class:`~repro.netsim.network.Network` over the region's own nodes and
links, plus boundary handling — cross-region sends travel the local
topology to the boundary gateway, pay the boundary link's queueing,
transmission and propagation, and land in :attr:`RegionNetwork.outbox`
as plain tuples ready for a process pipe.  :meth:`RegionNetwork.ingress`
is the other half: it re-materializes an inbound tuple at its arrival
time and continues delivery over the local topology.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import NetworkError
from repro.events import Simulator
from repro.graphs import first_hops
from repro.netsim.message import Message
from repro.netsim.network import Network


@dataclass(frozen=True)
class Boundary:
    """A cross-region link between two gateway nodes.

    Boundary latency is the quantity that matters for correctness: the
    partition's lookahead is the minimum over all boundaries, so every
    boundary must have strictly positive latency.
    """

    a_region: int
    a_node: str
    b_region: int
    b_node: str
    latency: float
    bandwidth: float = 1_000_000.0
    loss: float = 0.0

    def gateway(self, region: int) -> str:
        """This boundary's gateway node inside ``region``."""
        if region == self.a_region:
            return self.a_node
        if region == self.b_region:
            return self.b_node
        raise NetworkError(f"boundary {self} does not touch region {region}")

    def peer(self, region: int) -> tuple[int, str]:
        """(remote region, remote gateway) as seen from ``region``."""
        if region == self.a_region:
            return self.b_region, self.b_node
        if region == self.b_region:
            return self.a_region, self.a_node
        raise NetworkError(f"boundary {self} does not touch region {region}")


class Partition:
    """Assignment of topology nodes to regions plus the boundary links.

    The partition is plain data (dicts and tuples) so it pickles across
    process boundaries; every worker holds the same copy and can answer
    ``region_of`` for any node in the whole topology without owning it.

    A million-node topology cannot afford a million-entry assignment
    dict in every worker process, so a partition may also take a
    ``resolver``: a callable mapping a node name to its region, or to
    ``None`` to decline — typically a small object that parses the
    region out of systematic names (``n3_1417`` → region 3).  Explicit
    assignments answer first, the resolver second, so memory is
    O(explicit assignments + boundaries) at any node count.  The
    resolver must be deterministic and picklable (a module-level
    function or an instance of a module-level class, not a lambda).
    """

    def __init__(self, regions: int,
                 resolver: Callable[[str], int | None] | None = None
                 ) -> None:
        if regions < 1:
            raise NetworkError(f"partition needs >= 1 region, got {regions}")
        self.regions = regions
        self._resolver = resolver
        self._node_region: dict[str, int] = {}
        self.boundaries: list[Boundary] = []
        self._next_hop: dict[tuple[int, int], Boundary] | None = None

    # -- building ----------------------------------------------------------

    def assign(self, node: str, region: int) -> None:
        """Place ``node`` in ``region``."""
        if not 0 <= region < self.regions:
            raise NetworkError(
                f"region {region} out of range 0..{self.regions - 1}")
        existing = self._node_region.get(node)
        if existing is not None and existing != region:
            raise NetworkError(
                f"node {node!r} already assigned to region {existing}")
        self._node_region[sys.intern(node)] = region

    def add_boundary(self, a_node: str, b_node: str, *,
                     latency: float, bandwidth: float = 1_000_000.0,
                     loss: float = 0.0) -> Boundary:
        """Declare a cross-region link between two already-assigned nodes."""
        if latency <= 0:
            raise NetworkError(
                f"boundary latency must be > 0 (it is the lookahead), "
                f"got {latency}")
        a_region = self.region_of(a_node)
        b_region = self.region_of(b_node)
        if a_region == b_region:
            raise NetworkError(
                f"boundary {a_node!r}<->{b_node!r} does not cross regions "
                f"(both in region {a_region})")
        boundary = Boundary(a_region, a_node, b_region, b_node,
                            latency, bandwidth, loss)
        self.boundaries.append(boundary)
        self._next_hop = None
        return boundary

    # -- queries -----------------------------------------------------------

    def region_of(self, node: str) -> int:
        try:
            return self._node_region[node]
        except KeyError:
            region = None if self._resolver is None else self._resolver(node)
        if region is None:
            raise NetworkError(f"node {node!r} not assigned to any region")
        if not 0 <= region < self.regions:
            raise NetworkError(
                f"resolver mapped {node!r} to region {region}, out of "
                f"range 0..{self.regions - 1}")
        return region

    def nodes_in(self, region: int) -> list[str]:
        """The explicitly assigned nodes of ``region`` (a resolver's
        population cannot be enumerated)."""
        return sorted(node for node, r in self._node_region.items()
                      if r == region)

    @property
    def lookahead(self) -> float:
        """The conservative horizon: minimum boundary latency.

        Any message created before time ``t`` cannot arrive in another
        region before ``t + lookahead``, so regions may safely run
        ``lookahead`` ahead of each other between exchanges.
        """
        if not self.boundaries:
            raise NetworkError(
                "partition has no boundaries; lookahead is undefined")
        return min(boundary.latency for boundary in self.boundaries)

    def next_hop(self, src_region: int, dst_region: int) -> Boundary:
        """First boundary on the min-latency region-level route."""
        if self._next_hop is None:
            self._build_next_hops()
        try:
            return self._next_hop[(src_region, dst_region)]
        except KeyError:
            raise NetworkError(
                f"no boundary route from region {src_region} "
                f"to region {dst_region}") from None

    def _build_next_hops(self) -> None:
        best: dict[tuple[int, int], Boundary] = {}
        for boundary in self.boundaries:
            key = (min(boundary.a_region, boundary.b_region),
                   max(boundary.a_region, boundary.b_region))
            current = best.get(key)
            if current is None or boundary.latency < current.latency:
                best[key] = boundary
        adjacency: dict[int, dict[int, float]] = {
            region: {} for region in range(self.regions)}
        for (a, b), boundary in best.items():
            adjacency[a][b] = boundary.latency
            adjacency[b][a] = boundary.latency
        table: dict[tuple[int, int], Boundary] = {}
        for src in range(self.regions):
            for dst, hop in first_hops(adjacency, src).items():
                table[(src, dst)] = best[(min(src, hop), max(src, hop))]
        self._next_hop = table

    def validate(self) -> None:
        """Check every region is populated (a resolver's population is
        its own contract) and every region can reach every other."""
        missing = set(range(self.regions)) - set(self._node_region.values())
        if missing and self._resolver is None:
            raise NetworkError(f"regions {sorted(missing)} have no nodes")
        if self.regions > 1:
            self._build_next_hops()
            for src in range(self.regions):
                for dst in range(self.regions):
                    if src != dst and (src, dst) not in (self._next_hop or {}):
                        raise NetworkError(
                            f"region {dst} unreachable from region {src}")


class RegionNetwork(Network):
    """One region's shard of a partitioned topology.

    Every message rides :class:`Network`'s one hop loop.  A message
    addressed to a remote node is routed to the boundary gateway toward
    its region (:meth:`_depart`); on reaching it (:meth:`_arrive`) it
    pays the boundary link (queueing + transmission + propagation, with
    deterministic loss from this region's seeded rng) and is appended to
    :attr:`outbox` as one plain tuple::

        ("msg", origin_region, to_region, entry_node, arrival_time, seq,
         source, destination, endpoint, payload, size, headers, sent_at,
         origin_msg_id)

    The coordinator moves outbox tuples across process pipes and the
    destination region's :meth:`ingress` continues delivery at
    ``arrival_time``.  ``seq`` is the tuple's position in this region's
    outbox for the round — part of the deterministic merge order.
    """

    def __init__(self, sim: Simulator, partition: Partition, region: int,
                 seed: int = 0) -> None:
        super().__init__(sim, seed=seed)
        self.partition = partition
        self.region = region
        #: Cross-region tuples produced since last drained (plain data).
        self.outbox: list[tuple] = []
        self.forwarded_out = 0
        self.ingressed = 0
        self._outbox_seq = 0

    # -- topology guard ----------------------------------------------------

    def add_node(self, name: str, capacity: float = 100.0,
                 region: str = "default") -> Any:
        owner = self.partition.region_of(name)
        if owner != self.region:
            raise NetworkError(
                f"node {name!r} belongs to region {owner}, not {self.region}")
        return super().add_node(name, capacity=capacity, region=region)

    # -- the hop loop's two ends -------------------------------------------

    def _depart(self, message: Message, position: str) -> None:
        """Route toward a local destination, or toward the gateway on the
        way to a remote destination's region."""
        partition = self.partition
        target = message.destination
        dst_region = partition.region_of(target)
        if dst_region != self.region:
            try:
                target = partition.next_hop(
                    self.region, dst_region).gateway(self.region)
            except NetworkError:
                self._drop(message, "no_route")
                return
        try:
            path = self.route(position, target)
        except NetworkError:
            self._drop(message, "no_route")
            return
        self.in_flight += 1
        self._forward(message, path, 0)

    def _arrive(self, message: Message) -> None:
        """Deliver a local message; a remote one has reached its gateway:
        pay the boundary link and post the pipe tuple."""
        region = self.region
        destination = message.destination
        # A shard holds only its own nodes: only one it lacks needs the
        # partition (and a local one it lacks drops as ``node_down``).
        dst_region = (region if destination in self.nodes
                      else self.partition.region_of(destination))
        if dst_region == region:
            Network._arrive(self, message)
            return
        boundary = self.partition.next_hop(region, dst_region)
        self.in_flight -= 1
        if boundary.loss and self.rng.random() < boundary.loss:
            self._drop(message, "loss")
            return
        gateway = boundary.gateway(region)
        to_region, entry_node = boundary.peer(region)
        now = self.sim.now
        key = ((gateway, entry_node) if gateway <= entry_node
               else (entry_node, gateway))
        transmitter = (key, gateway)
        free_at = self._transmitter_free_at
        start = max(now, free_at.get(transmitter, 0.0))
        transmission = message.size / boundary.bandwidth
        free_at[transmitter] = start + transmission
        arrival = start + transmission + boundary.latency
        span = message.trace_span
        if span is not None:
            message.trace_span = None
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.emit(
                    "net.hop", f"{gateway}->{entry_node}", now, arrival,
                    parent_id=span.span_id,
                    msg_id=message.msg_id,
                    queued=round(start - now, 9),
                    transmission=round(transmission, 9),
                    propagation=boundary.latency,
                )
                tracer.end_flow(span, outcome=f"egress:r{to_region}")
        headers = message.headers
        self._post(to_region, entry_node, arrival, message.source,
                   destination, message.endpoint, message.payload,
                   message.size, dict(headers), message.sent_at,
                   headers.get("x-origin", (region, message.msg_id)))
        self._notify(f"egress:r{to_region}", message)

    def _post(self, to_region: int, entry_node: str, arrival: float,
              source: str, destination: str, endpoint: str, payload: Any,
              size: int, headers: dict, sent_at: float,
              origin: tuple) -> None:
        """Append one boundary tuple (see the class docstring)."""
        seq = self._outbox_seq
        self._outbox_seq = seq + 1
        self.outbox.append((
            "msg", self.region, to_region, entry_node, arrival, seq,
            source, destination, endpoint, payload, size, headers, sent_at,
            origin,
        ))
        self.forwarded_out += 1

    # -- receiving ---------------------------------------------------------

    def ingress(self, record: tuple) -> None:
        """Continue delivery of an inbound boundary tuple.

        Must run *at* the tuple's arrival time (the worker schedules it
        there); the message re-materializes at its entry node on this
        region's side of the boundary and departs from there, toward a
        local destination or the next boundary.
        """
        (_, origin_region, to_region, entry_node, _arrival, _seq,
         source, destination, endpoint, payload, size, headers,
         sent_at, origin) = record
        if to_region != self.region:
            raise NetworkError(
                f"region {self.region} received a tuple for region "
                f"{to_region}")
        message = Message(source=source, destination=destination,
                          endpoint=endpoint, payload=payload, size=size,
                          headers=dict(headers))
        message.sent_at = sent_at
        message.headers["x-origin"] = tuple(origin)
        self.ingressed += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled \
                and tracer.sample("net.msg"):
            message.trace_span = tracer.begin_flow(
                "net.msg",
                f"{source}->{destination}/{endpoint}@r{self.region}",
                msg_id=message.msg_id, size=size,
                origin=f"r{origin[0]}#{origin[1]}",
            )
        self._notify("ingress", message)
        self._depart(message, entry_node)
