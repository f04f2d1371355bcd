"""Reference partitioned scenario: a ring of star regions.

The shared workload for the parallel tests, the S3 benchmark and the
examples: ``regions`` star topologies (one hub + ``leaves`` leaf nodes
each), hubs joined in a ring of boundary links.  Each region schedules an
open-loop message workload at build time from its own seeded rng — a
fixed fraction of messages crosses region boundaries — so the whole run
is a pure function of ``(partition shape, seed)`` regardless of backend.

Everything here is module-level (picklable under the ``spawn`` start
method); parameterize with :func:`functools.partial`, e.g.::

    build = partial(build_star_region, leaves=8, messages=2000,
                    until=10.0, cross_fraction=0.2)
    psim = ParallelSimulation(star_ring_partition(4, leaves=8), build)
"""

from __future__ import annotations

import random
from array import array

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim.message import Message, current_allocator
from repro.netsim.partition import Partition, RegionNetwork

#: Endpoint every leaf exposes; deliveries are observed through
#: ``NetworkStats.delivered`` rather than per-message callbacks.
ENDPOINT = "svc"


def hub_name(region: int) -> str:
    return f"hub{region}"


def leaf_name(region: int, index: int) -> str:
    return f"n{region}_{index}"


def star_ring_partition(regions: int = 4, leaves: int = 8,
                        boundary_latency: float = 0.01,
                        boundary_bandwidth: float = 1_000_000.0) -> Partition:
    """Assign ``regions`` stars and join the hubs in a boundary ring."""
    partition = Partition(regions)
    for region in range(regions):
        partition.assign(hub_name(region), region)
        for index in range(leaves):
            partition.assign(leaf_name(region, index), region)
    if regions > 1:
        for region in range(regions):
            peer = (region + 1) % regions
            if regions == 2 and region == 1:
                break  # two regions need one boundary, not two
            partition.add_boundary(hub_name(region), hub_name(peer),
                                   latency=boundary_latency,
                                   bandwidth=boundary_bandwidth)
    return partition


def _sink(node, message) -> None:
    """Leaf endpoint handler: delivery itself is the observable."""


def _send(net: RegionNetwork, source: str, destination: str,
          size: int) -> None:
    net.send(Message(source=source, destination=destination,
                     endpoint=ENDPOINT, size=size))


def build_star_region(region: int, sim: Simulator, partition: Partition,
                      seed: int, *, leaves: int = 8, messages: int = 2000,
                      until: float = 10.0, local_latency: float = 0.001,
                      cross_fraction: float = 0.2,
                      size: int = 256) -> RegionNetwork:
    """Build one star region and preschedule its open-loop workload.

    ``messages`` sends spread evenly over ``(0, until)``; each picks a
    seeded-random source leaf and, with probability ``cross_fraction``, a
    destination leaf in another region.  The rng is derived from
    ``(seed, region)`` only, so the same call in a worker process, the
    inline backend or a replayed restart schedules the identical
    workload.
    """
    net = RegionNetwork(sim, partition, region, seed=(seed << 8) ^ region)
    hub = hub_name(region)
    net.add_node(hub)
    names = []
    for index in range(leaves):
        name = leaf_name(region, index)
        node = net.add_node(name)
        node.bind_endpoint(ENDPOINT, _sink)
        net.add_link(hub, name, latency=local_latency)
        names.append(name)
    rng = random.Random((seed << 16) ^ (region + 1))
    others = [r for r in range(partition.regions) if r != region]
    step = until / (messages + 1)
    items = []
    for index in range(messages):
        when = (index + 1) * step
        source = names[rng.randrange(leaves)]
        if others and rng.random() < cross_fraction:
            target = others[rng.randrange(len(others))]
            destination = leaf_name(target, rng.randrange(leaves))
        else:
            destination = names[rng.randrange(leaves)]
        items.append((when, _send, (net, source, destination, size)))
    sim.schedule_many(items, absolute=True)
    return net


# -- memory-lean fast path ---------------------------------------------------
#
# The classic builder above materializes every leaf as a Node, every spoke
# as a Link and every send as a prescheduled event — fine at 10^3 nodes,
# hopeless at 10^6.  The lean variant below keeps the same logical topology
# (ring of stars) and the same coordinator contract (outbox tuples,
# ingress at arrival time, conservative boundary latency) but stores leaf
# state columnarly and drives the workload from a handful of
# self-rescheduling streams, so resident memory is O(leaves * 4 bytes)
# and the pending-event heap is O(streams + in-flight deliveries).


def leaf_index(name: str) -> int:
    """Inverse of :func:`leaf_name` (the ``_``-suffixed index)."""
    return int(name.rsplit("_", 1)[1])


class _StarRingResolver:
    """Picklable node→region formula for systematic star-ring names.

    ``hub3`` → 3, ``n3_1417`` → 3, anything else → ``None`` (the node
    is unassigned unless the partition assigns it explicitly).
    """

    __slots__ = ("regions",)

    def __init__(self, regions: int) -> None:
        self.regions = regions

    def __call__(self, node: str) -> int | None:
        if node.startswith("hub"):
            suffix = node[3:]
        elif node.startswith("n"):
            suffix = node[1:].split("_", 1)[0]
        else:
            return None
        try:
            return int(suffix)
        except ValueError:
            return None


def lean_star_partition(regions: int = 4,
                        boundary_latency: float = 0.01,
                        boundary_bandwidth: float = 1_000_000.0
                        ) -> Partition:
    """Star-ring partition whose node→region map is a name formula.

    Memory is O(regions) regardless of how many leaves each region
    holds; :func:`build_lean_star_region` decides the actual leaf count.
    """
    partition = Partition(regions, resolver=_StarRingResolver(regions))
    if regions > 1:
        for region in range(regions):
            peer = (region + 1) % regions
            if regions == 2 and region == 1:
                break  # two regions need one boundary, not two
            partition.add_boundary(hub_name(region), hub_name(peer),
                                   latency=boundary_latency,
                                   bandwidth=boundary_bandwidth)
    return partition


_MASK64 = (1 << 64) - 1


def _mix_delivery(t_ns: int, origin_region: int, msg_id: int,
                  leaf: int) -> int:
    """64-bit hash of one delivery, stable across interpreters/runs."""
    h = (t_ns * 0x9E3779B97F4A7C15
         + origin_region * 0xBF58476D1CE4E5B9
         + msg_id * 0x94D049BB133111EB
         + leaf * 0x2545F4914F6CDD1D) & _MASK64
    return h ^ (h >> 31)


class LeanStarRegion(RegionNetwork):
    """Columnar star shard: leaves are array slots, not :class:`Node`\\ s.

    Only the hub exists implicitly as the boundary gateway; per-leaf
    state is one ``array('I')`` of delivered counts.  Local delivery
    costs one scheduled event (leaf → hub → leaf, ``2 * local_latency``);
    cross-region sends append the standard 14-field outbox tuple after
    one local leg plus the boundary latency, so every arrival respects
    the partition lookahead and the coordinator needs no special casing.

    Determinism is checked through :attr:`digest` — an order-invariant
    (mod-2^64 sum) fold of ``(delivery time, origin region, message id,
    leaf)`` over all deliveries.  Because each message's delivery *time*
    is a pure function of the workload (never of round structure), the
    digest is identical across backends, even where trace record *order*
    differs.
    """

    def __init__(self, sim: Simulator, partition: Partition, region: int,
                 seed: int = 0, *, leaves: int,
                 local_latency: float = 0.001,
                 message_size: int = 256) -> None:
        super().__init__(sim, partition, region, seed=seed)
        self.leaves = leaves
        self.local_latency = local_latency
        self.message_size = message_size
        self.delivered_by_leaf = array("I", bytes(4 * leaves))
        self.digest = 0

    # -- lean delivery ----------------------------------------------------

    def lean_send_local(self, source_leaf: int, dest_leaf: int) -> None:
        """Leaf → hub → leaf inside this region: one delivery event."""
        self.stats.sent += 1
        self.in_flight += 1
        self.sim.schedule(self._lean_arrive, dest_leaf, self.region,
                          current_allocator().allocate(), self.sim.now,
                          delay=2 * self.local_latency)

    def lean_send_cross(self, source_leaf: int, to_region: int,
                        dest_leaf: int) -> None:
        """Leaf → hub (one local leg), then egress over the boundary."""
        self.stats.sent += 1
        now = self.sim.now
        msg_id = current_allocator().allocate()
        try:
            boundary = self.partition.next_hop(self.region, to_region)
        except NetworkError:
            self.stats.dropped_no_route += 1
            return
        next_region, entry_node = boundary.peer(self.region)
        self._post(next_region, entry_node,
                   now + self.local_latency + boundary.latency,
                   leaf_name(self.region, source_leaf),
                   leaf_name(to_region, dest_leaf), ENDPOINT, None,
                   self.message_size, {}, now, (self.region, msg_id))

    def _lean_arrive(self, leaf: int, origin_region: int, msg_id: int,
                     sent_at: float) -> None:
        now = self.sim.now
        self.in_flight -= 1
        self.delivered_by_leaf[leaf] += 1
        stats = self.stats
        stats.delivered += 1
        stats.total_latency += now - sent_at
        stats.total_bytes += self.message_size
        self.digest = (self.digest + _mix_delivery(
            round(now * 1e9), origin_region, msg_id, leaf)) & _MASK64

    # -- receiving --------------------------------------------------------

    def ingress(self, record: tuple) -> None:
        """Runs at the tuple's arrival time: transit tuples re-egress
        synchronously (hub to hub, no local leg); terminal tuples pay
        the hub → leaf leg and fold into the digest."""
        (_, _origin_region, to_region, _entry_node, _arrival, _seq,
         _source, destination, _endpoint, _payload, size, _headers,
         sent_at, origin) = record
        if to_region != self.region:
            raise NetworkError(
                f"region {self.region} received a tuple for region "
                f"{to_region}")
        self.ingressed += 1
        dest_region = self.partition.region_of(destination)
        if dest_region != self.region:
            boundary = self.partition.next_hop(self.region, dest_region)
            next_region, entry_node = boundary.peer(self.region)
            self._post(next_region, entry_node,
                       self.sim.now + boundary.latency, _source, destination,
                       _endpoint, _payload, size, _headers, sent_at,
                       tuple(origin))
            return
        self.in_flight += 1
        origin_region, msg_id = origin
        self.sim.schedule(self._lean_arrive, leaf_index(destination),
                          origin_region, msg_id, sent_at,
                          delay=self.local_latency)

    # -- reporting --------------------------------------------------------

    def extra_stats(self) -> dict[str, int]:
        """Merged into the region's stats snapshot by the runtime."""
        return {
            "digest": self.digest,
            "leaves": self.leaves,
            "max_leaf_delivered": (max(self.delivered_by_leaf)
                                   if self.leaves else 0),
        }


def build_lean_star_region(region: int, sim: Simulator,
                           partition: Partition, seed: int, *,
                           leaves: int = 1000, messages: int = 10_000,
                           until: float = 10.0, streams: int = 64,
                           cross_every: int = 5,
                           local_latency: float = 0.001,
                           size: int = 256) -> LeanStarRegion:
    """Build one lean star region driven by self-rescheduling streams.

    Message ``m`` (0-based) fires at ``(m + 1) * until / (messages + 1)``
    — the same cadence as :func:`build_star_region` — but instead of
    prescheduling ``messages`` events the workload runs as ``streams``
    generators, each keeping exactly one pending event and rescheduling
    itself after every send.  Message ``m`` crosses a boundary iff
    ``m % cross_every == 0`` (deterministic, not an rng draw).  Leaf
    choices come from the ``(seed, region)``-derived rng; stream ticks
    fire at strictly increasing distinct times, so the draw order — and
    therefore the workload — is a pure function of the build arguments.
    """
    net = LeanStarRegion(sim, partition, region, seed=(seed << 8) ^ region,
                         leaves=leaves, local_latency=local_latency,
                         message_size=size)
    rng = random.Random((seed << 16) ^ (region + 1))
    others = [r for r in range(partition.regions) if r != region]
    step = until / (messages + 1)
    every = cross_every if others else 0
    n_streams = max(1, min(streams, messages))

    def tick(m: int) -> None:
        source = rng.randrange(leaves)
        if every and m % every == 0:
            net.lean_send_cross(source, others[rng.randrange(len(others))],
                                rng.randrange(leaves))
        else:
            net.lean_send_local(source, rng.randrange(leaves))
        nxt = m + n_streams
        if nxt < messages:
            sim.schedule(tick, nxt, at=(nxt + 1) * step)

    for stream in range(min(n_streams, messages)):
        sim.schedule(tick, stream, at=(stream + 1) * step)
    return net
