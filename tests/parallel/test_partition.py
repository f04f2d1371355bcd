"""Partition + RegionNetwork: assignment, lookahead, boundary delivery."""

import pytest

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim import (
    Boundary,
    Message,
    MessageIdAllocator,
    Partition,
    RegionNetwork,
    use_allocator,
)


def two_region_partition():
    partition = Partition(2)
    for region in (0, 1):
        partition.assign(f"hub{region}", region)
        for index in range(2):
            partition.assign(f"n{region}_{index}", region)
    partition.add_boundary("hub0", "hub1", latency=0.01)
    return partition


def build_region(partition, region, seed=0):
    use_allocator(MessageIdAllocator(region * 1_000_000 + 1))
    sim = Simulator()
    net = RegionNetwork(sim, partition, region, seed=seed)
    net.add_node(f"hub{region}")
    delivered = []
    for index in range(2):
        node = net.add_node(f"n{region}_{index}")
        node.bind_endpoint(
            "svc", lambda node, msg: delivered.append(msg))
        net.add_link(f"hub{region}", f"n{region}_{index}", latency=0.001)
    return sim, net, delivered


def drive_rounds(partition, sims, nets, until):
    """Minimal coordinator: fixed-lookahead barrier rounds."""
    horizon = partition.lookahead
    now = 0.0
    inject = {region: [] for region in nets}
    while now < until:
        boundary = min(now + horizon, until)
        for region, net in nets.items():
            if inject[region]:
                sims[region].schedule_many(
                    [(rec[4], net.ingress, (rec,)) for rec in inject[region]],
                    absolute=True)
            sims[region].run(until=boundary, inclusive=boundary >= until)
        inject = {region: [] for region in nets}
        for net in nets.values():
            for record in net.outbox:
                inject[record[2]].append(record)
            net.outbox = []
        now = boundary


class TestPartition:
    def test_assign_and_region_of(self):
        partition = Partition(2)
        partition.assign("a", 0)
        partition.assign("b", 1)
        assert partition.region_of("a") == 0
        assert partition.nodes_in(1) == ["b"]

    def test_resolver_answers_after_explicit_assignments(self):
        partition = Partition(
            2, resolver=lambda node: 1 if node.startswith("r1") else None)
        partition.assign("r1_gateway", 0)
        assert partition.region_of("r1_gateway") == 0
        assert partition.region_of("r1_leaf") == 1
        with pytest.raises(NetworkError):
            partition.region_of("elsewhere")
        partition.add_boundary("r1_gateway", "r1_leaf", latency=0.01)
        # Region 1 has no explicit nodes: its population is the
        # resolver's contract, so validation checks reachability only.
        assert partition.nodes_in(1) == []
        partition.validate()

    def test_unassigned_node_raises(self):
        partition = Partition(1)
        with pytest.raises(NetworkError):
            partition.region_of("ghost")

    def test_reassignment_conflict_raises(self):
        partition = Partition(2)
        partition.assign("a", 0)
        with pytest.raises(NetworkError):
            partition.assign("a", 1)

    def test_boundary_must_cross_regions(self):
        partition = Partition(2)
        partition.assign("a", 0)
        partition.assign("b", 0)
        with pytest.raises(NetworkError):
            partition.add_boundary("a", "b", latency=0.01)

    def test_boundary_latency_must_be_positive(self):
        partition = two_region_partition()
        with pytest.raises(NetworkError):
            partition.add_boundary("n0_0", "n1_0", latency=0.0)

    def test_lookahead_is_min_boundary_latency(self):
        partition = two_region_partition()
        partition.add_boundary("n0_0", "n1_0", latency=0.005)
        assert partition.lookahead == 0.005

    def test_lookahead_without_boundaries_raises(self):
        partition = Partition(1)
        partition.assign("a", 0)
        with pytest.raises(NetworkError):
            partition.lookahead

    def test_validate_rejects_empty_region(self):
        partition = Partition(2)
        partition.assign("a", 0)
        with pytest.raises(NetworkError):
            partition.validate()

    def test_validate_rejects_unreachable_region(self):
        partition = Partition(3)
        for region in range(3):
            partition.assign(f"g{region}", region)
        partition.add_boundary("g0", "g1", latency=0.01)
        with pytest.raises(NetworkError):
            partition.validate()

    def test_next_hop_routes_via_min_latency(self):
        partition = Partition(3)
        for region in range(3):
            partition.assign(f"g{region}", region)
        direct = partition.add_boundary("g0", "g2", latency=0.05)
        partition.add_boundary("g0", "g1", latency=0.01)
        partition.add_boundary("g1", "g2", latency=0.01)
        # two cheap hops (0.02) beat the direct boundary (0.05)
        assert partition.next_hop(0, 2).peer(0)[0] == 1
        assert isinstance(direct, Boundary)

    def test_boundary_gateway_and_peer(self):
        partition = two_region_partition()
        boundary = partition.boundaries[0]
        assert boundary.gateway(0) == "hub0"
        assert boundary.peer(0) == (1, "hub1")
        with pytest.raises(NetworkError):
            boundary.gateway(7)


class TestRegionNetwork:
    def test_rejects_foreign_node(self):
        partition = two_region_partition()
        sim = Simulator()
        net = RegionNetwork(sim, partition, 0)
        with pytest.raises(NetworkError):
            net.add_node("hub1")

    def test_local_send_behaves_like_network(self):
        partition = two_region_partition()
        sim, net, delivered = build_region(partition, 0)
        net.send(Message(source="n0_0", destination="n0_1", endpoint="svc"))
        sim.run(until=1.0)
        assert len(delivered) == 1
        assert net.outbox == []
        assert net.stats.delivered == 1

    def test_cross_send_egresses_a_plain_tuple(self):
        partition = two_region_partition()
        sim, net, _ = build_region(partition, 0)
        net.send(Message(source="n0_0", destination="n1_1", endpoint="svc"))
        sim.run(until=1.0)
        assert len(net.outbox) == 1
        record = net.outbox[0]
        assert record[0] == "msg"
        assert record[1:4] == (0, 1, "hub1")  # origin, to_region, entry node
        assert record[4] >= partition.lookahead  # arrival respects lookahead
        assert record[7] == "n1_1"
        assert net.forwarded_out == 1
        assert net.in_flight == 0
        assert net.stats.sent == 1 and net.stats.delivered == 0

    def test_cross_delivery_end_to_end(self):
        partition = two_region_partition()
        sims, nets, boxes = {}, {}, {}
        for region in (0, 1):
            sims[region], nets[region], boxes[region] = build_region(
                partition, region)
        nets[0].send(Message(source="n0_0", destination="n1_1",
                             endpoint="svc"))
        drive_rounds(partition, sims, nets, until=1.0)
        assert len(boxes[1]) == 1
        message = boxes[1][0]
        assert message.source == "n0_0"
        # end-to-end latency spans both regions and the boundary
        latency = nets[1].stats.mean_latency
        assert latency > partition.lookahead
        assert nets[1].ingressed == 1

    def test_ingress_preserves_sent_at_and_origin(self):
        partition = two_region_partition()
        sims, nets, boxes = {}, {}, {}
        for region in (0, 1):
            sims[region], nets[region], boxes[region] = build_region(
                partition, region)
        nets[0].send(Message(source="n0_0", destination="n1_0",
                             endpoint="svc", payload={"k": 1}))
        drive_rounds(partition, sims, nets, until=1.0)
        message = boxes[1][0]
        assert message.payload == {"k": 1}
        assert message.sent_at == 0.0
        origin_region, origin_id = message.headers["x-origin"]
        assert origin_region == 0

    def test_ingress_rejects_wrong_region(self):
        partition = two_region_partition()
        sim, net, _ = build_region(partition, 0)
        record = ("msg", 1, 1, "hub1", 0.5, 0, "n1_0", "n1_1", "svc",
                  None, 256, {}, 0.0, (1, 1))
        with pytest.raises(NetworkError):
            net.ingress(record)

    def test_multi_region_forwarding_through_middle_region(self):
        partition = Partition(3)
        for region in range(3):
            partition.assign(f"hub{region}", region)
            partition.assign(f"n{region}_0", region)
            partition.assign(f"n{region}_1", region)
        partition.add_boundary("hub0", "hub1", latency=0.01)
        partition.add_boundary("hub1", "hub2", latency=0.01)
        sims, nets, boxes = {}, {}, {}
        for region in range(3):
            use_allocator(MessageIdAllocator(region * 1_000_000 + 1))
            sim = Simulator()
            net = RegionNetwork(sim, partition, region, seed=region)
            net.add_node(f"hub{region}")
            delivered = []
            for index in range(2):
                node = net.add_node(f"n{region}_{index}")
                node.bind_endpoint(
                    "svc", lambda node, msg: delivered.append(msg))
                net.add_link(f"hub{region}", f"n{region}_{index}",
                             latency=0.001)
            sims[region], nets[region], boxes[region] = sim, net, delivered
        nets[0].send(Message(source="n0_0", destination="n2_1",
                             endpoint="svc"))
        drive_rounds(partition, sims, nets, until=1.0)
        assert len(boxes[2]) == 1
        # region 1 forwarded without delivering
        assert nets[1].ingressed == 1
        assert nets[1].forwarded_out == 1
        assert nets[1].stats.delivered == 0

    def test_cross_send_from_downed_source_drops(self):
        partition = two_region_partition()
        sim, net, _ = build_region(partition, 0)
        net.node("n0_0").crash()
        net.send(Message(source="n0_0", destination="n1_1", endpoint="svc"))
        sim.run(until=1.0)
        assert net.outbox == []
        assert net.stats.dropped_node_down == 1

    def test_cross_send_without_route_to_gateway_drops(self):
        partition = two_region_partition()
        use_allocator(MessageIdAllocator(1))
        sim = Simulator()
        net = RegionNetwork(sim, partition, 0)
        net.add_node("hub0")
        net.add_node("n0_0")  # deliberately not linked to the hub
        net.send(Message(source="n0_0", destination="n1_1", endpoint="svc"))
        sim.run(until=1.0)
        assert net.stats.dropped_no_route == 1
        assert net.in_flight == 0
