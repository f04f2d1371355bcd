"""Unit tests for topology builders and failure injection."""

import pytest

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim import (
    FailureInjector,
    Message,
    datacenter,
    full_mesh,
    hosts,
    line,
    ring,
    star,
)


class TestTopologies:
    def test_star_shape(self):
        net = star(Simulator(), leaves=3)
        assert set(net.nodes) == {"hub", "leaf0", "leaf1", "leaf2"}
        assert len(net.links) == 3
        assert net.route("leaf0", "leaf2") == ["leaf0", "hub", "leaf2"]

    def test_line_shape(self):
        net = line(Simulator(), length=4)
        assert net.route("n0", "n3") == ["n0", "n1", "n2", "n3"]

    def test_ring_has_two_directions(self):
        net = ring(Simulator(), size=6)
        assert len(net.links) == 6
        # Shortest way from n0 to n5 is the single back-edge.
        assert net.route("n0", "n5") == ["n0", "n5"]

    def test_mesh_is_single_hop_everywhere(self):
        net = full_mesh(Simulator(), size=5)
        assert len(net.links) == 10
        assert net.route("n0", "n4") == ["n0", "n4"]

    def test_datacenter_shape_and_hosts(self):
        net = datacenter(Simulator(), racks=2, hosts_per_rack=3)
        host_names = hosts(net)
        assert len(host_names) == 6
        assert all("-host" in name for name in host_names)
        assert net.route("rack0-host0", "rack1-host2") == [
            "rack0-host0", "rack0", "core", "rack1", "rack1-host2",
        ]

    def test_size_validation(self):
        with pytest.raises(NetworkError):
            star(Simulator(), leaves=0)
        with pytest.raises(NetworkError):
            line(Simulator(), length=1)
        with pytest.raises(NetworkError):
            ring(Simulator(), size=2)
        with pytest.raises(NetworkError):
            full_mesh(Simulator(), size=1)
        with pytest.raises(NetworkError):
            datacenter(Simulator(), racks=0)


class TestFailureInjector:
    def test_scheduled_crash_and_recovery(self):
        sim = Simulator()
        net = line(sim, length=3)
        injector = FailureInjector(net)
        injector.crash_node("n1", at=1.0, recover_after=2.0)
        sim.run(until=1.5)
        assert not net.node("n1").up
        sim.run(until=4.0)
        assert net.node("n1").up
        kinds = [event.kind for event in injector.log]
        assert kinds == ["node_crash", "node_recover"]

    def test_crash_reroutes_traffic(self):
        sim = Simulator()
        net = ring(sim, size=4)
        received = []
        net.node("n2").bind_endpoint("svc", lambda n, m: received.append(sim.now))
        injector = FailureInjector(net)
        injector.crash_node("n1", at=0.5)
        sim.run(until=1.0)
        # n0 -> n2 must now route around the ring via n3.
        assert net.route("n0", "n2") == ["n0", "n3", "n2"]
        net.send(Message("n0", "n2", "svc", size=0))
        sim.run()
        assert len(received) == 1

    def test_link_flap_restores(self):
        sim = Simulator()
        net = line(sim, length=2)
        injector = FailureInjector(net)
        injector.flap_link("n0", "n1", at=1.0, down_for=1.0)
        sim.run(until=1.5)
        assert not net.link_between("n0", "n1").up
        sim.run(until=3.0)
        assert net.link_between("n0", "n1").up

    def test_random_crashes_deterministic_per_seed(self):
        counts = []
        for _ in range(2):
            sim = Simulator()
            net = full_mesh(sim, size=4)
            injector = FailureInjector(net, seed=11)
            counts.append(
                injector.random_node_crashes(horizon=100.0, rate=0.1, recover_after=5.0)
            )
        assert counts[0] == counts[1] > 0

    def test_random_link_flaps_on_empty_network(self):
        sim = Simulator()
        net = line(sim, length=2)
        net.links.clear()
        injector = FailureInjector(net)
        assert injector.random_link_flaps(horizon=10.0, rate=1.0, down_for=1.0) == 0


class TestSelfRoute:
    """A node routes to itself only while it is up and known: every
    other case raises the ``NetworkError`` any unroutable pair does."""

    def test_live_node_routes_to_itself(self):
        net = star(Simulator(), leaves=2)
        assert net.route("leaf0", "leaf0") == ["leaf0"]

    def test_unknown_node_has_no_route_to_itself(self):
        net = star(Simulator(), leaves=2)
        with pytest.raises(NetworkError):
            net.route("ghost", "ghost")

    def test_down_node_has_no_route_to_itself(self):
        net = star(Simulator(), leaves=2)
        net.node("leaf0").crash()
        net.invalidate_routes()
        with pytest.raises(NetworkError):
            net.route("leaf0", "leaf1")
        with pytest.raises(NetworkError):
            net.route("leaf0", "leaf0")
