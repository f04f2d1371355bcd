"""What a message in flight sees of topology changes between its hops.

A route is fixed when the message departs, but each hop looks its link
up again when the message reaches the hop's near end: a link removed,
replaced, failed, restored or re-tuned in between shapes that hop and
the ones after it, never the hops already under way.
"""

import random

import pytest

from repro.events import Simulator
from repro.netsim import Message, Network

SIZE = 100
BANDWIDTH = 1000.0
TRANSMISSION = SIZE / BANDWIDTH


def three_hop_line():
    """a - b - c, one time unit of propagation per link."""
    sim = Simulator()
    net = Network(sim)
    for name in "abc":
        net.add_node(name)
    net.add_link("a", "b", latency=1.0, bandwidth=BANDWIDTH)
    net.add_link("b", "c", latency=1.0, bandwidth=BANDWIDTH)
    arrivals = []
    net.node("c").bind_endpoint(
        "svc", lambda node, message: arrivals.append(sim.now))
    seen = []
    net.taps.append(lambda event, message: seen.append(event))
    return sim, net, arrivals, seen


def send_at_zero(net):
    net.send(Message("a", "c", "svc", size=SIZE))


def test_link_removed_in_flight_drops_at_next_hop():
    sim, net, arrivals, seen = three_hop_line()
    send_at_zero(net)
    # The message reaches b at 1.1, after b-c is gone.
    sim.at(lambda: net.remove_link("c", "b"), when=0.5)
    sim.run()
    assert arrivals == []
    assert net.stats.dropped_link_down == 1
    assert net.stats.dropped == 1
    assert net.in_flight == 0
    assert seen == ["send", "drop:link_down"]
    assert net.links[("a", "b")].transferred_messages == 1


def test_link_replaced_in_flight_carries_next_hop_on_new_link():
    sim, net, arrivals, seen = three_hop_line()
    old = net.links[("b", "c")]
    replacement = []

    def replace():
        net.remove_link("b", "c")
        replacement.append(net.add_link("c", "b", latency=2.5,
                                        bandwidth=BANDWIDTH / 2))

    send_at_zero(net)
    sim.at(replace, when=0.5)
    sim.run()
    new = replacement[0]
    assert arrivals == [pytest.approx(1.0 + TRANSMISSION
                                      + 2.5 + 2 * TRANSMISSION)]
    assert (new.transferred_messages, new.transferred_bytes) == (1, SIZE)
    assert (old.transferred_messages, old.transferred_bytes) == (0, 0)
    assert net.stats.delivered == 1
    assert seen == ["send", "deliver"]


def test_link_failed_between_hops_drops_the_message():
    sim, net, arrivals, seen = three_hop_line()
    link = net.links[("b", "c")]
    send_at_zero(net)
    sim.at(link.fail, when=0.5)
    sim.run()
    assert arrivals == []
    assert net.stats.dropped_link_down == 1
    assert net.in_flight == 0
    assert link.transferred_messages == 0
    assert seen == ["send", "drop:link_down"]


def test_link_restored_before_next_hop_carries_the_message():
    sim, net, arrivals, seen = three_hop_line()
    link = net.links[("b", "c")]
    send_at_zero(net)
    sim.at(link.fail, when=0.5)
    sim.at(link.restore, when=0.9)
    sim.run()
    assert arrivals == [pytest.approx(2 * (1.0 + TRANSMISSION))]
    assert net.stats.dropped == 0
    assert link.transferred_messages == 1
    assert seen == ["send", "deliver"]


def test_set_quality_between_hops_changes_only_later_hops():
    sim, net, arrivals, seen = three_hop_line()

    def retune():
        # The first hop is already under way at its old quality.
        net.links[("a", "b")].set_quality(latency=9.0, bandwidth=1.0)
        net.links[("b", "c")].set_quality(latency=3.0,
                                          bandwidth=BANDWIDTH * 2)

    send_at_zero(net)
    sim.at(retune, when=0.5)
    sim.run()
    assert arrivals == [pytest.approx(1.0 + TRANSMISSION
                                      + 3.0 + TRANSMISSION / 2)]


def test_messages_on_one_link_direction_queue_at_every_hop():
    sim, net, arrivals, seen = three_hop_line()
    for _ in range(2):
        send_at_zero(net)
    # Reverse traffic on the same links rides the other transmitters.
    back = []
    net.node("a").bind_endpoint(
        "svc", lambda node, message: back.append(sim.now))
    net.send(Message("c", "a", "svc", size=SIZE))
    sim.run()
    first = 2 * (1.0 + TRANSMISSION)
    # The second message waits one transmission behind the first on a-b;
    # it reaches b exactly as b-c frees up, so it waits no further.
    assert arrivals == [pytest.approx(first),
                        pytest.approx(first + TRANSMISSION)]
    assert back == [pytest.approx(first)]


def test_second_hop_queues_behind_traffic_entering_at_the_middle():
    sim, net, arrivals, seen = three_hop_line()
    # b's own message holds b->c from 1.0 to 1.0 + 5 transmissions.
    sim.at(lambda: net.send(Message("b", "c", "svc", size=5 * SIZE)),
           when=1.0)
    send_at_zero(net)
    sim.run()
    busy_until = 1.0 + 5 * TRANSMISSION
    assert arrivals == [pytest.approx(busy_until + 1.0),
                        pytest.approx(busy_until + TRANSMISSION + 1.0)]


def test_link_down_drop_draws_no_loss_sample():
    def next_draw(fail_second_link):
        sim = Simulator()
        net = Network(sim, seed=5)
        for name in "abc":
            net.add_node(name)
        net.add_link("a", "b", latency=1.0)
        net.add_link("b", "c", latency=1.0, loss=0.5)
        if fail_second_link:
            sim.at(net.links[("b", "c")].fail, when=0.5)
        net.send(Message("a", "c", "svc"))
        sim.run()
        return net.rng.random()

    reference = random.Random(5)
    first, second = reference.random(), reference.random()
    # A lossless link draws nothing; b-c draws once when it is up and
    # not at all when it is down, since the up check comes first.
    assert next_draw(False) == second
    assert next_draw(True) == first
