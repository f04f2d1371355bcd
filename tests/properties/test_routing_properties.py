"""Property: the simulator's own shortest paths equal networkx's.

The shortest paths of ``repro.graphs`` replaced networkx inside
``Network.route`` and ``Partition``'s next-hop table and must pick the
same path on every tie.  networkx stays the oracle here, on graphs
built exactly as the networkx-based implementations built theirs: up
nodes in insertion order, then up links in insertion order, one
weighted edge each.  Latencies come from a small set of exactly
summable values so that equal-length paths are common.
"""

from functools import partial

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import example, given, settings

from repro.errors import NetworkError
from repro.events import Simulator
from repro.netsim import Network, Partition, ring
from repro.graphs import first_hops
from repro.parallel.scenario import star_ring_partition

LATENCIES = (0.0, 0.5, 1.0, 2.0)
BOUNDARY_LATENCIES = (0.5, 1.0, 1.5, 2.0)


# ---------------------------------------------------------------------------
# Network.route vs nx.shortest_path
# ---------------------------------------------------------------------------

@st.composite
def topology_specs(draw):
    """(node names in insertion order, links as (a, b, latency) in
    insertion order, down nodes, failed links, removed link or None)."""
    size = draw(st.integers(2, 10))
    names = draw(st.permutations([f"h{i}" for i in range(size)]))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs)))
    links = []
    for a, b in chosen:
        if draw(st.booleans()):
            a, b = b, a
        links.append((a, b, draw(st.sampled_from(LATENCIES))))
    down = draw(st.sets(st.sampled_from(names), max_size=2))
    failed = draw(st.sets(st.integers(0, max(len(links) - 1, 0)),
                          max_size=3)) if links else set()
    removed = (draw(st.none() | st.integers(0, len(links) - 1))
               if links else None)
    return names, links, down, failed, removed


def build_network(spec) -> Network:
    names, links, down, failed, removed = spec
    net = Network(Simulator())
    for name in names:
        net.add_node(name)
    for index, (a, b, latency) in enumerate(links):
        link = net.add_link(a, b, latency=latency)
        if index in failed:
            link.fail()
    for name in down:
        net.node(name).crash()
    if removed is not None:
        a, b, _ = links[removed]
        net.remove_link(a, b)
    return net


def oracle_graph(net: Network) -> nx.Graph:
    """The graph ``Network`` routed on when it used networkx."""
    graph = nx.Graph()
    for name, node in net.nodes.items():
        if node.up:
            graph.add_node(name)
    for link in net.links.values():
        if link.up and link.a in graph and link.b in graph:
            graph.add_edge(link.a, link.b, weight=link.latency)
    return graph


def assert_routes_match(net: Network) -> None:
    graph = oracle_graph(net)
    for source in net.nodes:
        for destination in net.nodes:
            try:
                expected = nx.shortest_path(graph, source, destination,
                                            weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                expected = None
            try:
                actual = net.route(source, destination)
            except NetworkError:
                actual = None
            assert actual == expected, (source, destination)


@given(build=st.builds(partial, st.just(build_network), topology_specs()),
       flip=st.integers(0, 10_000))
@example(build=lambda: ring(Simulator(), size=4), flip=0)
@settings(max_examples=150, deadline=None)
def test_routes_match_networkx(build, flip):
    net = build()
    assert_routes_match(net)
    # Change one link or node state, then recompute every route.
    links = list(net.links.values())
    if links:
        link = links[flip % len(links)]
        if link.up:
            link.fail()
        else:
            link.restore()
    else:
        node = list(net.nodes.values())[flip % len(net.nodes)]
        if node.up:
            node.crash()
        else:
            node.recover()
    net.invalidate_routes()
    assert_routes_match(net)


# ---------------------------------------------------------------------------
# first_hops vs nx.single_source_dijkstra_path
# ---------------------------------------------------------------------------

@given(build=st.builds(partial, st.just(build_network), topology_specs()))
@settings(max_examples=150, deadline=None)
def test_first_hops_match_networkx(build):
    graph = oracle_graph(build())
    adjacency = {node: {neighbour: data["weight"]
                        for neighbour, data in graph.adj[node].items()}
                 for node in graph}
    for source in graph:
        paths = nx.single_source_dijkstra_path(graph, source,
                                               weight="weight")
        lengths = nx.single_source_dijkstra_path_length(graph, source,
                                                        weight="weight")
        hops = first_hops(adjacency, source)
        assert hops == {node: path[1] for node, path in paths.items()
                        if node != source}
        # In order of distance, equal distances in settling order.
        assert list(hops) == [node for node in lengths if node != source]


# ---------------------------------------------------------------------------
# Partition.next_hop vs nx.all_pairs_dijkstra_path
# ---------------------------------------------------------------------------

@st.composite
def partition_specs(draw):
    """(regions, boundaries as (a region, a gateway index, b region,
    b gateway index, latency) in insertion order)."""
    regions = draw(st.integers(2, 8))
    region_ids = st.integers(0, regions - 1)
    boundaries = []
    for a, b in draw(st.lists(st.tuples(region_ids, region_ids)
                              .filter(lambda pair: pair[0] != pair[1]),
                              max_size=12)):
        boundaries.append((a, draw(st.integers(0, 1)), b,
                           draw(st.integers(0, 1)),
                           draw(st.sampled_from(BOUNDARY_LATENCIES))))
    # Parallel boundaries of different latency between one region pair.
    a, b = draw(st.sampled_from([(a, b) for a in range(regions)
                                 for b in range(regions) if a < b]))
    for latency in draw(st.lists(st.sampled_from(BOUNDARY_LATENCIES),
                                 min_size=2, max_size=3, unique=True)):
        boundaries.insert(draw(st.integers(0, len(boundaries))),
                          (a, 0, b, 1, latency))
    return regions, boundaries


def build_partition(spec) -> Partition:
    regions, boundaries = spec
    partition = Partition(regions)
    for region in range(regions):
        for index in range(2):
            partition.assign(f"g{region}_{index}", region)
    for a, a_index, b, b_index, latency in boundaries:
        partition.add_boundary(f"g{a}_{a_index}", f"g{b}_{b_index}",
                               latency=latency)
    return partition


def oracle_table(partition: Partition):
    """Next hops as ``Partition`` built them with networkx."""
    graph = nx.Graph()
    graph.add_nodes_from(range(partition.regions))
    best = {}
    for boundary in partition.boundaries:
        key = (min(boundary.a_region, boundary.b_region),
               max(boundary.a_region, boundary.b_region))
        current = best.get(key)
        if current is None or boundary.latency < current.latency:
            best[key] = boundary
    for (a, b), boundary in best.items():
        graph.add_edge(a, b, weight=boundary.latency, boundary=boundary)
    paths = dict(nx.all_pairs_dijkstra_path(graph, weight="weight"))
    table = {}
    for src, targets in paths.items():
        for dst, path in targets.items():
            if src == dst or len(path) < 2:
                continue
            table[(src, dst)] = graph.edges[path[0], path[1]]["boundary"]
    return table


@given(build=st.builds(partial, st.just(build_partition), partition_specs()))
@example(build=lambda: star_ring_partition(4))
@settings(max_examples=150, deadline=None)
def test_region_routes_match_networkx(build):
    partition = build()
    table = oracle_table(partition)
    unreachable = None
    for src in range(partition.regions):
        for dst in range(partition.regions):
            expected = table.get((src, dst))
            if expected is None:
                with pytest.raises(NetworkError):
                    partition.next_hop(src, dst)
            else:
                assert partition.next_hop(src, dst) is expected
            if src != dst and expected is None and unreachable is None:
                unreachable = f"region {dst} unreachable from region {src}"
    if unreachable is None:
        partition.validate()
    else:
        with pytest.raises(NetworkError) as error:
            partition.validate()
        assert str(error.value) == unreachable
