"""The memory-lean streaming scenario: columnar leaves, streamed
workload, formula-backed partition, order-invariant digest."""

import tracemalloc
from functools import partial

import pytest

from repro.errors import NetworkError
from repro.events import Simulator
from repro.parallel import (
    ParallelSimulation,
    build_lean_star_region,
    build_star_region,
    lean_star_partition,
    star_ring_partition,
)
from repro.parallel.scenario import (
    _StarRingResolver,
    hub_name,
    leaf_index,
    leaf_name,
)

UNTIL = 10.0


def lean_sim(seed=11, regions=4, **kwargs):
    defaults = dict(leaves=100, messages=1000, until=UNTIL, cross_every=5)
    defaults.update(kwargs)
    build = partial(build_lean_star_region, **defaults)
    return ParallelSimulation(
        lean_star_partition(regions, boundary_latency=0.05), build,
        seed=seed)


class TestResolver:
    def test_parses_systematic_names(self):
        resolver = _StarRingResolver(8)
        assert resolver("hub3") == 3
        assert resolver("n5_1417") == 5
        assert resolver("n0_0") == 0

    def test_declines_foreign_names(self):
        resolver = _StarRingResolver(8)
        assert resolver("gateway") is None
        assert resolver("hubX") is None
        assert resolver("nope_3") is None

    def test_leaf_index_inverts_leaf_name(self):
        assert leaf_index(leaf_name(3, 1417)) == 1417


class TestLeanPartition:
    def test_region_of_is_a_formula(self):
        partition = lean_star_partition(4)
        assert partition.region_of(hub_name(2)) == 2
        assert partition.region_of(leaf_name(3, 999_999)) == 3

    def test_unknown_node_raises(self):
        partition = lean_star_partition(4)
        with pytest.raises(NetworkError):
            partition.region_of("mystery")

    def test_out_of_range_region_raises(self):
        partition = lean_star_partition(4)
        with pytest.raises(NetworkError):
            partition.region_of(leaf_name(7, 0))

    def test_assignment_memory_is_constant(self):
        # The million-node claim in miniature: the partition stores no
        # per-node state, so any leaf count costs the same.
        small, big = lean_star_partition(4), lean_star_partition(4)
        assert len(small._node_region) == len(big._node_region) == 0
        big.region_of(leaf_name(0, 10**9))  # resolver, not a dict

    def test_boundary_ring(self):
        partition = lean_star_partition(4, boundary_latency=0.07)
        assert len(partition.boundaries) == 4
        assert partition.lookahead == pytest.approx(0.07)
        assert partition.region_distance(0, 2) == pytest.approx(0.14)


class TestLeanWorkload:
    def test_all_messages_delivered_no_drops(self):
        result = lean_sim().run(UNTIL, backend="inline")
        assert result.stat("sent") == 4 * 1000
        assert result.stat("dropped") == 0
        # The tail of the open-loop workload may still be in flight at
        # the horizon; everything else must have landed.
        assert result.stat("delivered") >= result.stat("sent") * 0.99

    def test_cross_traffic_flows_between_regions(self):
        result = lean_sim().run(UNTIL, backend="inline")
        assert result.stat("forwarded_out") > 0
        assert result.stat("ingressed") >= result.stat("forwarded_out") * 0.9

    def test_digest_identical_across_backends(self):
        inline = lean_sim().run(UNTIL, backend="inline")
        process = lean_sim().run(UNTIL, backend="process")
        assert [process.regions[r]["stats"]["digest"]
                for r in sorted(process.regions)] \
            == [inline.regions[r]["stats"]["digest"]
                for r in sorted(inline.regions)]

    def test_different_seed_changes_digest(self):
        a = lean_sim(seed=11).run(UNTIL, backend="inline")
        b = lean_sim(seed=12).run(UNTIL, backend="inline")
        assert [a.regions[r]["stats"]["digest"] for r in a.regions] \
            != [b.regions[r]["stats"]["digest"] for r in b.regions]

    def test_leaf_counters_account_for_every_delivery(self):
        result = lean_sim().run(UNTIL, backend="inline")
        for region in result.regions.values():
            stats = region["stats"]
            assert stats["max_leaf_delivered"] >= 1
            assert stats["leaves"] == 100

    def test_zero_messages_edge(self):
        result = lean_sim(messages=0).run(UNTIL, backend="inline")
        assert result.stat("sent") == 0
        assert result.stat("delivered") == 0

    def test_single_stream_degenerate(self):
        base = lean_sim().run(UNTIL, backend="inline")
        serial = lean_sim(streams=1).run(UNTIL, backend="inline")
        # Stream count is an implementation knob: the tick times and rng
        # draw order are unchanged, so the workload is identical.
        assert [serial.regions[r]["stats"]["digest"]
                for r in sorted(serial.regions)] \
            == [base.regions[r]["stats"]["digest"]
                for r in sorted(base.regions)]


class TestMemoryFootprint:
    def _traced_build(self, builder):
        tracemalloc.start()
        try:
            builder()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_lean_region_is_order_of_magnitude_leaner(self):
        leaves = 20_000

        def classic():
            partition = star_ring_partition(4, leaves=leaves)
            build_star_region(0, Simulator(), partition, 11,
                              leaves=leaves, messages=0, until=1.0)

        def lean():
            partition = lean_star_partition(4)
            build_lean_star_region(0, Simulator(), partition, 11,
                                   leaves=leaves, messages=0, until=1.0)

        classic_bytes = self._traced_build(classic)
        lean_bytes = self._traced_build(lean)
        assert lean_bytes < classic_bytes / 20
        # Columnar state: ~4 bytes per leaf plus constant overhead.
        assert lean_bytes / leaves < 64

    def test_pending_events_stay_bounded_by_streams(self):
        sim = Simulator()
        partition = lean_star_partition(4)
        build_lean_star_region(0, sim, partition, 11, leaves=1000,
                               messages=500_000, until=10.0, streams=32)
        # Half a million sends pend as 32 stream events, not 500k.
        assert len(sim._queue) == 32
