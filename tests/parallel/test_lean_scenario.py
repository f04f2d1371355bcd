"""The memory-lean streaming scenario: columnar leaves, streamed
workload, formula-backed partition, order-invariant digest."""

import tracemalloc
from collections import defaultdict
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from tests.parallel.lockstep import lockstep

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


class TestLeanMatchesLockstep:
    """Neighbour-gated lean runs equal the lock-step reference: the same
    rounds and, per region, the same digest, stats, clock and event
    count.  Rings of 3+ regions carry hub-to-hub transit, and every
    region cross-sends on one shared tick schedule, so boundary tuples
    from different origins arrive at the same instant."""

    @pytest.mark.parametrize("backend", ["inline", "process"])
    @given(regions=st.integers(2, 8), leaves=st.integers(1, 60),
           messages=st.integers(0, 600), cross_every=st.integers(0, 9),
           latency=st.sampled_from([0.03, 0.05, 0.07, 0.11]),
           seed=st.integers(0, 2**16))
    # Dense same-instant arrivals: every other message crosses.
    @example(regions=4, leaves=60, messages=600, cross_every=2,
             latency=0.05, seed=11)
    @example(regions=8, leaves=1, messages=9, cross_every=2,
             latency=0.03, seed=0)
    @settings(max_examples=16, deadline=None)
    def test_matches_lockstep_reference(self, backend, regions, leaves,
                                        messages, cross_every, latency,
                                        seed):
        build = partial(build_lean_star_region, leaves=leaves,
                        messages=messages, until=UNTIL,
                        cross_every=cross_every)

        def partition():
            return lean_star_partition(regions, boundary_latency=latency)

        _, rounds, reports = lockstep(partition(), build, UNTIL, seed=seed)
        result = ParallelSimulation(partition(), build, seed=seed).run(
            UNTIL, backend=backend)
        assert result.rounds == rounds
        assert result.regions == reports

    def test_dense_example_lands_arrivals_from_two_origins_at_once(self):
        # The dense example checks the merge order (arrival, origin
        # region, seq) only if one region ingresses tuples from two
        # neighbours at one instant.
        dense = partial(build_lean_star_region, leaves=60, messages=600,
                        until=UNTIL, cross_every=2)
        origins = defaultdict(set)

        def build(region, sim, partition, seed):
            net = dense(region, sim, partition, seed)
            ingress = net.ingress

            def observed(record):
                origins[region, sim.now].add(record[1])
                ingress(record)

            net.ingress = observed
            return net

        lockstep(lean_star_partition(4, boundary_latency=0.05), build,
                 UNTIL, seed=11)
        assert any(len(senders) > 1 for senders in origins.values())


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
        assert sim.queue_size == 32
