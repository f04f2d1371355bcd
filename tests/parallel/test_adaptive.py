"""Adaptive lookahead: wider horizons, same simulation.

Conservative correctness is the whole game: a region may only run past
the fixed cadence when every other region *provably* cannot egress a
tuple that would arrive inside the widened window.  These tests pin

* the collapse case — zero cross traffic with a declared (empty)
  cross-send schedule lets every horizon extend straight to ``until``;
* equivalence — adaptive runs deliver the identical order-invariant
  delivery digest as the fixed cadence, across backends and over
  generated workloads at 2–8 regions, including same-instant boundary
  arrivals well inside the widened horizons;
* conservatism — no run ever schedules into a region's past (the
  kernel raises ``ClockError`` on any violation, so completing at all
  is the assertion), even where a summed multi-hop region distance
  rounds above the hop-by-hop arrival it bounds.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.parallel import (
    ParallelSimulation,
    build_lean_star_region,
    lean_star_partition,
)

REGIONS = 4
UNTIL = 10.0
BOUNDARY_LATENCY = 0.05


def lean_sim(seed=11, **kwargs):
    defaults = dict(leaves=120, messages=1200, until=UNTIL, cross_every=5)
    defaults.update(kwargs)
    build = partial(build_lean_star_region, **defaults)
    partition = lean_star_partition(REGIONS,
                                    boundary_latency=BOUNDARY_LATENCY)
    return ParallelSimulation(partition, build, seed=seed)


def digests(result):
    return tuple(result.regions[r]["stats"]["digest"]
                 for r in sorted(result.regions))


@pytest.fixture(scope="module")
def fixed_cadence():
    return lean_sim().run(UNTIL, backend="inline")


class TestZeroCrossCollapse:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_declared_empty_schedule_collapses_rounds(self, backend):
        base = lean_sim(cross_every=0).run(UNTIL, backend="inline")
        adaptive = lean_sim(cross_every=0, declare_cross=True).run(
            UNTIL, backend=backend, adaptive=True)
        assert base.rounds == 200  # until / boundary latency
        assert adaptive.rounds <= 3
        assert adaptive.stat("delivered") == base.stat("delivered")
        assert digests(adaptive) == digests(base)

    def test_undeclared_scenario_cannot_collapse(self):
        # Without the promise the floor is the next pending event, so
        # horizons stay pinned to the event cadence — correctness over
        # optimism.
        adaptive = lean_sim(cross_every=0).run(
            UNTIL, backend="inline", adaptive=True)
        assert adaptive.rounds > 50


class TestAdaptiveEquivalence:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_digest_matches_fixed_cadence(self, fixed_cadence, backend):
        adaptive = lean_sim(declare_cross=True).run(
            UNTIL, backend=backend, adaptive=True)
        assert adaptive.stat("delivered") == fixed_cadence.stat("delivered")
        assert adaptive.stat("dropped") == 0
        assert digests(adaptive) == digests(fixed_cadence)

    def test_adaptive_without_declaration_also_matches(self, fixed_cadence):
        adaptive = lean_sim().run(UNTIL, backend="inline", adaptive=True)
        assert digests(adaptive) == digests(fixed_cadence)

    def test_result_records_adaptive_flag(self, fixed_cadence):
        adaptive = lean_sim(declare_cross=True).run(
            UNTIL, backend="inline", adaptive=True)
        assert adaptive.adaptive is True
        assert fixed_cadence.adaptive is False

    @given(regions=st.integers(2, 8), leaves=st.integers(1, 60),
           messages=st.integers(0, 600), cross_every=st.integers(0, 9),
           latency=st.sampled_from([0.03, 0.05, 0.07, 0.11]),
           declare_cross=st.booleans(), seed=st.integers(0, 2**16),
           backend=st.sampled_from(["inline", "process"]))
    # A summed multi-hop region distance can round an ulp above the
    # hop-by-hop arrival it bounds; without the coordinator's margin
    # these runs raise ClockError.
    @example(regions=6, leaves=60, messages=600, cross_every=7,
             latency=0.05, declare_cross=True, seed=2, backend="inline")
    @example(regions=8, leaves=1, messages=9, cross_every=2,
             latency=0.03, declare_cross=False, seed=0, backend="inline")
    @settings(max_examples=16, deadline=None)
    def test_generated_workloads_match_fixed_cadence(
            self, regions, leaves, messages, cross_every, latency,
            declare_cross, seed, backend):
        def run(**kwargs):
            build = partial(build_lean_star_region, leaves=leaves,
                            messages=messages, until=UNTIL,
                            cross_every=cross_every,
                            declare_cross=declare_cross)
            partition = lean_star_partition(regions,
                                            boundary_latency=latency)
            return ParallelSimulation(partition, build, seed=seed).run(
                UNTIL, **kwargs)

        fixed = run(backend="inline")
        adaptive = run(backend=backend, adaptive=True)
        assert digests(adaptive) == digests(fixed)
        assert adaptive.stat("delivered") == fixed.stat("delivered")


class TestSameInstantBoundaryArrivals:
    """Every region cross-sends on the same global tick schedule, so
    boundary tuples from different origins arrive at identical instants
    — inside horizons the declaration has widened.  The deterministic
    injection order (arrival, origin region, seq) must keep the digest
    stable across every execution strategy."""

    def runs(self):
        kwargs = dict(leaves=60, messages=600, cross_every=2,
                      declare_cross=True)
        base = lean_sim(**kwargs).run(UNTIL, backend="inline")
        yield lean_sim(**kwargs).run(UNTIL, backend="process",
                                     adaptive=True)
        yield lean_sim(**kwargs).run(UNTIL, backend="inline",
                                     adaptive=True)
        self.base = base

    def test_dense_simultaneous_arrivals_stay_deterministic(self):
        results = list(self.runs())
        reference = digests(self.base)
        assert self.base.stat("ingressed") > 0
        for result in results:
            assert digests(result) == reference
            assert result.stat("delivered") == self.base.stat("delivered")


class TestAdaptiveWidensAtSparseTraffic:
    def test_sparse_declared_traffic_needs_fewer_rounds(self):
        sparse = dict(leaves=120, messages=40, cross_every=20,
                      declare_cross=True)
        base = lean_sim(**sparse).run(UNTIL, backend="inline")
        adaptive = lean_sim(**sparse).run(UNTIL, backend="inline",
                                          adaptive=True)
        assert adaptive.rounds < base.rounds
        assert digests(adaptive) == digests(base)
