"""Neighbour-gated exchange: pipelined rounds, identical simulation.

The tentpole guarantees under test:

* the coordinator's one engine produces the **byte-identical** merged
  telemetry checksum of a lock-step reference exchange
  (:mod:`tests.parallel.lockstep`) on both backends — per-region
  horizons and injection order are the same by construction, only the
  *waiting* changes;
* it charges strictly fewer synchronization stalls than a full barrier
  would (each region gates only on its boundary neighbors);
* supervision still holds: a worker SIGKILLed mid-run is revived by
  deterministic replay with the checksum unchanged.
"""

from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ParallelError
from repro.parallel import (
    ParallelSimulation,
    build_star_region,
    star_ring_partition,
)

from tests.parallel.lockstep import lockstep

REGIONS = 4
LEAVES = 3
UNTIL = 2.0

BUILD = partial(build_star_region, leaves=LEAVES, messages=160,
                until=UNTIL, cross_fraction=0.3)
TELEMETRY = {"sample_rate": 1.0, "seed": 7}


def make_sim(seed=11):
    partition = star_ring_partition(REGIONS, leaves=LEAVES)
    return ParallelSimulation(partition, BUILD, seed=seed,
                              telemetry=TELEMETRY)


@pytest.fixture(scope="module")
def reference():
    checksum, rounds, reports = lockstep(
        star_ring_partition(REGIONS, leaves=LEAVES), BUILD, UNTIL,
        seed=11, telemetry=TELEMETRY)
    return {"checksum": checksum, "rounds": rounds, "reports": reports}


@pytest.fixture(scope="module")
def inline_run():
    return make_sim().run(until=UNTIL, backend="inline")


@pytest.fixture(scope="module")
def process_run():
    # The benchmark names the exchange; that spelling must keep working.
    return make_sim().run(until=UNTIL, backend="process", mode="overlapped")


class TestTraceEquality:
    @pytest.mark.parametrize("backend", ["inline", "process"])
    @given(regions=st.integers(2, 5), leaves=st.integers(1, 4),
           messages=st.integers(0, 80),
           cross_fraction=st.sampled_from([0.0, 0.1, 0.3, 0.8]),
           seed=st.integers(0, 2**16))
    @example(regions=2, leaves=3, messages=80, cross_fraction=0.3, seed=5)
    @settings(max_examples=12, deadline=None)
    def test_fixed_cadence_matches_lockstep_reference(
            self, backend, regions, leaves, messages, cross_fraction, seed):
        build = partial(build_star_region, leaves=leaves,
                        messages=messages, until=1.0,
                        cross_fraction=cross_fraction)
        checksum, _, reports = lockstep(
            star_ring_partition(regions, leaves=leaves), build, 1.0,
            seed=seed, telemetry=TELEMETRY)
        result = ParallelSimulation(
            star_ring_partition(regions, leaves=leaves), build,
            seed=seed, telemetry=TELEMETRY).run(1.0, backend=backend)
        assert result.checksum == checksum
        assert result.executed == sum(
            report["executed"] for report in reports.values())

    def test_same_round_structure(self, reference, inline_run):
        # The fixed cadence keeps the reference's exact per-region
        # window formula; only the dispatch gating differs.
        assert inline_run.rounds == reference["rounds"]
        assert inline_run.checksum == reference["checksum"]

    def test_stats_identical(self, reference, process_run):
        assert process_run.checksum == reference["checksum"]
        for key in ("sent", "delivered", "dropped", "forwarded_out",
                    "ingressed"):
            expected = sum(report["stats"][key]
                           for report in reference["reports"].values())
            assert process_run.stat(key) == expected, key


class TestStalls:
    def test_stalls_strictly_below_a_full_barrier(self, inline_run):
        # A full barrier makes every region wait on every other region
        # each round after the first; gating waits only on ring
        # neighbors.
        barrier = REGIONS * (REGIONS - 1) * (inline_run.rounds - 1)
        assert 0 < inline_run.sync_stalls < barrier

    def test_stall_counts_are_structural(self, inline_run, process_run):
        # The metric counts dependency edges, not wall time, so it is
        # identical across backends.
        assert inline_run.sync_stalls == process_run.sync_stalls


class TestSupervisionUnderOverlap:
    # after_round fires once per *region* round, not once per global
    # round, so a chaos hook keyed on the round index alone would kill
    # the worker once per region — make it one-shot.

    def test_killed_worker_replays_to_identical_checksum(self, reference):
        killed = []

        def chaos(psim, round_index, now):
            if round_index == 10 and not killed:
                killed.append(round_index)
                psim.kill_worker(2)

        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 1
        assert result.checksum == reference["checksum"]

    def test_kill_near_the_end(self, reference):
        killed = []

        def chaos(psim, round_index, now):
            if round_index == reference["rounds"] - 2 and not killed:
                killed.append(round_index)
                psim.kill_worker(0)

        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 1
        assert result.checksum == reference["checksum"]


class TestArguments:
    @pytest.mark.parametrize("mode", ["psychic", "barrier"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ParallelError):
            make_sim().run(until=UNTIL, backend="inline", mode=mode)
