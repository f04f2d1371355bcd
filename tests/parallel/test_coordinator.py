"""ParallelSimulation: rounds, backends, determinism, supervision.

The tentpole guarantees under test:

* the inline (single-shard) and process backends produce **identical**
  merged telemetry checksums for the same seed;
* repeated same-seed runs are byte-stable;
* a worker killed mid-run is revived by deterministic replay and the
  run's checksum is unchanged.
"""

from functools import partial

import pytest

from repro.errors import ParallelError, WorkerError
from repro.netsim import Partition
from repro.parallel import (
    ParallelSimulation,
    RegionRuntime,
    build_star_region,
    star_ring_partition,
)

REGIONS = 4
LEAVES = 3
UNTIL = 2.0

BUILD = partial(build_star_region, leaves=LEAVES, messages=120,
                until=UNTIL, cross_fraction=0.3)
TELEMETRY = {"sample_rate": 1.0, "seed": 7}


def make_sim(seed=11, telemetry=TELEMETRY):
    partition = star_ring_partition(REGIONS, leaves=LEAVES)
    return ParallelSimulation(partition, BUILD, seed=seed,
                              telemetry=telemetry)


@pytest.fixture(scope="module")
def inline_result():
    return make_sim().run(until=UNTIL, backend="inline")


class TestRounds:
    def test_round_count_follows_lookahead(self, inline_result):
        partition = star_ring_partition(REGIONS, leaves=LEAVES)
        expected = -(-UNTIL // partition.lookahead)  # ceil
        assert inline_result.rounds == expected
        assert inline_result.horizon == partition.lookahead

    def test_workload_is_delivered(self, inline_result):
        sent = inline_result.stat("sent")
        assert sent == REGIONS * 120
        # the open-loop workload lands almost entirely inside the run
        assert inline_result.stat("delivered") >= sent * 0.95
        assert inline_result.stat("dropped") == 0

    def test_cross_region_traffic_flowed(self, inline_result):
        forwarded = inline_result.stat("forwarded_out")
        ingressed = inline_result.stat("ingressed")
        assert forwarded > 0
        # every ingress has a matching egress; tuples arriving past the
        # end of the run (leftovers or injected beyond ``until``) don't
        assert 0 < ingressed <= forwarded

    def test_per_region_reports(self, inline_result):
        assert sorted(inline_result.regions) == list(range(REGIONS))
        for report in inline_result.regions.values():
            assert report["executed"] > 0
            assert report["now"] == UNTIL
            assert report["rounds"] == inline_result.rounds

    def test_horizon_cannot_exceed_lookahead(self):
        psim = make_sim()
        lookahead = psim.partition.lookahead
        with pytest.raises(ParallelError):
            psim.run(until=UNTIL, horizon=lookahead * 2)

    def test_smaller_horizon_preserves_results(self, inline_result):
        psim = make_sim()
        half = psim.partition.lookahead / 2
        result = psim.run(until=UNTIL, backend="inline", horizon=half)
        assert result.rounds == inline_result.rounds * 2
        assert result.stat("delivered") == inline_result.stat("delivered")
        assert result.checksum == inline_result.checksum

    def test_rejects_bad_arguments(self):
        psim = make_sim()
        with pytest.raises(ParallelError):
            psim.run(until=0.0)
        with pytest.raises(ParallelError):
            psim.run(until=1.0, backend="threads")


class TestDeterminism:
    def test_inline_checksum_is_stable_across_runs(self, inline_result):
        again = make_sim().run(until=UNTIL, backend="inline")
        assert again.checksum == inline_result.checksum
        assert again.executed == inline_result.executed

    def test_process_backend_matches_single_shard_baseline(
            self, inline_result):
        result = make_sim().run(until=UNTIL, backend="process")
        assert result.checksum == inline_result.checksum
        assert result.executed == inline_result.executed
        assert result.stat("delivered") == inline_result.stat("delivered")

    def test_different_seed_changes_the_trace(self, inline_result):
        other = make_sim(seed=12).run(until=UNTIL, backend="inline")
        assert other.checksum != inline_result.checksum

    def test_sampled_telemetry_is_deterministic_too(self):
        sampled = {"sample_rate": 0.25, "seed": 3,
                   "categories": {"net.hop": 0.05}}
        first = make_sim(telemetry=sampled).run(until=UNTIL,
                                                backend="inline")
        second = make_sim(telemetry=sampled).run(until=UNTIL,
                                                 backend="process")
        assert first.checksum == second.checksum
        assert len(first.records) == len(second.records)

    def test_merged_records_are_ordered(self, inline_result):
        from repro.telemetry.merge import record_time
        keys = [(record_time(r), r["region"], r["seq"])
                for r in inline_result.records]
        assert keys == sorted(keys)
        assert {r["region"] for r in inline_result.records} \
            == set(range(REGIONS))

    def test_without_telemetry_no_checksum(self):
        result = make_sim(telemetry=None).run(until=UNTIL, backend="inline")
        assert result.checksum is None
        assert result.records == []


class TestSupervision:
    # after_round fires once per region round, so every hook below is
    # one-shot: it acts the first time it sees its round index.

    def test_killed_worker_is_revived_with_identical_checksum(
            self, inline_result):
        killed = []

        def chaos(psim, round_index, now):
            if round_index == 3 and not killed:
                killed.append(round_index)
                psim.kill_worker(2)

        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 1
        assert result.checksum == inline_result.checksum
        assert result.executed == inline_result.executed

    def test_kill_during_final_collect_is_survived(self, inline_result):
        last = []

        def chaos(psim, round_index, now):
            # Kill once every region has finished its last round, so the
            # worker dies between the rounds and the final collect.
            if round_index == inline_result.rounds - 1:
                last.append(round_index)
                if len(last) == REGIONS:
                    psim.kill_worker(0)

        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 1
        assert result.checksum == inline_result.checksum

    def test_multiple_kills(self, inline_result):
        killed = set()

        def chaos(psim, round_index, now):
            if round_index in (1, 5) and round_index not in killed:
                killed.add(round_index)
                psim.kill_worker(round_index % REGIONS)

        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 2
        assert result.checksum == inline_result.checksum

    def test_inline_backend_has_nothing_to_kill(self):
        def chaos(psim, round_index, now):
            if round_index == 0:
                psim.kill_worker(0)

        with pytest.raises(ParallelError):
            make_sim().run(until=UNTIL, backend="inline",
                           after_round=chaos)

    def test_worker_exception_surfaces_as_worker_error(self):
        def broken_build(region, sim, partition, seed):
            raise RuntimeError("boom in region build")

        partition = star_ring_partition(2, leaves=2)
        psim = ParallelSimulation(partition, broken_build)
        with pytest.raises(WorkerError) as excinfo:
            psim.run(until=1.0, backend="inline")
        assert "boom in region build" in str(excinfo.value)


class TestProtocol:
    def test_runtime_serves_every_command_for_both_backends(self):
        runtime = RegionRuntime(0, star_ring_partition(2, leaves=2),
                                partial(build_star_region, leaves=2,
                                        messages=4, until=1.0), seed=3)
        op, index, outbox, now = runtime.handle(
            ("round", 0, 0.5, False, []))
        assert (op, index, now) == ("done", 0, 0.5)
        assert runtime.handle(("collect",))[0] == "report"
        assert runtime.handle(("warp",))[:2] == ("error", 0)
        # A malformed command comes back as a traceback, not a raise.
        assert "Traceback" in runtime.handle(("round", 1))[2]
        assert runtime.handle(("stop",)) == ("bye", 0)


class TestResultSurface:
    def test_events_per_sec_positive(self, inline_result):
        assert inline_result.events_per_sec > 0
        assert inline_result.wall_seconds > 0

    def test_backend_recorded(self, inline_result):
        assert inline_result.backend == "inline"
        assert inline_result.until == UNTIL
