"""Production-shaped worker supervision.

Heartbeat liveness, bounded deterministic-backoff revival, graceful
degradation to the inline backend, and shutdown escalation — all
surfaced in :class:`ParallelResult`, never swallowed.
"""

import time
from functools import partial

import pytest

from repro.errors import ParallelError, WorkerTimeoutError
from repro.parallel import (
    ParallelSimulation,
    SupervisionPolicy,
    build_star_region,
    star_ring_partition,
)
from repro.parallel.coordinator import _ProcessWorker, _mp_context

REGIONS = 2
LEAVES = 2
UNTIL = 1.0

BUILD = partial(build_star_region, leaves=LEAVES, messages=40,
                until=UNTIL, cross_fraction=0.3)
TELEMETRY = {"sample_rate": 1.0, "seed": 7}

FAST = SupervisionPolicy(shutdown_timeout=2.0, heartbeat_interval=0.02,
                         max_revivals=2, backoff_base=0.0)


def make_sim(policy=FAST, seed=11):
    partition = star_ring_partition(REGIONS, leaves=LEAVES)
    return ParallelSimulation(partition, BUILD, seed=seed,
                              telemetry=TELEMETRY, supervision=policy)


class TestBackoffPolicy:
    def test_deterministic_across_calls(self):
        policy = SupervisionPolicy(seed=5)
        assert policy.backoff(1, 2) == policy.backoff(1, 2)

    def test_grows_exponentially_without_jitter(self):
        policy = SupervisionPolicy(backoff_base=0.1, backoff_factor=2.0,
                                   backoff_max=10.0, backoff_jitter=0.0)
        assert [policy.backoff(0, a) for a in range(3)] == [0.1, 0.2, 0.4]

    def test_capped_at_backoff_max(self):
        policy = SupervisionPolicy(backoff_base=1.0, backoff_factor=10.0,
                                   backoff_max=1.5, backoff_jitter=0.0)
        assert policy.backoff(0, 5) == 1.5

    def test_jitter_bounded_and_seed_dependent(self):
        base = SupervisionPolicy(backoff_base=1.0, backoff_factor=1.0,
                                 backoff_max=10.0, backoff_jitter=0.1)
        delay = base.backoff(3, 1)
        assert 1.0 <= delay <= 1.1
        other = SupervisionPolicy(backoff_base=1.0, backoff_factor=1.0,
                                  backoff_max=10.0, backoff_jitter=0.1,
                                  seed=99)
        assert other.backoff(3, 1) != delay


class TestRevival:
    def test_revival_is_recorded_in_the_result(self):
        killed = []

        def chaos(psim, round_index, now):
            # after_round fires once per region round: kill only once.
            if round_index == 1 and not killed:
                killed.append(round_index)
                psim.kill_worker(1)

        baseline = make_sim().run(until=UNTIL, backend="inline")
        result = make_sim().run(until=UNTIL, backend="process",
                                after_round=chaos)
        assert result.restarts == 1
        assert result.revival_attempts == 1
        assert result.degraded == ()
        events = [e["event"] for e in result.supervision]
        assert events.count("revived") == 1
        assert result.checksum == baseline.checksum

    def test_clean_run_reports_no_supervision_events(self):
        result = make_sim().run(until=UNTIL, backend="process")
        assert result.restarts == 0
        assert result.revival_attempts == 0
        assert result.supervision == []
        assert result.degraded == ()


class TestDegradation:
    @staticmethod
    def _chaos_with_unrevivable_worker(psim, round_index, now):
        # One-shot: after_round fires once per region round, and the
        # degraded inline worker that replaces this one cannot be killed.
        if round_index == 1 and isinstance(psim._workers[1],
                                           _ProcessWorker):
            worker = psim._workers[1]
            worker.kill()

            def refuse_respawn():
                raise OSError("spawn refused")

            worker.respawn = refuse_respawn

    def test_exhausted_revivals_degrade_to_inline(self):
        baseline = make_sim().run(until=UNTIL, backend="inline")
        result = make_sim().run(
            until=UNTIL, backend="process",
            after_round=self._chaos_with_unrevivable_worker)
        assert result.degraded == (1,)
        assert result.restarts == 0
        assert result.revival_attempts == FAST.max_revivals
        events = [e["event"] for e in result.supervision]
        assert events.count("revival-failed") == FAST.max_revivals
        assert events[-1] == "degraded"
        # The degraded region replays to the exact lost state: the
        # merged trace is byte-identical to the healthy baseline.
        assert result.checksum == baseline.checksum

    def test_degradation_disabled_fails_the_run(self):
        policy = SupervisionPolicy(shutdown_timeout=2.0,
                                   heartbeat_interval=0.02,
                                   max_revivals=1, backoff_base=0.0,
                                   degrade_to_inline=False)
        with pytest.raises(ParallelError, match="revival"):
            make_sim(policy).run(
                until=UNTIL, backend="process",
                after_round=self._chaos_with_unrevivable_worker)


class TestHeartbeatAndShutdown:
    def test_silent_live_worker_trips_reply_timeout(self):
        partition = star_ring_partition(REGIONS, leaves=LEAVES)
        policy = SupervisionPolicy(heartbeat_interval=0.02,
                                   reply_timeout=0.3,
                                   shutdown_timeout=2.0)
        worker = _ProcessWorker(_mp_context(), 0, partition, BUILD, 0,
                                None, policy=policy)
        try:
            started = time.monotonic()
            # No command was sent, so the worker stays silent forever;
            # the heartbeat loop must escalate instead of hanging.
            with pytest.raises(WorkerTimeoutError):
                worker.recv()
            assert time.monotonic() - started < 5.0
            assert not worker.process.is_alive()
        finally:
            worker.close()

    def test_close_escalation_reports_outcome(self):
        partition = star_ring_partition(REGIONS, leaves=LEAVES)
        worker = _ProcessWorker(
            _mp_context(), 0, partition, BUILD, 0, None,
            policy=SupervisionPolicy(shutdown_timeout=2.0))
        outcome = worker.close()
        assert outcome in ("clean", "terminated", "killed")
        assert not worker.process.is_alive()
