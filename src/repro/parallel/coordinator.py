"""The conservative-lookahead coordinator.

:class:`ParallelSimulation` runs a partitioned topology as a set of
region shards synchronized in conservative rounds: with lookahead ``L``
(the minimum boundary-link latency, see
:class:`~repro.netsim.partition.Partition`), a boundary tuple egressed
at time ``t`` arrives no earlier than ``t + L`` — so each region may
simulate a window without hearing from the others, and the coordinator
only moves outboxes between windows.  Windows run horizon-**exclusive**
(``Simulator.run(until=h, inclusive=False)``): an event exactly at the
horizon fires next round, after same-instant remote tuples have been
injected, which is what makes the interleaving — and the merged trace —
deterministic.

There is one exchange engine, **neighbour-gated** rounds.  Boundary
tuples only ever reach a region from its boundary neighbours, so every
region runs its own sequence of rounds and the coordinator acts on
whichever region replies first; there is no global barrier.  The
*cadence* decides when region ``r`` may start its next round, to which
horizon, and which held boundary tuples go in:

* **fixed** (default) — round ``k`` ends at ``min((k+1)·H, until)``,
  computed from the index so float drift cannot add a round; it starts
  once every neighbour of ``r`` has finished round ``k-1`` and injects
  exactly those neighbours' round-``k-1`` egress, merged in ``(arrival,
  origin region, origin seq)`` order.  Each region's command sequence
  is thus a pure function of the workload, and the merged trace
  checksum is byte-identical across backends, repeats and revivals.
* **adaptive** (``adaptive=True``) — every reply carries the region's
  ``egress_floor`` promise (see
  :meth:`~repro.netsim.partition.RegionNetwork.egress_floor`).  Region
  ``r`` may run up to ``min over s of earliest_egress(s) + reach(s,
  r)``: ``earliest_egress(s)`` is the first time ``s`` could still
  egress — its last promise, an injected arrival it has not executed
  yet, or a tuple held for it, whether ``s`` is busy or idle — and
  ``reach`` is the region distance, or ``r``'s shortest boundary cycle
  when ``s == r``.  The bound is kept a few ulps low, because a
  precomputed multi-hop distance can round above the hop-by-hop arrival
  it bounds.  With sparse cross traffic horizons jump far past ``L``,
  and with none a run collapses to a couple of rounds.
  The round structure then depends on reply order, so the witness is
  the simulation outcome (deliveries, clocks, digests), not the trace.

Synchronization stalls are counted structurally: each region round
after the first waits on its ``|neighbours(r)|`` boundary neighbours.
The count is deterministic, so the benchmark gate can compare it with
the ``R·(R-1)`` per round a full barrier would charge.

Two backends execute the identical :class:`~repro.parallel.runtime.
RegionRuntime` code:

* ``"inline"`` — every region stepped sequentially in this process; the
  single-shard baseline for both determinism checks and speedup
  measurements.
* ``"process"`` — one OS process per region, plain tuples over pipes,
  replies multiplexed with :func:`multiprocessing.connection.wait`.

Supervision: the coordinator records every command it has sent to each
region.  When a worker process dies (pipe breaks, or a heartbeat check
finds the process gone while a reply is pending), a fresh process is
spawned and the history **replayed** — regions are deterministic, so the
revived worker reaches the exact state (simulator clock, network,
telemetry, sampling streams) of the lost one, and the run's merged trace
checksum is unchanged.  :meth:`ParallelSimulation.kill_worker` exists so
tests and chaos drills can prove that.

Supervision is production-shaped via :class:`SupervisionPolicy`:
liveness is heartbeat-based (poll the pipe, check ``is_alive``) instead
of a blocking ``recv``; revival attempts are bounded with deterministic
exponential backoff (seeded jitter, so chaos drills replay identically);
a region whose worker keeps dying **degrades to the inline backend** —
the region runs in-coordinator, slower but correct, and the event is
surfaced in :attr:`ParallelResult.supervision`, never swallowed; and
shutdown escalates join → terminate → kill so a wedged worker cannot
hang the coordinator forever.
"""

from __future__ import annotations

import math
import multiprocessing
import random
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from time import perf_counter
from typing import Any, Callable

from repro.errors import ParallelError, WorkerError, WorkerTimeoutError
from repro.netsim.partition import Partition
from repro.parallel.runtime import RegionBuilder, RegionRuntime, worker_main
from repro.telemetry.merge import merge_records, merged_checksum

#: Injection merge order: (arrival sim-time, origin region, origin seq).
_INJECT_KEY = lambda record: (record[4], record[1], record[5])  # noqa: E731


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class SupervisionPolicy:
    """How the coordinator supervises worker processes.

    Liveness, revival and shutdown knobs — the defaults reproduce sane
    production behaviour; tests tighten them to drive the failure paths
    deterministically.

    Args:
        shutdown_timeout: seconds granted per escalation step on close
            (join → terminate → kill).  Replaces the old hardcoded
            ``join(timeout=5)``.
        heartbeat_interval: pipe-poll period while a reply is pending;
            each beat also checks the worker process is still alive, so
            a SIGKILLed worker is detected without waiting for the pipe
            to signal EOF.
        reply_timeout: wall-clock seconds a *live* worker may stay
            silent before it is declared wedged (terminate → kill →
            revive).  ``None`` waits forever — a conservatively-correct
            region may legitimately compute for a long time.
        max_revivals: revival attempts per region per run before the
            region degrades (or the run fails).
        backoff_base: first revival delay, seconds.
        backoff_factor: multiplier per successive attempt.
        backoff_max: delay ceiling.
        backoff_jitter: jitter fraction (0.1 → up to +10%); drawn from a
            stream seeded by ``(seed, region, attempt)``, so same-seed
            runs back off identically.
        seed: jitter seed.
        degrade_to_inline: after ``max_revivals`` failures, run the
            region in-process via the inline backend (replayed to the
            exact lost state) instead of failing the run.
    """

    shutdown_timeout: float = 5.0
    heartbeat_interval: float = 0.2
    reply_timeout: float | None = None
    max_revivals: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0
    degrade_to_inline: bool = True

    def backoff(self, region: int, attempt: int) -> float:
        """Deterministic delay before revival ``attempt`` (0-based)."""
        delay = min(self.backoff_base * self.backoff_factor ** attempt,
                    self.backoff_max)
        if self.backoff_jitter > 0.0:
            stream = random.Random((self.seed << 20) ^ (region << 10)
                                   ^ attempt)
            delay *= 1.0 + self.backoff_jitter * stream.random()
        return delay


class _InlineWorker:
    """Channel adapter running a :class:`RegionRuntime` in-process.

    Commands execute synchronously on ``send``; ``recv`` pops the reply —
    the coordinator drives both backends through the same two calls.
    """

    def __init__(self, region: int, partition: Partition,
                 build_region: RegionBuilder, seed: int,
                 telemetry: dict[str, Any] | None) -> None:
        self.region = region
        self._replies: deque = deque()
        self._runtime = None
        self._build_error: str | None = None
        try:
            self._runtime = RegionRuntime(region, partition, build_region,
                                          seed=seed, telemetry=telemetry)
        except Exception:  # surfaces as a reply, like a worker process
            self._build_error = traceback.format_exc()

    def send(self, command: tuple) -> None:
        if self._build_error is not None:
            self._replies.append(("error", self.region, self._build_error))
        else:
            self._replies.append(self._runtime.handle(command))

    def recv(self) -> tuple:
        return self._replies.popleft()

    def kill(self) -> None:
        raise ParallelError("inline backend has no worker process to kill")

    def respawn(self) -> None:
        raise ParallelError("inline workers cannot die")

    def close(self) -> str:
        self._replies.clear()
        return "clean"


class _ProcessWorker:
    """One region worker process plus its pipe endpoint."""

    def __init__(self, ctx: Any, region: int, partition: Partition,
                 build_region: RegionBuilder, seed: int,
                 telemetry: dict[str, Any] | None,
                 policy: SupervisionPolicy | None = None) -> None:
        self.region = region
        self._ctx = ctx
        self._args = (region, partition, build_region, seed, telemetry)
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.process: Any = None
        self.conn: Any = None
        self._start()

    def _start(self) -> None:
        parent, child = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=worker_main, args=(child, *self._args),
            daemon=True, name=f"repro-region-{self.region}")
        self.process.start()
        child.close()
        self.conn = parent

    def send(self, command: tuple) -> None:
        self.conn.send(command)

    def recv(self) -> tuple:
        """Heartbeat-based receive.

        Polls the pipe at ``heartbeat_interval``; between beats it
        checks the worker process is still alive, so a killed worker
        surfaces as ``EOFError`` (dead-worker protocol) within one beat
        rather than whenever the OS tears the pipe down.  A *live* but
        silent worker trips :class:`WorkerTimeoutError` once
        ``reply_timeout`` (when set) elapses; the coordinator escalates
        and revives it like a death.
        """
        policy = self.policy
        deadline = (None if policy.reply_timeout is None
                    else time.monotonic() + policy.reply_timeout)
        while True:
            if self.conn.poll(policy.heartbeat_interval):
                return self.conn.recv()
            if not self.process.is_alive():
                # Drain a reply the worker managed to flush before dying.
                if self.conn.poll(0):
                    return self.conn.recv()
                raise EOFError(f"region {self.region} worker died")
            if deadline is not None and time.monotonic() >= deadline:
                self.escalate()
                raise WorkerTimeoutError(self.region, policy.reply_timeout)

    def kill(self) -> None:
        """SIGKILL the worker (chaos hook); the next pipe use fails and
        triggers supervision."""
        self.process.kill()
        self.process.join()

    def escalate(self) -> str:
        """Force a wedged worker down: terminate, then kill."""
        if not self.process.is_alive():
            self.process.join()
            return "dead"
        self.process.terminate()
        self.process.join(timeout=self.policy.shutdown_timeout)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
            return "killed"
        return "terminated"

    def respawn(self) -> None:
        self.conn.close()
        self.escalate()
        self._start()

    def close(self) -> str:
        """Shut down with join → terminate → kill escalation; returns
        how far escalation had to go."""
        self.conn.close()
        self.process.join(timeout=self.policy.shutdown_timeout)
        if not self.process.is_alive():
            return "clean"
        self.process.terminate()
        self.process.join(timeout=self.policy.shutdown_timeout)
        if not self.process.is_alive():
            return "terminated"
        self.process.kill()
        self.process.join()
        return "killed"


@dataclass
class ParallelResult:
    """Outcome of one partitioned run."""

    backend: str
    until: float
    horizon: float
    rounds: int
    executed: int
    wall_seconds: float
    restarts: int
    #: Boundary tuples whose arrival time fell beyond ``until`` — still
    #: in flight at the end of the run, exactly as a single simulator
    #: would leave undelivered messages queued past its horizon.
    leftovers: int
    regions: dict[int, dict[str, Any]] = field(repr=False)
    #: Merged per-region telemetry records in (time, region, seq) order.
    records: list[dict[str, Any]] = field(repr=False)
    #: Determinism witness of the merged trace (None without telemetry).
    checksum: str | None = None
    #: Revival attempts (successful or not), a superset of ``restarts``.
    revival_attempts: int = 0
    #: Regions that exhausted their revivals and now run inline.
    degraded: tuple[int, ...] = ()
    #: Supervision event stream: revivals, degradations, escalations —
    #: surfaced for telemetry/dashboards, never swallowed.
    supervision: list[dict[str, Any]] = field(default_factory=list)
    #: Whether adaptive lookahead widened horizons this run.
    adaptive: bool = False
    #: Structural synchronization stalls: the boundary neighbours every
    #: region round after the first waited on, summed over rounds.
    sync_stalls: int = 0

    @property
    def events_per_sec(self) -> float:
        return (self.executed / self.wall_seconds
                if self.wall_seconds > 0 else 0.0)

    def stat(self, name: str) -> float:
        """Sum one per-region stats counter across regions."""
        return sum(report["stats"][name] for report in self.regions.values())


class ParallelSimulation:
    """Coordinator for a sharded, conservatively-synchronized run.

    Args:
        partition: region assignment + boundaries (validated on run).
        build_region: per-region shard builder, called once in each
            worker as ``build_region(region, sim, partition, seed)``.
            With the process backend it must be importable/picklable
            under the ``spawn`` start method (any callable works under
            ``fork``).
        seed: forwarded to every builder — one seed, one reproducible
            partitioned run.
        telemetry: keyword arguments for
            :func:`repro.telemetry.configure`, applied identically in
            every region (e.g. ``{"sample_rate": 0.1, "seed": 7}``);
            ``None`` runs without telemetry.
        supervision: worker liveness/revival/shutdown knobs; defaults to
            :class:`SupervisionPolicy`'s production-shaped values.
    """

    def __init__(self, partition: Partition, build_region: RegionBuilder,
                 *, seed: int = 0,
                 telemetry: dict[str, Any] | None = None,
                 supervision: SupervisionPolicy | None = None) -> None:
        partition.validate()
        self.partition = partition
        self.build_region = build_region
        self.seed = seed
        self.telemetry = telemetry
        self.supervision = (supervision if supervision is not None
                            else SupervisionPolicy())
        self.backend: str | None = None
        self.restarts = 0
        self.revival_attempts = 0
        self.supervision_events: list[dict[str, Any]] = []
        self._degraded: list[int] = []
        self._revival_counts: dict[int, int] = {}
        self._workers: dict[int, Any] = {}
        self._history: dict[int, list[tuple]] = {}

    # -- chaos hook --------------------------------------------------------

    def kill_worker(self, region: int) -> None:
        """SIGKILL one region's worker process mid-run.  Supervision
        revives it by deterministic replay on the next exchange."""
        try:
            worker = self._workers[region]
        except KeyError:
            raise ParallelError(f"no worker for region {region}") from None
        worker.kill()

    # -- the run -----------------------------------------------------------

    def run(self, until: float, *, backend: str = "process",
            mode: str = "overlapped", adaptive: bool = False,
            horizon: float | None = None,
            after_round: Callable[["ParallelSimulation", int, float], None]
            | None = None) -> ParallelResult:
        """Simulate ``[0, until]`` in conservative neighbour-gated rounds.

        Args:
            backend: ``"process"`` (one worker per region) or
                ``"inline"`` (sequential single-shard baseline).
            mode: the exchange; only ``"overlapped"`` (neighbour-gated
                rounds, the one engine) is accepted.
            adaptive: widen horizons past the fixed cadence using the
                regions' egress-floor promises.  The simulation outcome
                is unchanged; the trace is only comparable within
                adaptive runs (the round structure differs).
            horizon: fixed-cadence round window; defaults to the
                partition's lookahead and must not exceed it (that would
                break conservatism).  Adaptive runs choose their own
                horizons and reject it.
            after_round: called as ``after_round(self, round_index,
                time)`` after each completed region round — once per
                region per round index, so a chaos hook keyed on the
                index alone must be one-shot.
        """
        if until <= 0:
            raise ParallelError(f"until must be > 0, got {until}")
        if backend not in ("process", "inline"):
            raise ParallelError(f"unknown backend {backend!r}")
        if mode != "overlapped":
            raise ParallelError(
                f"unknown mode {mode!r}; the only exchange is 'overlapped'")
        if adaptive and horizon is not None:
            raise ParallelError(
                "adaptive runs choose their own horizons; omit horizon")
        self.partition.validate()
        lookahead = (self.partition.lookahead
                     if self.partition.boundaries else float("inf"))
        window = lookahead if horizon is None else horizon
        if window <= 0 or window > lookahead:
            raise ParallelError(
                f"horizon must be in (0, lookahead={lookahead}], "
                f"got {window}")
        self.backend = backend
        regions = range(self.partition.regions)
        self.restarts = 0
        self.revival_attempts = 0
        self.supervision_events = []
        self._degraded = []
        self._revival_counts = {region: 0 for region in regions}
        self._history = {region: [] for region in regions}
        self._spawn_all(backend)
        try:
            wall0 = perf_counter()
            rounds, leftovers, stalls = self._run_rounds(
                until, window, adaptive, after_round)
            busy: dict[int, tuple] = {}
            for region in regions:
                self._dispatch(busy, region, ("collect",))
            reports = {}
            while busy:
                for region, reply in self._collect_ready(busy):
                    del busy[region]
                    reports[region] = reply[1]
            wall = perf_counter() - wall0
        finally:
            self._stop_all()
        records = merge_records(
            {region: reports[region]["records"] for region in regions})
        checksum = (merged_checksum(records)
                    if self.telemetry is not None else None)
        return ParallelResult(
            backend=backend,
            until=until,
            horizon=window,
            rounds=rounds,
            executed=sum(reports[r]["executed"] for r in regions),
            wall_seconds=wall,
            restarts=self.restarts,
            leftovers=leftovers,
            regions=reports,
            records=records,
            checksum=checksum,
            revival_attempts=self.revival_attempts,
            degraded=tuple(self._degraded),
            supervision=list(self.supervision_events),
            adaptive=adaptive,
            sync_stalls=stalls,
        )

    def _run_rounds(self, until: float, window: float, adaptive: bool,
                    after_round: Callable | None) -> tuple[int, int, int]:
        """Dispatch every region round the cadence allows, act on the
        replies, repeat; returns (max region rounds, leftovers, stalls).
        """
        partition = self.partition
        regions = range(partition.regions)
        neighbors: dict[int, set[int]] = {r: set() for r in regions}
        for boundary in partition.boundaries:
            neighbors[boundary.a_region].add(boundary.b_region)
            neighbors[boundary.b_region].add(boundary.a_region)
        if adaptive:
            # reach[s, r]: least boundary latency between an egress in s
            # and a new arrival in r — for s == r, the shortest round
            # trip out of r and back in.
            reach = {(s, r): partition.region_distance(s, r)
                     for s in regions for r in regions if s != r}
            for r in regions:
                reach[r, r] = min(
                    (b.latency + reach[b.peer(r)[0], r]
                     for b in partition.boundaries
                     if r in (b.a_region, b.b_region)),
                    default=math.inf)
            # A hop-by-hop arrival rounds once per hop, the summed
            # distance once per term: they differ by at most a few ulps.
            margin = 4 * partition.regions * math.ulp(max(until, 1.0))
        committed = {r: 0.0 for r in regions}   # clock after last round
        done = {r: 0 for r in regions}          # completed rounds
        busy: dict[int, tuple] = {}             # region -> in-flight cmd
        # Last egress-floor promise (0.0 until the first reply: unknown
        # state must not widen) and injected arrivals not yet executed,
        # whose re-egress the promise cannot see.
        floors = {r: 0.0 for r in regions}
        pending_arrivals: dict[int, list[float]] = {r: [] for r in regions}
        # Held boundary tuples: the fixed cadence buckets them by the
        # round that must inject them; adaptive holds a flat pool per
        # destination, drained up to each dispatch horizon.
        held_aligned: dict[tuple[int, int], list[tuple]] = {}
        held_adaptive: dict[int, list[tuple]] = {r: [] for r in regions}
        stalls = 0

        def earliest_egress(s: int) -> float:
            # Busy or idle, s egresses no earlier than this: its promise
            # covers its own state, the arrivals cover its injections,
            # and later injections are bounded through other regions.
            return min(floors[s], min(pending_arrivals[s], default=math.inf),
                       min((rec[4] for rec in held_adaptive[s]),
                           default=math.inf))

        while True:
            for r in regions:
                if r in busy or committed[r] >= until:
                    continue
                k = done[r]
                if adaptive:
                    # The earliest time a new tuple could arrive in r.
                    bound = min(earliest_egress(s) + reach[s, r]
                                for s in regions)
                    horizon = min(until, bound - margin)
                    if horizon <= committed[r]:
                        continue
                    pool = held_adaptive[r]
                    batch = [rec for rec in pool if rec[4] < horizon]
                    if batch:
                        held_adaptive[r] = [
                            rec for rec in pool if rec[4] >= horizon]
                else:
                    if any(done[s] < k for s in neighbors[r]):
                        continue
                    horizon = min((k + 1) * window, until)
                    batch = held_aligned.pop((r, k), [])
                batch.sort(key=_INJECT_KEY)
                if k > 0:
                    stalls += len(neighbors[r])
                pending_arrivals[r].extend(rec[4] for rec in batch)
                self._dispatch(busy, r,
                               ("round", k, horizon, horizon >= until, batch))
            if not busy:
                if any(committed[r] < until for r in regions):
                    raise ParallelError(
                        "round exchange deadlocked: no region "
                        "dispatchable and none busy")
                break
            for r, reply in self._collect_ready(busy):
                self._history[r].append(busy.pop(r))
                _, k, outbox, counters = reply
                now = committed[r] = counters["now"]
                done[r] = k + 1
                floors[r] = counters["egress_floor"]
                pending_arrivals[r] = [
                    arrival for arrival in pending_arrivals[r]
                    if arrival >= now]
                for record in outbox:
                    if adaptive:
                        held_adaptive[record[2]].append(record)
                    else:
                        held_aligned.setdefault(
                            (record[2], k + 1), []).append(record)
                if after_round is not None:
                    after_round(self, k, now)
        leftovers = sum(map(len, (held_adaptive if adaptive
                                  else held_aligned).values()))
        return max(done.values()), leftovers, stalls

    def _dispatch(self, busy: dict[int, tuple], region: int,
                  command: tuple) -> None:
        """Send ``command`` and mark the region busy until it replies."""
        busy[region] = command
        try:
            self._workers[region].send(command)
        except OSError:
            pass  # dead worker; revived when _collect_ready reads it

    def _collect_ready(self, busy: dict[int, tuple]
                       ) -> list[tuple[int, tuple]]:
        """Return ``(region, reply)`` for every busy region whose reply
        is ready, in region order, blocking until at least one is.

        Inline (and degraded) workers reply synchronously, so their
        replies are always ready.  Process workers are multiplexed with
        :func:`multiprocessing.connection.wait`; between heartbeats dead
        workers are revived by replay, and a live-but-silent worker trips
        the policy's ``reply_timeout``.  An error reply raises
        :class:`~repro.errors.WorkerError`.
        """
        replies: dict[int, tuple] = {}
        process_regions: list[int] = []
        for region in busy:
            worker = self._workers[region]
            if isinstance(worker, _InlineWorker):
                replies[region] = worker.recv()
            else:
                process_regions.append(region)
        if process_regions:
            policy = self.supervision
            deadline = (None if policy.reply_timeout is None
                        else time.monotonic() + policy.reply_timeout)
            while True:
                pending = [r for r in process_regions if r not in replies]
                if not pending:
                    break
                conns = {self._workers[r].conn: r for r in pending}
                ready = _mp_connection.wait(
                    list(conns), timeout=0 if replies
                    else policy.heartbeat_interval)
                for conn in ready:
                    region = conns[conn]
                    try:
                        replies[region] = conn.recv()
                    except (EOFError, OSError):
                        replies[region] = self._revive(region,
                                                       busy[region])
                if replies:
                    break
                for region in pending:
                    if region in replies:
                        continue
                    worker = self._workers[region]
                    if not worker.process.is_alive():
                        if worker.conn.poll(0):
                            replies[region] = worker.conn.recv()
                        else:
                            replies[region] = self._revive(region,
                                                           busy[region])
                    elif (deadline is not None
                          and time.monotonic() >= deadline):
                        worker.escalate()
                        replies[region] = self._revive(region,
                                                       busy[region])
        for region, reply in replies.items():
            if reply[0] == "error":
                raise WorkerError(region, reply[2])
        return sorted(replies.items())

    # -- plumbing ----------------------------------------------------------

    def _spawn_all(self, backend: str) -> None:
        regions = range(self.partition.regions)
        if backend == "inline":
            self._workers = {
                region: _InlineWorker(region, self.partition,
                                      self.build_region, self.seed,
                                      self.telemetry)
                for region in regions
            }
            return
        ctx = _mp_context()
        self._workers = {
            region: _ProcessWorker(ctx, region, self.partition,
                                   self.build_region, self.seed,
                                   self.telemetry,
                                   policy=self.supervision)
            for region in regions
        }

    def _revive(self, region: int, command: tuple) -> tuple:
        """Bring a dead region back, then re-issue the in-flight command.

        Revival is bounded: up to ``max_revivals`` respawn-and-replay
        attempts per region per run, each preceded by a deterministic
        exponential-backoff delay (seeded jitter — same-seed chaos
        drills back off identically).  Replay outputs are discarded —
        the coordinator already acted on them — but errors surface.
        A region that exhausts its budget degrades to an in-process
        inline worker (when the policy allows) replayed to the exact
        lost state; otherwise the run fails.  Every attempt is recorded
        in :attr:`supervision_events`.
        """
        policy = self.supervision
        while self._revival_counts[region] < policy.max_revivals:
            attempt = self._revival_counts[region]
            self._revival_counts[region] += 1
            self.revival_attempts += 1
            delay = policy.backoff(region, attempt)
            if delay > 0.0:
                time.sleep(delay)
            worker = self._workers[region]
            try:
                worker.respawn()
                reply = self._replay(region, worker, command)
            except (EOFError, OSError) as exc:
                self.supervision_events.append({
                    "event": "revival-failed", "region": region,
                    "attempt": attempt, "backoff": delay,
                    "error": str(exc) or type(exc).__name__,
                })
                continue
            self.restarts += 1
            self.supervision_events.append({
                "event": "revived", "region": region,
                "attempt": attempt, "backoff": delay,
            })
            return reply
        if not policy.degrade_to_inline:
            raise ParallelError(
                f"region {region} worker failed {policy.max_revivals} "
                f"revival attempts and degradation is disabled")
        old = self._workers[region]
        try:
            old.close()
        except (EOFError, OSError):
            pass
        self._workers[region] = _InlineWorker(
            region, self.partition, self.build_region, self.seed,
            self.telemetry)
        self._degraded.append(region)
        self.supervision_events.append({
            "event": "degraded", "region": region,
            "attempts": self._revival_counts[region],
        })
        return self._replay(region, self._workers[region], command)

    def _replay(self, region: int, worker: Any, command: tuple) -> tuple:
        """Replay a region's command history, then the in-flight command."""
        for past in self._history[region]:
            worker.send(past)
            reply = worker.recv()
            if reply[0] == "error":
                raise WorkerError(region, reply[2])
        worker.send(command)
        return worker.recv()

    def _stop_all(self) -> None:
        for region, worker in self._workers.items():
            try:
                worker.send(("stop",))
                worker.recv()
            except (EOFError, OSError, WorkerTimeoutError):
                pass
            finally:
                outcome = worker.close()
                if outcome != "clean":
                    self.supervision_events.append({
                        "event": "shutdown-escalated", "region": region,
                        "outcome": outcome,
                    })
        self._workers = {}
