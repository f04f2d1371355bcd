"""Head-based sampling: determinism, always-on categories, inheritance."""

import math

import pytest

from repro.events import Simulator
from repro.telemetry import (
    ALWAYS_ON_CATEGORIES,
    Sampler,
    SamplingPolicy,
    Tracer,
    chrome_trace_json,
    install,
    jsonl_records,
    trace_checksum,
)


def make_tracer(rate, seed=0, **kwargs):
    return Tracer(Simulator(),
                  sampling=SamplingPolicy(rate=rate, seed=seed), **kwargs)


class TestSamplerStream:
    def test_same_seed_same_stream(self):
        a = Sampler(0.5, seed=3, stream=1)
        b = Sampler(0.5, seed=3, stream=1)
        assert [a.sample() for _ in range(200)] == \
               [b.sample() for _ in range(200)]

    def test_reset_replays_the_stream(self):
        sampler = Sampler(0.25, seed=9)
        first = [sampler.sample() for _ in range(100)]
        sampler.reset()
        assert [sampler.sample() for _ in range(100)] == first

    def test_streams_are_independent(self):
        spans = Sampler(0.5, seed=3, stream=1)
        kernel = Sampler(0.5, seed=3, stream=2)
        assert [spans.sample() for _ in range(64)] != \
               [kernel.sample() for _ in range(64)]

    def test_rate_hits_long_run_frequency(self):
        sampler = Sampler(0.1, seed=1)
        kept = sum(sampler.sample() for _ in range(20_000))
        assert 0.08 < kept / 20_000 < 0.12

    def test_extreme_rates(self):
        assert all(Sampler(1.0).sample() for _ in range(50))
        assert not any(Sampler(0.0).sample() for _ in range(50))

    def test_gap_matches_rate(self):
        sampler = Sampler(0.01, seed=4)
        gaps = [sampler.gap() for _ in range(2_000)]
        mean = sum(gaps) / len(gaps)
        # Geometric with p=0.01 has mean (1-p)/p ~= 99.
        assert 80 < mean < 120

    def test_gap_edges(self):
        assert Sampler(1.0).gap() == 0
        assert Sampler(0.0).gap() >= 1 << 60

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SamplingPolicy(rate=1.5)
        with pytest.raises(ValueError):
            SamplingPolicy(rate=-0.1)
        with pytest.raises(ValueError):
            SamplingPolicy(rate=math.nan)


class TestHeadSampling:
    def test_children_inherit_root_fate(self):
        tracer = make_tracer(rate=0.3, seed=2)
        for i in range(300):
            with tracer.span("work", f"root{i}"):
                with tracer.span("work", f"child{i}"):
                    pass
        spans = tracer.spans
        roots = {s.name for s in spans if s.name.startswith("root")}
        children = {s.name for s in spans if s.name.startswith("child")}
        # Traces are kept or dropped whole: every surviving child's root
        # survives too, and vice versa.
        assert {n.replace("child", "root") for n in children} == roots
        assert 0 < len(roots) < 300

    def test_always_on_categories_bypass_sampling(self):
        tracer = make_tracer(rate=0.0)
        for cat in sorted(ALWAYS_ON_CATEGORIES):
            with tracer.span(cat, "decision"):
                pass
        with tracer.span("work", "chatty"):
            pass
        assert {s.category for s in tracer.spans} == ALWAYS_ON_CATEGORIES

    def test_custom_always_set(self):
        tracer = Tracer(Simulator(), sampling=SamplingPolicy(
            rate=0.0, always=frozenset({"qos"})))
        with tracer.span("qos", "kept"):
            pass
        with tracer.span("raml", "dropped"):
            pass
        assert [s.category for s in tracer.spans] == ["qos"]

    def test_sample_is_the_public_head_decision(self):
        tracer = make_tracer(rate=0.0)
        assert tracer.sample("raml") is True      # always-on
        assert tracer.sample("net.msg") is False  # rate 0
        tracer.enabled = False
        assert tracer.sample("raml") is False     # disabled beats always

    def test_emit_head_guard_inherits_to_children(self):
        tracer = make_tracer(rate=0.0)
        if tracer.sample("net.msg"):  # the caller-side contract
            tracer.emit("net.msg", "flow", 0.0, 1.0)
        assert tracer.spans == []

    def test_full_rate_keeps_everything(self):
        tracer = make_tracer(rate=1.0)
        for i in range(50):
            with tracer.span("work", f"s{i}"):
                pass
        assert len(tracer.spans) == 50


class TestSampledDeterminism:
    def _run(self, seed):
        tracer = make_tracer(rate=0.1, seed=seed)
        for i in range(500):
            with tracer.span("work", f"job{i}", index=i):
                tracer.sim.run(until=tracer.sim.now + 0.001)
        return tracer

    def test_same_seed_identical_span_set_and_bytes(self):
        a, b = self._run(seed=7), self._run(seed=7)
        assert [s.name for s in a.spans] == [s.name for s in b.spans]
        assert list(jsonl_records(a)) == list(jsonl_records(b))
        assert chrome_trace_json(a) == chrome_trace_json(b)
        assert trace_checksum(a) == trace_checksum(b)

    def test_different_seed_different_span_set(self):
        a, b = self._run(seed=7), self._run(seed=8)
        assert [s.name for s in a.spans] != [s.name for s in b.spans]

    def test_clear_resets_the_sampling_stream(self):
        tracer = make_tracer(rate=0.1, seed=7)

        def sweep():
            for i in range(500):
                with tracer.span("work", f"job{i}"):
                    pass
            return [s.name for s in tracer.spans]

        first = sweep()
        tracer.clear()
        assert sweep() == first

    def test_sampled_export_carries_meta_record(self):
        tracer = self._run(seed=7)
        records = list(jsonl_records(tracer))
        assert records[0]["type"] == "meta"
        assert records[0]["sampling_rate"] == 0.1
        assert records[0]["sampling_seed"] == 7

    def test_full_trace_export_has_no_meta_record(self):
        tracer = make_tracer(rate=1.0)
        with tracer.span("work", "s"):
            pass
        assert all(r["type"] != "meta" for r in jsonl_records(tracer))


class TestKernelSampling:
    """The skip-counter protocol between hooks and the event loop."""

    def _drive(self, rate, seed=0, events=2_000):
        sim = Simulator()
        tracer = install(sim, sample_rate=rate, seed=seed)

        def ping():
            pass

        sim.schedule_many((float(i) / 100, ping) for i in range(events))
        sim.run()
        return sim, tracer

    def test_full_rate_sees_every_event(self):
        _, tracer = self._drive(rate=1.0)
        assert tracer.kernel.events_seen == 2_000

    def test_sampled_rate_sees_a_fraction(self):
        _, tracer = self._drive(rate=0.1)
        seen = tracer.kernel.events_seen
        assert 120 < seen < 280  # ~200 expected

    def test_sampled_kernel_profile_is_seed_deterministic(self):
        _, a = self._drive(rate=0.05, seed=11)
        _, b = self._drive(rate=0.05, seed=11)
        assert a.kernel.events_seen == b.kernel.events_seen
        assert dict(a.kernel.edges) == dict(b.kernel.edges)
        _, c = self._drive(rate=0.05, seed=12)
        assert a.kernel.events_seen != c.kernel.events_seen

    def test_sampling_never_changes_simulation_results(self):
        def drive(rate):
            sim = Simulator()
            install(sim, sample_rate=rate, seed=3)
            order = []
            sim.schedule_many((1.0, order.append, (i,)) for i in range(100))
            sim.run()
            return order, sim.now

        assert drive(1.0) == drive(0.01) == drive(0.0)

    def test_events_detail_only_instants_traced_events(self):
        sim = Simulator()
        tracer = install(sim, kernel_detail="events", sample_rate=0.1,
                         seed=5)

        def ping():
            pass

        sim.schedule_many((float(i), ping) for i in range(500))
        sim.run()
        kernel_instants = [i for i in tracer.instants
                           if i.category == "kernel"]
        assert len(kernel_instants) == tracer.kernel.events_seen
        assert 0 < len(kernel_instants) < 500

    def test_cancelled_unsampled_event_is_silent(self):
        sim = Simulator()
        tracer = install(sim, sample_rate=0.0, seed=1)
        handle = sim.schedule(lambda: None, delay=1.0)
        handle.cancel()
        sim.run()
        assert tracer.kernel.events_seen == 0
        assert tracer.kernel.sites == {}
