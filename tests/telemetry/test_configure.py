"""telemetry.install()'s keywords and per-category sample-rate overrides."""

import json

import pytest

from repro.events import Simulator
from repro import telemetry
from repro.telemetry import (
    ALWAYS_ON_CATEGORIES,
    Sampler,
    SamplingPolicy,
    jsonl_records,
    trace_checksum,
)


@pytest.fixture
def sim():
    return Simulator()


class TestConfigure:
    def test_wires_tracer_sampler_and_ring(self, sim):
        tracer = telemetry.install(sim, sample_rate=0.25, ring_slots=64,
                                   seed=9)
        assert sim.tracer is tracer
        assert tracer.enabled
        assert tracer.ring.capacity == 64
        assert tracer.sampling.rate == 0.25
        assert tracer.sampling.seed == 9
        assert tracer.kernel is not None  # aggregate detail by default

    def test_disabled_start(self, sim):
        tracer = telemetry.install(sim, enabled=False)
        assert not tracer.enabled
        assert sim.hooks is None

    def test_no_kernel_hooks(self, sim):
        tracer = telemetry.install(sim, kernel_detail=None)
        assert tracer.kernel is None
        assert sim.hooks is None

    def test_category_overrides_reach_the_policy(self, sim):
        tracer = telemetry.install(
            sim, sample_rate=0.5, categories={"net.msg": 0.1})
        assert tracer.sampling.overrides == {"net.msg": 0.1}
        assert tracer.sampling.rate_for("net.msg") == 0.1
        assert tracer.sampling.rate_for("other") == 0.5

    def test_always_categories_ignore_overrides(self, sim):
        tracer = telemetry.install(
            sim, sample_rate=0.0, categories={"raml": 0.0})
        assert tracer.sample("raml") is True
        assert tracer.sampling.rate_for("raml") == 1.0

    def test_custom_always_set(self, sim):
        tracer = telemetry.install(sim, sample_rate=0.0,
                                   always={"special"})
        assert tracer.sample("special") is True
        assert tracer.sample("raml") is False


class TestOverrideValidation:
    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy(rate=0.5, overrides={"cat": 1.5})
        with pytest.raises(ValueError):
            SamplingPolicy(rate=0.5, overrides={"cat": -0.1})

    def test_global_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SamplingPolicy(rate=2.0)


class TestOverrideBehaviour:
    def make(self, sim, **kwargs):
        return telemetry.install(sim, kernel_detail=None, **kwargs)

    def test_zero_override_silences_a_category(self, sim):
        tracer = self.make(sim, sample_rate=1.0, categories={"chatty": 0.0})
        kept = sum(tracer.sample("chatty") for _ in range(500))
        assert kept == 0

    def test_one_override_keeps_everything(self, sim):
        tracer = self.make(sim, sample_rate=0.0, categories={"vital": 1.0})
        kept = sum(tracer.sample("vital") for _ in range(500))
        assert kept == 500

    def test_fractional_override_approximates_rate(self, sim):
        tracer = self.make(sim, sample_rate=1.0, seed=5,
                           categories={"net.msg": 0.25})
        kept = sum(tracer.sample("net.msg") for _ in range(4000))
        assert 0.20 < kept / 4000 < 0.30

    def test_overrides_are_stream_neutral(self):
        """An override draws one stream step like any other decision, so
        adding overrides for category A never shifts B's decisions."""
        def decisions(categories):
            sim = Simulator()
            tracer = self.make(sim, sample_rate=0.5, seed=3,
                               categories=categories)
            out = []
            for index in range(400):
                category = "a" if index % 2 else "b"
                out.append((category, tracer.sample(category)))
            return [keep for cat, keep in out if cat == "b"]

        assert decisions({"a": 0.0}) == decisions({"a": 1.0})

    def test_override_decisions_are_seed_deterministic(self, sim):
        tracer = self.make(sim, sample_rate=0.5, seed=3,
                           categories={"x": 0.3})
        first = [tracer.sample("x") for _ in range(200)]
        tracer.clear()
        second = [tracer.sample("x") for _ in range(200)]
        assert first == second

    def test_span_suppression_honours_overrides(self, sim):
        tracer = self.make(sim, sample_rate=1.0, categories={"quiet": 0.0})
        for _ in range(20):
            with tracer.span("quiet", "op"):
                with tracer.span("child", "inner"):
                    pass
        assert tracer.spans == []
        with tracer.span("loud", "op"):
            pass
        assert len(tracer.spans) == 1


class TestSampleAt:
    def test_extremes(self):
        sampler = Sampler(0.5, seed=1)
        assert all(sampler.sample_at(1.0) for _ in range(100))
        assert not any(sampler.sample_at(0.0) for _ in range(100))

    def test_consumes_exactly_one_step(self):
        a = Sampler(0.5, seed=9)
        b = Sampler(0.5, seed=9)
        a.sample_at(0.123)
        b.sample()
        # both consumed one step: streams stay aligned
        assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


class TestExportMeta:
    def test_full_trace_without_overrides_has_no_meta(self, sim):
        tracer = telemetry.install(sim, kernel_detail=None)
        with tracer.span("cat", "op"):
            pass
        records = list(jsonl_records(tracer))
        assert all(record["type"] != "meta" for record in records)

    def test_overrides_appear_in_meta(self, sim):
        tracer = telemetry.install(sim, kernel_detail=None,
                                   categories={"net.msg": 0.125})
        with tracer.span("cat", "op"):
            pass
        meta = next(record for record in jsonl_records(tracer)
                    if record["type"] == "meta")
        assert meta["overrides"] == {"net.msg": 0.125}
        assert meta["sampling_rate"] == 1.0
        json.dumps(meta)  # pipe/export-safe plain data

    def test_checksum_stable_for_same_seed(self):
        def checksum():
            sim = Simulator()
            tracer = telemetry.install(
                sim, sample_rate=0.5, seed=4, kernel_detail=None,
                categories={"a": 0.2, "b": 0.9})
            for index in range(300):
                with tracer.span("a" if index % 3 else "b", f"op{index}"):
                    pass
            return trace_checksum(tracer)

        assert checksum() == checksum()
