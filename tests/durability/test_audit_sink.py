"""Durable persistence of the RAML decision audit."""

import pytest

from repro import telemetry
from repro.durability import (
    AUDIT_LOG,
    DurableAuditSink,
    MemoryStore,
    WriteAheadLog,
)
from repro.errors import DurabilityError, StoreError
from repro.events import Simulator
from repro.injectors import FlakyStore
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import AddComponent, ReconfigurationTransaction
from repro.telemetry.audit import AuditLog

from tests.durability.helpers import fresh_counter


class TestSinkMechanics:
    def test_records_persist_in_canonical_shape(self):
        log = AuditLog()
        sink = DurableAuditSink(MemoryStore())
        log.add_sink(sink)
        log.record(1.5, "raml.decision", {"constraint": "latency"})
        assert sink.persisted == 1
        assert sink.load() == [
            {"time": 1.5, "kind": "raml.decision", "constraint": "latency"},
        ]

    def test_removed_sink_stops_observing(self):
        log = AuditLog()
        sink = DurableAuditSink(MemoryStore())
        log.add_sink(sink)
        log.record(0.0, "a", {})
        log.remove_sink(sink)
        log.record(1.0, "b", {})
        assert sink.persisted == 1

    def test_on_error_raise_propagates_backend_failure(self):
        log = AuditLog()
        sink = DurableAuditSink(
            FlakyStore(MemoryStore(), fail_after=1))
        log.add_sink(sink)
        with pytest.raises(StoreError):
            log.record(0.0, "a", {})
        assert sink.dropped == 1

    def test_on_error_collect_counts_the_loss(self):
        log = AuditLog()
        sink = DurableAuditSink(
            FlakyStore(MemoryStore(), fail_after=1), on_error="collect")
        log.add_sink(sink)
        log.record(0.0, "a", {})
        log.record(1.0, "b", {})
        assert sink.dropped == 1
        assert sink.persisted == 1
        assert sink.errors

    def test_invalid_on_error_rejected(self):
        with pytest.raises(DurabilityError):
            DurableAuditSink(MemoryStore(), on_error="ignore")


class TestTracerIntegration:
    def wired(self, store):
        sim = Simulator()
        tracer = telemetry.install(sim, sample_rate=1.0, seed=3)
        assembly = Assembly(star(sim, leaves=3))
        assembly.deploy(fresh_counter("server"), "leaf1")
        sink = DurableAuditSink(store).attach(tracer)
        return sim, assembly, sink

    def run_reconfig(self, store):
        _sim, assembly, sink = self.wired(store)
        txn = (ReconfigurationTransaction(assembly, name="t-audit")
               .add(AddComponent(fresh_counter("extra"), "leaf2")))
        txn.execute()
        return sink

    def test_reconfig_phases_stream_into_the_store(self):
        sink = self.run_reconfig(MemoryStore())
        kinds = [record["kind"] for record in sink.load()]
        assert "reconfig.phase" in kinds
        assert sink.persisted == len(sink.load())

    def test_detach_unsubscribes(self):
        store = MemoryStore()
        _sim, assembly, sink = self.wired(store)
        sink.detach()
        (ReconfigurationTransaction(assembly, name="t-quiet")
         .add(AddComponent(fresh_counter("extra"), "leaf2"))
         .execute())
        assert sink.persisted == 0

    def test_same_seed_audit_streams_are_byte_identical(self):
        from repro.durability import canonical_json

        streams = []
        for _ in range(2):
            sink = self.run_reconfig(MemoryStore())
            streams.append(canonical_json({"records": sink.load()}))
        assert streams[0] == streams[1]

    def test_audit_and_wal_share_one_store(self):
        store = MemoryStore()
        _sim, assembly, sink = self.wired(store)
        txn = (ReconfigurationTransaction(
            assembly, name="t-both", wal=WriteAheadLog(store))
            .add(AddComponent(fresh_counter("extra"), "leaf2")))
        txn.execute()
        assert AUDIT_LOG in store.logs()
        assert "reconfig-wal" in store.logs()
