"""Deterministic per-region telemetry merge."""

from repro.events import Simulator
from repro import telemetry
from repro.telemetry.merge import (
    merge_records,
    merged_checksum,
    merged_trace_json,
    record_time,
    region_records,
)


def build_tracer(offset=0.0):
    sim = Simulator()
    tracer = telemetry.install(sim, kernel_detail=None)
    sim.schedule(lambda: None, delay=offset + 1.0)
    with tracer.span("work", "op"):
        pass
    sim.run()
    tracer.instant("mark", "tick")
    tracer.count("ops", 3)
    return tracer


class TestRegionRecords:
    def test_tags_region_and_seq(self):
        records = region_records(build_tracer(), region=2)
        assert [record["seq"] for record in records] \
            == list(range(len(records)))
        assert all(record["region"] == 2 for record in records)

    def test_records_are_plain_jsonable_data(self):
        import json
        for record in region_records(build_tracer(), region=0):
            json.dumps(record)


class TestMergeOrder:
    def test_interleaves_by_time_then_region_then_seq(self):
        streams = {
            1: [{"type": "instant", "time": 0.5, "name": "b", "seq": 0},
                {"type": "instant", "time": 2.0, "name": "d", "seq": 1}],
            0: [{"type": "instant", "time": 0.5, "name": "a", "seq": 0},
                {"type": "instant", "time": 1.0, "name": "c", "seq": 1}],
        }
        merged = merge_records(streams)
        assert [record["name"] for record in merged] == ["a", "b", "c", "d"]

    def test_meta_first_counters_last(self):
        streams = {
            0: [{"type": "counter", "name": "n", "value": 1, "seq": 2},
                {"type": "meta", "sampling_rate": 0.5, "seq": 0},
                {"type": "span", "start": 0.0, "end": 1.0, "seq": 1}],
        }
        merged = merge_records(streams)
        assert [record["type"] for record in merged] \
            == ["meta", "span", "counter"]

    def test_same_region_ties_break_by_seq(self):
        streams = {
            0: [{"type": "instant", "time": 1.0, "name": "first", "seq": 0},
                {"type": "instant", "time": 1.0, "name": "second", "seq": 1}],
        }
        merged = merge_records(streams)
        assert [record["name"] for record in merged] == ["first", "second"]

    def test_record_time_shapes(self):
        assert record_time({"type": "span", "start": 2.5}) == 2.5
        assert record_time({"type": "audit", "time": 1.5}) == 1.5
        assert record_time({"type": "meta"}) == float("-inf")
        assert record_time({"type": "counter"}) == float("inf")


class TestChecksum:
    def test_same_streams_same_checksum(self):
        streams = {region: region_records(build_tracer(), region)
                   for region in (0, 1)}
        again = {region: region_records(build_tracer(), region)
                 for region in (0, 1)}
        assert merged_checksum(merge_records(streams)) \
            == merged_checksum(merge_records(again))

    def test_any_difference_changes_checksum(self):
        base = {0: region_records(build_tracer(), 0)}
        other = {0: region_records(build_tracer(offset=1.0), 0)}
        assert merged_checksum(merge_records(base)) \
            != merged_checksum(merge_records(other))

    def test_serialization_is_one_json_line_per_record(self):
        merged = merge_records({0: region_records(build_tracer(), 0)})
        text = merged_trace_json(merged)
        lines = text.strip().split("\n")
        assert len(lines) == len(merged)
