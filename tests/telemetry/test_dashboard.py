"""PR-over-PR telemetry dashboard: folding, deltas, regressions, CLI."""

import json

from repro.events import Simulator
from repro.telemetry import Dashboard, Tracer, category_stats
from repro.telemetry.dashboard import main as dashboard_main


def bench_doc(disabled=0.2, sampled=6.0, off_eps=400_000.0, drops=0):
    return {
        "mode": "smoke",
        "unix_time": 1_700_000_000,
        "kernel": {
            "events_per_sec": {"off": off_eps, "sampled_1pct": off_eps * 0.94},
            "overhead_pct": {"disabled": disabled, "sampled_1pct": sampled},
        },
        "netsim": {"overhead_pct": 95.0, "overhead_pct_sampled": 4.0,
                   "messages_per_sec_off": 50_000.0},
        "categories": {"connector": {"spans": 10, "sim_time": 1.0,
                                     "wall_ms": 2.0}},
        "drops": drops,
        "span_buffer_bytes": 4096,
    }


class TestCategoryStats:
    def test_folds_ring_by_category(self):
        tracer = Tracer(Simulator())
        sim = tracer.sim
        with tracer.span("connector", "call"):
            sim.run(until=0.5)
        tracer.emit("net.msg", "flow", 0.0, 1.5)
        tracer.emit("net.msg", "flow2", 0.0, 0.5)
        stats = category_stats(tracer)
        assert stats["connector"]["spans"] == 1
        assert stats["connector"]["sim_time"] == 0.5
        assert stats["net.msg"]["spans"] == 2
        assert stats["net.msg"]["sim_time"] == 2.0

    def test_empty_tracer(self):
        assert category_stats(Tracer(Simulator())) == {}


class TestDashboard:
    def test_entry_from_bench_folds_the_document(self):
        entry = Dashboard.entry_from_bench(bench_doc(), "PR7")
        assert entry["label"] == "PR7"
        assert entry["kernel_overhead_pct"]["sampled_1pct"] == 6.0
        assert entry["netsim"]["overhead_pct_sampled"] == 4.0
        assert entry["categories"]["connector"]["spans"] == 10

    def test_parallel_stalls_come_from_the_process_run(self):
        doc = {"mode": "full", "cores": 2, "speedup": 0.9,
               "parallel": {"events_per_sec": 1e5, "sync_stalls": 1592},
               "single_shard": {"events_per_sec": 1.1e5},
               "restart": {"restarts": 1},
               "determinism": {"backends_match": True}}
        parallel = Dashboard.entry_from_bench(doc, "par")["parallel"]
        assert parallel["sync_stalls"] == 1592
        assert parallel["deterministic"] is True
        assert parallel["restarts"] == 1

    def test_round_trip_jsonl(self, tmp_path):
        dash = Dashboard()
        dash.add(Dashboard.entry_from_bench(bench_doc(), "PR2"))
        dash.add(Dashboard.entry_from_bench(bench_doc(sampled=5.0), "PR7"))
        path = dash.save(tmp_path / "hist.jsonl")
        loaded = Dashboard.load(path)
        assert [e["label"] for e in loaded.entries] == ["PR2", "PR7"]
        assert loaded.entries == dash.entries

    def test_load_missing_history_is_empty(self, tmp_path):
        assert Dashboard.load(tmp_path / "nope.jsonl").entries == []

    def test_deltas_between_consecutive_runs(self):
        dash = Dashboard([
            Dashboard.entry_from_bench(bench_doc(sampled=8.0), "PR2"),
            Dashboard.entry_from_bench(bench_doc(sampled=4.0), "PR7"),
        ])
        (pair,) = dash.deltas()
        assert pair["kernel_overhead_pct.sampled_1pct"] == -50.0

    def test_regressions_flag_bad_direction_only(self):
        dash = Dashboard([
            Dashboard.entry_from_bench(bench_doc(sampled=4.0,
                                                 off_eps=400_000.0), "PR2"),
            Dashboard.entry_from_bench(bench_doc(sampled=8.0,
                                                 off_eps=300_000.0), "PR7"),
        ])
        found = {(label, path) for label, path, _ in dash.regressions(10.0)}
        assert ("PR7", "kernel_overhead_pct.sampled_1pct") in found
        assert ("PR7", "kernel_events_per_sec.off") in found

    def test_improvements_are_not_regressions(self):
        dash = Dashboard([
            Dashboard.entry_from_bench(bench_doc(sampled=8.0), "PR2"),
            Dashboard.entry_from_bench(bench_doc(sampled=4.0), "PR7"),
        ])
        assert dash.regressions(10.0) == []

    def test_render_lists_every_run(self):
        dash = Dashboard([
            Dashboard.entry_from_bench(bench_doc(), "PR2"),
            Dashboard.entry_from_bench(bench_doc(sampled=5.5), "PR7"),
        ])
        text = dash.render()
        assert "PR2" in text and "PR7" in text
        assert "sampled 1% %" in text

    def test_render_empty(self):
        assert "no runs" in Dashboard().render()


class TestCli:
    def test_appends_entry_and_renders(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_telemetry.json"
        bench.write_text(json.dumps(bench_doc()))
        history = tmp_path / "hist.jsonl"
        code = dashboard_main([str(bench), "--history", str(history),
                               "--label", "PR7"])
        assert code == 0
        assert len(Dashboard.load(history).entries) == 1
        assert "PR7" in capsys.readouterr().out

    def test_fail_on_regression(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        Dashboard([Dashboard.entry_from_bench(bench_doc(sampled=4.0), "PR2")]
                  ).save(history)
        bench = tmp_path / "BENCH_telemetry.json"
        bench.write_text(json.dumps(bench_doc(sampled=9.0)))
        code = dashboard_main([str(bench), "--history", str(history),
                               "--label", "PR7", "--fail-on-regression"])
        assert code == 1
        assert "REGRESSIONS" in capsys.readouterr().out

    def test_render_only_without_bench(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        Dashboard([Dashboard.entry_from_bench(bench_doc(), "PR2")]
                  ).save(history)
        code = dashboard_main(["--history", str(history)])
        assert code == 0
        assert "PR2" in capsys.readouterr().out
