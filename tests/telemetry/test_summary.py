"""The per-category span fold and the run summary built on it."""

from repro.events import Simulator
from repro.telemetry import Tracer, category_stats, render_summary


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

    def test_summary_profile_lists_the_fold_by_simulated_time(self):
        tracer = Tracer(Simulator())
        tracer.emit("connector", "call", 0.0, 0.5)
        tracer.emit("net.msg", "flow", 0.0, 1.5)
        tracer.emit("net.msg", "flow2", 0.0, 0.5)
        lines = render_summary(tracer, wall=False).splitlines()
        assert lines[0] == "span profile (by simulated time)"
        assert [line.split() for line in lines[3:5]] == [
            ["net.msg", "2", "2.0000"], ["connector", "1", "0.5000"]]
