"""S2's paired overhead method: how a pair is timed and how pairs are
judged (``bench_s2_telemetry.run_pair`` / ``paired_overhead``)."""

import pytest

from bench_s2_telemetry import SLICES, Side, paired_overhead, run_pair


class LoggedSim:
    """Stands in for a Simulator: logs each ``run(until=…)`` call."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def run(self, until=None):
        self.log.append((self.name, until))


def logged_side(name, log, span=4.0, until=None):
    return Side(LoggedSim(name, log), span, until,
                lambda elapsed: {"side": name, "elapsed_s": elapsed})


class TestRunPair:
    @pytest.mark.parametrize("index", [0, 1])
    def test_sides_take_turns_through_the_same_slices(self, index):
        log = []
        off, on = run_pair(index, logged_side("off", log),
                           logged_side("on", log))
        slices = [log[i:i + 2] for i in range(0, len(log), 2)]
        assert len(slices) == SLICES
        for (first, a), (second, b) in slices:
            assert {first, second} == {"off", "on"}
            assert a == b
        leads = [first for (first, _), _ in slices]
        assert leads[0] == ("off" if index % 2 == 0 else "on")
        assert all(a != b for a, b in zip(leads, leads[1:]))
        stops = [stop for (_, stop), _ in slices]
        assert stops[:-1] == [4.0 * step / SLICES
                              for step in range(1, SLICES)]
        assert stops[-1] is None  # the last slice runs on to ``until``
        assert off["side"] == "off" and on["side"] == "on"
        assert off["elapsed_s"] >= 0.0 and on["elapsed_s"] >= 0.0


class TestPairedOverhead:
    def test_median_and_interquartile_range_of_pair_overheads(self):
        pairs = [({"rate": rate}, {"rate": 100.0})
                 for rate in (100.0, 110.0, 120.0, 150.0, 200.0)]
        median, iqr = paired_overhead(pairs, "rate")
        assert median == pytest.approx(20.0)
        assert iqr == pytest.approx(75.0 - 5.0)

    def test_a_host_speed_both_sides_share_cancels(self):
        # Every pair ran at its own host speed; in each the on side was
        # 10 % slower than the off side beside it.
        pairs = [({"rate": 110.0 * speed}, {"rate": 100.0 * speed})
                 for speed in (1.0, 0.5, 0.8, 0.3)]
        median, iqr = paired_overhead(pairs, "rate")
        assert median == pytest.approx(10.0)
        assert iqr == pytest.approx(0.0, abs=1e-9)
