"""Unit tests for composition paths."""

import pytest

from repro.errors import PathError
from repro.paths import CompositionPath, PathFamily, PathPlanner, ServiceOption


def video_family():
    """The paper's example: extraction, coding, transfer for video."""
    family = PathFamily("video", ["extract", "encode", "transfer"])
    family.add_option(ServiceOption(
        "extract-raw", "extract", lambda v: f"raw({v})",
        output_format="raw", latency=1.0, quality=1.0))
    family.add_option(ServiceOption(
        "encode-h264", "encode", lambda v: f"h264({v})",
        input_format="raw", output_format="h264",
        latency=4.0, quality=1.0, bandwidth_required=8.0))
    family.add_option(ServiceOption(
        "encode-h263-lite", "encode", lambda v: f"h263({v})",
        input_format="raw", output_format="h263",
        latency=1.0, quality=0.4, bandwidth_required=1.0))
    family.add_option(ServiceOption(
        "send-stream", "transfer", lambda v: f"sent({v})",
        input_format="*", latency=1.0))
    return family


class TestFamily:
    def test_duplicate_stage_rejected(self):
        with pytest.raises(PathError):
            PathFamily("f", ["a", "a"])

    def test_empty_stages_rejected(self):
        with pytest.raises(PathError):
            PathFamily("f", [])

    def test_unknown_stage_rejected(self):
        family = PathFamily("f", ["a"])
        with pytest.raises(PathError):
            family.add_option(ServiceOption("x", "b", lambda v: v))

    def test_duplicate_option_rejected(self):
        family = PathFamily("f", ["a"])
        family.add_option(ServiceOption("x", "a", lambda v: v))
        with pytest.raises(PathError):
            family.add_option(ServiceOption("x", "a", lambda v: v))

    def test_options_for_unknown_stage_rejected(self):
        with pytest.raises(PathError):
            PathFamily("f", ["a"]).options_for("b")

    def test_all_paths_respects_formats(self):
        family = video_family()
        paths = family.all_paths()
        names = {tuple(p.names) for p in paths}
        assert names == {
            ("extract-raw", "encode-h264", "send-stream"),
            ("extract-raw", "encode-h263-lite", "send-stream"),
        }

    def test_all_paths_respects_feasibility(self):
        family = video_family()
        paths = family.all_paths({"bandwidth": 2.0})
        assert [p.names for p in paths] == [
            ["extract-raw", "encode-h263-lite", "send-stream"]
        ]


class TestCompositionPath:
    def test_execute_threads_value(self):
        family = video_family()
        path = family.all_paths({"bandwidth": 2.0})[0]
        assert path.execute("cam") == "sent(h263(raw(cam)))"

    def test_aggregates(self):
        family = video_family()
        paths = {tuple(p.names): p for p in family.all_paths()}
        hq = paths[("extract-raw", "encode-h264", "send-stream")]
        assert hq.total_latency == 6.0
        assert hq.total_quality == 1.0
        lq = paths[("extract-raw", "encode-h263-lite", "send-stream")]
        assert lq.total_quality == 0.4

    def test_empty_path_quality_zero(self):
        assert CompositionPath([]).total_quality == 0.0


class TestPlanner:
    def test_plans_cheapest_by_latency(self):
        planner = PathPlanner(video_family())
        path = planner.plan({"bandwidth": 100.0})
        assert path.names == ["extract-raw", "encode-h263-lite", "send-stream"]

    def test_quality_weight_flips_choice(self):
        planner = PathPlanner(video_family(), quality_weight=10.0)
        path = planner.plan({"bandwidth": 100.0})
        assert path.names == ["extract-raw", "encode-h264", "send-stream"]

    def test_bandwidth_constraint_forces_lite_codec(self):
        planner = PathPlanner(video_family(), quality_weight=10.0)
        path = planner.plan({"bandwidth": 2.0})
        assert path.names == ["extract-raw", "encode-h263-lite", "send-stream"]

    def test_planner_matches_exhaustive_enumeration(self):
        family = video_family()
        planner = PathPlanner(family, quality_weight=0.5)
        for bandwidth in (0.5, 1.0, 2.0, 8.0, 100.0):
            context = {"bandwidth": bandwidth}
            candidates = family.all_paths(context)
            if not candidates:
                with pytest.raises(PathError):
                    planner.plan(context)
                continue
            best = min(
                candidates,
                key=lambda p: sum(o.latency - 0.5 * o.quality for o in p.options),
            )
            assert planner.plan(context).names == best.names

    def test_infeasible_stage_raises(self):
        planner = PathPlanner(video_family())
        with pytest.raises(PathError, match="no feasible option"):
            planner.plan({"bandwidth": 0.1})

    def test_format_incompatible_family_raises(self):
        family = PathFamily("broken", ["a", "b"])
        family.add_option(ServiceOption("a1", "a", lambda v: v,
                                        output_format="x"))
        family.add_option(ServiceOption("b1", "b", lambda v: v,
                                        input_format="y"))
        with pytest.raises(PathError, match="format-incompatible"):
            PathPlanner(family).plan()

    @pytest.mark.parametrize("names", [("sink", "b1"), ("a1", "source")])
    def test_options_named_like_the_planner_ends(self, names):
        family = PathFamily("ends", ["a", "b"])
        family.add_option(ServiceOption(names[0], "a", lambda v: v))
        family.add_option(ServiceOption(names[1], "b", lambda v: v))
        assert [p.names for p in family.all_paths()] == [list(names)]
        assert PathPlanner(family).plan().names == list(names)

    def test_plan_count_tracks_usage(self):
        planner = PathPlanner(video_family())
        planner.plan({"bandwidth": 10})
        planner.plan({"bandwidth": 10})
        assert planner.plan_count == 2
