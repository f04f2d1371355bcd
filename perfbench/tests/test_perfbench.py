"""Tests of the repository benchmark itself, at a small size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_are_well_formed():
    names = [entry["name"] for group in ("end_to_end", "per_layer")
             for entry in SPEC[group]] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for group in ("end_to_end", "per_layer"):
        for entry in SPEC[group]:
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("higher", "lower"), entry


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_emits_every_named_metric(workload, trace):
    done = run("--workload", workload, "--seed", "3", "--seconds", "3",
               "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = result_of(done)
    group = "per_layer" if trace == "1" else "end_to_end"
    expected = {entry["name"]: entry["unit"] for entry in SPEC[group]}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == expected
    if trace == "0":
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_a_tampered_digest_fails_the_output_check():
    args = ("--workload", "reconfig_journal", "--seed", "5", "--seconds",
            "0.1", "--trace", "1")
    first = run(*args)
    found = re.search(r"output digest ([0-9a-f]{64})", first.stdout)
    assert found, first.stdout
    good = found.group(1)
    assert result_of(run(*args, "--expect-digest", good))["correct"] is True
    tampered = ("0" if good[0] != "0" else "1") + good[1:]
    done = run(*args, "--expect-digest", tampered)
    assert done.returncode == 1
    assert result_of(done)["correct"] is False
    assert "CHECK FAILED" in done.stdout


def test_cycles_with_different_outputs_fail_the_check():
    cycles = [harness.Cycle(), harness.Cycle()]
    cycles[0].outputs = {"checksum": "abc"}
    cycles[1].outputs = {"checksum": "abd"}
    with pytest.raises(harness.CheckFailed):
        harness.check_outputs(cycles, None)
    cycles[1].outputs = {"checksum": "abc"}
    assert harness.check_outputs(cycles, None) == harness.digest(
        {"checksum": "abc"})


def test_without_the_program_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_times_reconcile_with_wall_time():
    spans = harness.Spans(("outer",))
    spans.open(harness.PHASE)
    spans.open("outer")
    spans.open("inner")
    sum(range(20000))
    spans.close()
    spans.open(harness.HARNESS)
    spans.close()
    spans.close()
    wall = spans.close()
    layers, unaccounted = spans.reconcile(wall)
    assert set(layers) == {"outer", "inner"}
    assert abs(sum(layers.values()) + unaccounted * wall - wall) < 1e-9
    assert len(spans.durations["outer"]) == 1
    spans.open("left-open")
    with pytest.raises(harness.CheckFailed):
        spans.reconcile(wall)


def test_drift_reads_growth_of_per_op_cost():
    assert harness.drift([1.0] * 40) == 1.0
    assert harness.drift([1.0] * 20 + [2.0] * 20) == 2.0


def test_tail_quantile_needs_ten_samples_beyond_it():
    with pytest.raises(harness.CheckFailed):
        harness.tail_quantile([1.0] * 999, 0.99)
    assert harness.tail_quantile(list(range(1000)), 0.99) == 989


def test_cycle_tail_quantile_ignores_a_stalled_cycle():
    cycles = []
    for slow, slow_time in ((20, 4.0), (20, 4.0), (100, 54.0)):
        cycle = harness.Cycle()
        cycle.factor = 2.0
        cycle.op_times = [1.0] * (1000 - slow) + [slow_time] * slow
        cycles.append(cycle)
    assert harness.cycle_tail_quantile(cycles) == 2.0
    pooled = [t / 2.0 for cycle in cycles for t in cycle.op_times]
    assert harness.tail_quantile(pooled) == 27.0
