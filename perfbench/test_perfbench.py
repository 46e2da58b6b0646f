"""Tests of the benchmark itself, at reduced size.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from privhist.documents import read_json  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(metrics):
    return {name: entry["unit"] for name, entry in metrics.items()}


def _digests(run_pass):
    return [step["sha256"] for step in run_pass["steps"]]


@pytest.mark.parametrize("name", [w["name"] for w in BENCH["workloads"]])
def test_reduced_pass_emits_every_metric_and_traced_digests_match(name, tmp_path):
    plain = runner.run(name, 7, 0, False, ROOT, tmp_path, size="tiny", setup_repeats=1,
                       min_passes=1)
    steps = len(workloads.make(name).steps)
    assert (plain["attempted"], plain["failed"]) == (steps * len(plain["passes"]), 0)
    assert _units(plain["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(entry["value"] > 0 for entry in plain["metrics"].values())

    traced = runner.run(name, 7, 0, True, ROOT, tmp_path, size="tiny", min_passes=1)
    assert traced["failed"] == 0
    assert _units(traced["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert traced["metrics"]["cli.main.calls"]["value"] == steps
    assert any(p["traced"] for p in traced["passes"])
    for run_pass in traced["passes"]:
        assert _digests(run_pass) == _digests(plain["passes"][0])
    assert (tmp_path / f"{name}.spans.jsonl").stat().st_size > 0


def test_injected_step_failure_is_counted_and_the_pass_goes_on(tmp_path):
    workload = workloads.make("box-query", "tiny")
    first = workload.steps[0]
    argv = tuple(str(tmp_path / "missing.json") if tok == "{A}" else tok for tok in first.argv)
    steps = (dataclasses.replace(first, argv=argv),) + workload.steps[1:]
    state = runner.Run(dataclasses.replace(workload, steps=steps), 1, tmp_path / "work")

    result = state.run_pass(False)

    errors = {step["out"]: step.get("error") for step in result["steps"]}
    assert "FileNotFoundError" in errors["cubeA"]
    assert errors["attack_cubeA"] == "an input of this step failed"
    assert [out for out, error in errors.items() if error is None] == [
        "gridA", "gridB", "attack_gridA", "mst_gridB"]
    assert (state.attempted, state.failed) == (6, 2)


def test_checks_reject_a_histogram_that_loses_a_point(tmp_path):
    workload = workloads.make("box-query", "tiny")
    state = runner.Run(workload, 1, tmp_path / "work")
    state.run_pass(False)
    doc = read_json(state.paths["gridB"])
    node = doc["root"]
    while node["children"]:
        node = next(child for child in node["children"] if child["count"])
    node["count"] -= 1
    with pytest.raises(checks.CheckError, match="leaf counts"):
        checks.check_histogram(doc, state.points["B"])


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "voronoi",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
