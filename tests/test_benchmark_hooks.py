"""The benchmark's hooks into privhist still resolve.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table,
and ``perfbench/checks.py`` imports library helpers to check outputs.  A
deletion or rename in privhist would break traced benchmark runs, which only
``pytest perfbench`` exercises; this test catches it in the tier-1 suite.
Every workload step must also parse as a ``privhist`` command line, so that
deleting an option the benchmark passes fails here and not in a benchmark
run.  Each work count the tracer computes is applied to one small real call
of its function, so that a deletion the count reads (``HistogramNode.walk``,
a report field) fails here too.  The perfbench files are loaded read-only,
without writing bytecode next to them.  The benchmark's ``setup_s`` times a fresh ``import
privhist.cli``, so that import must load no scipy.
"""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


TRACER = _load("tracer")


@pytest.mark.parametrize("target", sorted(TRACER.TRACED), ids=".".join)
def test_traced_function_resolves(target):
    module, name = target
    assert callable(getattr(importlib.import_module(f"privhist.{module}"), name, None))


@pytest.fixture(scope="module")
def count_calls(tmp_path_factory):
    """(args, kwargs) of one small real call of each function whose ``TRACED``
    entry counts work; ``strip_to_sanitized`` publishes a built tree and the
    same tree read back from its document."""
    import numpy as np

    from privhist.adversary import IsolationParams
    from privhist.documents import histogram_from_doc, histogram_to_doc, write_json_atomic
    from privhist.geometry import Ball, Dataset
    from privhist.roundness import certify_roundness
    from privhist.sanitizer import build_voronoi

    data = Dataset(np.random.default_rng(3).uniform(-0.6, 0.6, (60, 2)))
    support = Ball(np.zeros(2), 1.0)
    hist = build_voronoi(data, support, t=4, max_depth=2, seed=1)
    back = histogram_from_doc(histogram_to_doc(hist))
    centers = hist.root.split.centers
    path = str(tmp_path_factory.mktemp("hooks") / "hist.json")
    write_json_atomic(path, histogram_to_doc(hist))  # read_json may run first
    published = ("voronoi-greedy", 4, 2, 1)
    return {
        ("sanitizer", "pick_centers_greedy"): [
            ((support, certify_roundness(support), 2_000), {"seed": 1})],
        ("sanitizer", "pick_centers_uniform"): [((support, 16), {"seed": 1})],
        ("sanitizer", "strip_to_sanitized"): [((hist.root, data, *published), {}),
                                              ((back.root, data, *published), {})],
        ("geometry", "voronoi_assign"): [((centers, data.points), {})],
        ("geometry", "uniform_in_region"): [
            ((hist.root.child(0).region, 10, np.random.default_rng(4)), {})],
        ("roundness", "certify_children"): [((support, centers), {})],
        ("roundness", "check_privacy_condition"): [
            ((hist.root, 6.0), {"q_probes": 2, "r_grid_size": 2, "volume_samples": 500,
                                "max_cells": 2})],
        ("adversary", "attack"): [
            ((hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf"), {"queries": 50})],
        ("metrics", "locate_leaves"): [((back, data.points), {})],
        ("documents", "write_json_atomic"): [((path, histogram_to_doc(hist)), {})],
        ("documents", "read_json"): [((path,), {})],
    }


def test_every_work_count_has_a_real_call(count_calls):
    assert set(count_calls) == {target for target, count in TRACER.TRACED.items() if count}


@pytest.mark.parametrize("target", sorted(t for t, count in TRACER.TRACED.items() if count),
                         ids=".".join)
def test_work_counts_read_a_real_call(target, count_calls):
    module, name = target
    fn = getattr(importlib.import_module(f"privhist.{module}"), name)
    counts = []
    for args, kwargs in count_calls[target]:
        counts.append(TRACER.TRACED[target](args, kwargs, fn(*args, **kwargs)))
        assert counts[-1] and all(type(v) in (int, bool) and v >= 0
                                  for v in counts[-1].values()), counts[-1]
    assert all(c == counts[0] for c in counts)  # a tree counts the same read back


def test_traced_region_classes_have_membership():
    geometry = importlib.import_module("privhist.geometry")
    for name in TRACER.REGION_CLASSES:
        assert callable(getattr(getattr(geometry, name), "contains_many", None))


def test_checks_import():
    assert callable(_load("checks").locate_leaves)


WORKLOADS = _load("workloads")


@pytest.mark.parametrize("size", sorted(WORKLOADS.SIZES))
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_steps_parse(name, size):
    from privhist.cli import _build_parser

    parser = _build_parser()
    for step in WORKLOADS.make(name, size).steps:
        argv = [re.sub(r"\{(\w+)\}", lambda m: "7" if m[1] == "seed" else f"{m[1]}.json", arg)
                for arg in step.argv]
        args = parser.parse_args(argv)  # an unknown option exits here
        assert args.command == argv[0]


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the functions that use it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, privhist.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
