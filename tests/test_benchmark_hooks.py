"""The benchmark's hooks into privhist still resolve.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table,
and ``perfbench/checks.py`` imports library helpers to check outputs.  A
deletion or rename in privhist would break traced benchmark runs, which only
``pytest perfbench`` exercises; this test catches it in the tier-1 suite.
Every workload step must also parse as a ``privhist`` command line, so that
deleting an option the benchmark passes fails here and not in a benchmark
run.  The perfbench files are loaded read-only, without writing bytecode
next to them.  The benchmark's ``setup_s`` times a fresh ``import
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
