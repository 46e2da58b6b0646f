"""Closed-loop replay of one workload through ``privhist.cli.main``.

A pass runs the workload's steps one after another in this process, each as
one in-process CLI invocation, and times each step.  Passes repeat until the
run's time is spent.  A fixed reference kernel runs between steps, and
end-to-end pipeline time is given in units of it, which cancels the drift
of a shared host's speed; per-layer timings are medians over passes.  The
first pass checks every output document and is not timed; later passes,
traced or not, must reproduce its bytes exactly.  A step fails on a nonzero exit, an exception
escaping ``cli.main`` (``MemoryError`` included), a failed check or a
changed digest; the failure is counted and the pass goes on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from privhist import cli
from privhist.documents import dataset_to_doc, write_json_atomic
from privhist.geometry import Dataset

import checks
import tracer as tracing
import workloads

END_TO_END = {"setup_s": "s", "pipeline_ref": "ref", "peak_rss_mb": "MB", "doc_mb": "MB"}
STAGE_METRICS = {f"stage.{stage}_s": "s" for stage in workloads.STAGES}
RUN_METRICS = {"stage.pipeline_s": "s", "stage.traced_pipeline_s": "s",
               "trace_overhead": "fraction", "setup.experiments_import_s": "s"}
_KERNEL_DATA = np.random.default_rng(0).random((60_000, 4))


def reference_kernel() -> float:
    """Seconds for one run of a fixed reference kernel.

    It mixes interpreted Python with numpy reductions and a sort, as the
    pipeline does, and calls nothing in privhist, so no change to the
    library can change its cost.  Run next to each step, it tracks the
    speed that this core's shared host gives the process at that moment.
    """
    start = time.perf_counter()
    counts = {}
    for i in range(60_000):
        key = (i * 7919) % 1021
        counts[key] = counts.get(key, 0) + 1
    data = _KERNEL_DATA
    np.argsort(np.abs(data - data[0]).max(axis=1), kind="stable")
    data[((data > 0.25) & (data < 0.75)).all(axis=1)].sum(axis=0)
    return time.perf_counter() - start


SETUP_SNIPPET = ("import time; t = time.perf_counter(); import privhist.cli; "
                 "print(repr(time.perf_counter() - t))")


def per_layer_units():
    return {**tracing.layer_metric_names(), **STAGE_METRICS, **RUN_METRICS}


def _python(root: Path, *args):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def measure_setup(root: Path, repeats: int) -> list[float]:
    """Seconds to import privhist.cli, each in a fresh interpreter."""
    return [float(_python(root, "-c", SETUP_SNIPPET).stdout.split()[-1])
            for _ in range(repeats)]


def experiments_import_s(root: Path) -> float:
    """Cumulative import time of privhist.experiments under -X importtime."""
    for line in _python(root, "-X", "importtime", "-c", "import privhist.cli").stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "privhist.experiments":
            return int(fields[1]) / 1e6
    return 0.0


def environment(root: Path) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))},
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
    }


class Run:
    """State of one workload run: documents, passes and failure counts."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.passes: list[dict] = []
        self.reference: dict[str, str] = {}  # output name -> sha256 of the first pass
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        names = list(workload.inputs) + [step.out for step in workload.steps]
        # relative paths keep the manifests, hence the digests, location-free
        self.paths = {name: os.path.relpath(work / f"{name}.json") for name in names}
        self.points = workloads.generate_inputs(workload, seed)
        for name, pts in self.points.items():
            write_json_atomic(self.paths[name], dataset_to_doc(Dataset(pts)))

    def argv(self, index: int, step) -> list[str]:
        subst = dict(self.paths, seed=str(workloads.step_seed(self.seed, index)))
        return [subst[tok[1:-1]] if tok.startswith("{") else tok for tok in step.argv]

    def run_pass(self, traced: bool) -> dict:
        """Run every step once; the first pass also checks each output."""
        check = not self.passes
        gc.collect()
        for step in self.workload.steps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.paths[step.out])
        stages = dict.fromkeys(workloads.STAGES, 0.0)
        records, failed_outputs, doc_bytes, kernels = [], set(), 0, []
        for index, step in enumerate(self.workload.steps):
            argv = self.argv(index, step)
            record = {"out": step.out, "stage": step.stage}
            error = None
            if failed_outputs.intersection(step.reads):
                error = "an input of this step failed"
            else:
                kernels.append(reference_kernel())
                cpu = time.process_time()
                error, seconds = _invoke(argv)
                record["seconds"] = seconds
                record["cpu_s"] = time.process_time() - cpu
                stages[step.stage] += seconds
            if error is None:
                path = self.paths[step.out]
                record["sha256"] = checks.sha256(path)
                doc_bytes += os.path.getsize(path)
                error = self._verify(step, argv, record, check)
            self.attempted += 1
            if error is not None:
                self.failed += 1
                failed_outputs.add(step.out)
                record["error"] = error
                sys.stderr.write(f"step {step.out} failed: {error}\n")
            records.append(record)
        kernels.append(reference_kernel())
        result = {"traced": traced, "pipeline_s": sum(stages.values()), "stages": stages,
                  "kernel_s": kernels, "doc_bytes": doc_bytes, "steps": records}
        self.passes.append(result)
        return result

    def _verify(self, step, argv, record, check):
        if check:
            try:
                record["headline"] = checks.check_step(step, argv, self.paths, self.points)
            except Exception as exc:  # any failure to check is a failed step
                return f"check failed: {type(exc).__name__}: {exc}"
            self.reference[step.out] = record["sha256"]
        elif record["sha256"] != self.reference.get(step.out):
            return "output bytes differ from the first pass"
        return None


def _invoke(argv):
    """(error or None, seconds) of one in-process CLI invocation."""
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(captured):
            code = cli.main(argv)
    except Exception:  # escapes the CLI's exit-code map: count it, keep going
        return traceback.format_exc(limit=-3).strip(), time.perf_counter() - start
    seconds = time.perf_counter() - start
    if code != 0:
        return f"exit code {code}: {captured.getvalue().strip()}", seconds
    return None, seconds


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _enough(done, start, seconds, min_passes, pass_s):
    """True once min_passes are done and another pass of pass_s seconds
    would end past the run's time."""
    return len(done) >= min_passes and time.perf_counter() + pass_s - start > seconds


def _measure(state, root, seconds, setup_repeats, min_passes, record):
    """End-to-end metrics of the untraced passes after the first, which
    checks the outputs and warms up.

    pipeline_ref is the mean pass time over the mean time of the reference
    kernel, which runs before each step and after the last: on a shared
    host whose speed drifts by a third and more from minute to minute, the
    drift slows both alike and cancels.  The median wall time of a pass
    goes to the record as pipeline_s.
    """
    record["setup_samples"] = measure_setup(root, setup_repeats)
    state.run_pass(False)
    passes, start, pass_s = [], time.perf_counter(), 0.0
    while not _enough(passes, start, seconds, min_passes, pass_s):
        began = time.perf_counter()
        passes.append(state.run_pass(False))
        pass_s = time.perf_counter() - began
    record["pipeline_s"] = _median(passes, "pipeline_s")
    return {
        "setup_s": statistics.median(record["setup_samples"]),
        "pipeline_ref": statistics.mean(p["pipeline_s"] for p in passes)
        / statistics.mean(k for p in passes for k in p["kernel_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "doc_mb": passes[0]["doc_bytes"] / 1e6,
    }


def _measure_traced(state, root, seconds, min_passes, spans_path):
    """Per-layer metrics of traced passes, with untraced stage times.

    After the checking pass, untraced and traced passes alternate, so that
    drift in the machine's speed affects both sides of trace_overhead alike.
    """
    state.run_pass(False)
    start = time.perf_counter()
    spans = tracing.Tracer(f"{state.workload.name}/{state.seed}")
    plain, traced, pair_s = [], [], 0.0
    while not _enough(traced, start, seconds, min_passes, pair_s):
        began = time.perf_counter()
        plain.append(state.run_pass(False))
        spans.pass_index = len(traced)
        spans.install()
        try:
            traced.append(state.run_pass(True))
        finally:
            spans.uninstall()
        pair_s = time.perf_counter() - began
    spans.write(spans_path)
    metrics = spans.layer_metrics(range(len(traced)))
    for stage in workloads.STAGES:
        metrics[f"stage.{stage}_s"] = statistics.median(p["stages"][stage] for p in plain)
    metrics["stage.pipeline_s"] = _median(plain, "pipeline_s")
    metrics["stage.traced_pipeline_s"] = _median(traced, "pipeline_s")
    metrics["trace_overhead"] = metrics["stage.traced_pipeline_s"] / metrics["stage.pipeline_s"] - 1
    metrics["setup.experiments_import_s"] = experiments_import_s(root)
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path, out: Path, *,
        size: str = "full", setup_repeats: int = 5, min_passes: int = 3) -> dict:
    """Run one workload; return the result record with its metrics.

    Documents go to ``out/work``; a traced run writes its spans to
    ``out/<workload>.spans.jsonl``.  Each traced pass comes with an untraced
    partner, so a traced run asks for at most two of each to fit its time.
    """
    state = Run(workloads.make(workload_name, size), seed, out / "work" / workload_name)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "environment": environment(root)}
    if trace:
        metrics = _measure_traced(state, root, seconds, min(min_passes, 2),
                                  out / f"{workload_name}.spans.jsonl")
        units = per_layer_units()
    else:
        metrics = _measure(state, root, seconds, setup_repeats, min_passes, record)
        units = END_TO_END
    record.update(
        attempted=state.attempted, failed=state.failed, passes=state.passes,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    )
    return record
