"""Span tracing of privhist's public functions, installed from outside.

``Tracer.install()`` replaces each traced function in every ``privhist.*``
namespace that binds the same object (``cli``, ``metrics`` and ``sanitizer``
import by name), and the ``contains_many`` methods of the region classes.
Each call records one span: name, start, end, parent span and run id, plus
work counts that are computed from arguments and results after the span has
closed.  Spans stay in memory until ``write``; ``layer_metrics`` turns them
into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

from privhist import geometry


def _rows(x):
    return int(getattr(x, "shape", (len(x),))[0])


def _nodes_and_splits(hist):
    nodes = splits = 0
    for node in hist.root.walk():
        nodes += 1
        splits += bool(node.children)
    return {"nodes": nodes, "splits": splits}


def _privacy_counts(report):
    return {"containment": report.containment_count, "ratio": report.ratio_count,
            "degenerate": report.degenerate_count}


def _size_of(path):
    return {"bytes": os.path.getsize(path)}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (module, function) -> work counts from (args, kwargs, result); None for none.
TRACED = {
    ("cli", "main"): None,
    ("sanitizer", "build_recursive_cube"): None,
    ("sanitizer", "build_shifted_grid"): None,
    ("sanitizer", "build_voronoi"): None,
    ("sanitizer", "pick_centers_greedy"): lambda a, k, r: {"centers": _rows(r)},
    ("sanitizer", "pick_centers_uniform"): lambda a, k, r: {"centers": _rows(r)},
    ("sanitizer", "strip_to_sanitized"): lambda a, k, r: _nodes_and_splits(r),
    ("geometry", "voronoi_assign"): lambda a, k, r: {"pairs": _rows(a[0]) * _rows(a[1])},
    ("geometry", "uniform_in_region"): lambda a, k, r: {
        "returned": _rows(r), "clip": isinstance(a[0], geometry.VoronoiClip)},
    ("geometry", "intersection_volume_ratio"): None,
    ("geometry", "t_radius"): None,
    ("roundness", "certify_roundness"): None,
    ("roundness", "certify_children"): lambda a, k, r: {"cells": len(r)},
    ("roundness", "check_privacy_condition"): lambda a, k, r: _privacy_counts(r),
    ("adversary", "attack"): lambda a, k, r: {
        "pairs_scored": int(_arg(a, k, 4, "queries")) * a[1].n},
    ("metrics", "locate_leaves"): lambda a, k, r: {
        "rows": len(r), "leaves": len({id(leaf) for leaf in r})},
    ("metrics", "mst_compare"): None,
    ("metrics", "measure_diameters"): None,
    ("metrics", "cut_probability"): None,
    ("documents", "histogram_to_doc"): None,
    ("documents", "histogram_from_doc"): None,
    ("documents", "write_json_atomic"): lambda a, k, r: _size_of(a[0]),
    ("documents", "read_json"): lambda a, k, r: _size_of(a[0]),
}
REGION_CLASSES = ("Box", "Ball", "VoronoiClip")
CONTAINS = "geometry.contains_many"

# Counters summed over all spans of a function, reported as "<name>.<counter>".
SUMMED = {
    "sanitizer.strip_to_sanitized": {"nodes": "sanitizer.nodes", "splits": "sanitizer.splits"},
    "sanitizer.pick_centers_greedy": {"centers": "sanitizer.centers"},
    "sanitizer.pick_centers_uniform": {"centers": "sanitizer.centers"},
    "geometry.voronoi_assign": {"pairs": "geometry.voronoi_assign.pairs"},
    CONTAINS: {"rows": "geometry.contains_many.rows"},
    "roundness.certify_children": {"cells": "roundness.certify_children.cells"},
    "adversary.attack": {"pairs_scored": "adversary.pairs_scored"},
    "metrics.locate_leaves": {"rows": "metrics.locate_leaves.rows"},
    "documents.write_json_atomic": {"bytes": "documents.write_json_atomic.bytes"},
    "documents.read_json": {"bytes": "documents.read_json.bytes"},
}
TIMED = sorted({f"{mod}.{fn}" for mod, fn in TRACED} | {CONTAINS})
RATIOS = ("geometry.uniform_in_region.accept_ratio", "roundness.privacy.degenerate_frac",
          "roundness.privacy.containment_frac")
EXTRA = ("metrics.mst_compare.leaf_pairs",)


def layer_metric_names():
    """Every per-layer metric name the traced run reports, with its unit."""
    names = {}
    for name in TIMED:
        names[f"{name}.self_s"] = "s"
        names[f"{name}.calls"] = "count"
    for counters in SUMMED.values():
        for metric in counters.values():
            names[metric] = "B" if metric.endswith(".bytes") else "count"
    names.update({metric: "fraction" for metric in RATIOS})
    names.update({metric: "count" for metric in EXTRA})
    return names


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span = [name id, start, end, parent index (-1 for none), pass, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.pass_index = 0

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.pass_index, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function and method; ``uninstall`` undoes it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "privhist" or key.startswith("privhist."))]
        for (mod, fn_name), count in TRACED.items():
            original = getattr(sys.modules[f"privhist.{mod}"], fn_name)
            wrapper = self.wrap(f"{mod}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for cls_name in REGION_CLASSES:
            cls = getattr(geometry, cls_name)
            original = cls.__dict__["contains_many"]
            self._restore.append((cls, "contains_many", original))
            cls.contains_many = self.wrap(CONTAINS, original,
                                          lambda a, k, r: {"rows": _rows(r)})

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write a header line, then one JSON array per span:
        [name, start, end, parent span index, pass, counts]."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"run": self.run_id, "fields": [
                "name", "start", "end", "parent", "pass", "counts"]}) + "\n")
            for name_id, *rest in self.spans:
                handle.write(json.dumps([self.names[name_id], *rest]) + "\n")

    def layer_metrics(self, passes):
        """Per-layer metrics of the given traced passes, median over passes."""
        per_pass = {p: defaultdict(float) for p in passes}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        for index, (name_id, start, end, parent, pass_index, counts) in enumerate(self.spans):
            if pass_index not in per_pass:
                continue
            acc = per_pass[pass_index]
            name = self.names[name_id]
            acc[f"{name}.self_s"] += (end - start) - child_time[index]
            acc[f"{name}.calls"] += 1
            for counter, metric in SUMMED.get(name, {}).items():
                acc[metric] += counts[counter]
            if name == "roundness.check_privacy_condition":
                for counter, value in counts.items():
                    acc[f"privacy.{counter}"] += value
            if name == "geometry.uniform_in_region" and counts["clip"]:
                acc["sampling.returned"] += counts["returned"]
            if parent >= 0:
                parent_name = self.names[self.spans[parent][0]]
                if name == CONTAINS and parent_name == "geometry.uniform_in_region":
                    acc["sampling.tested"] += counts["rows"]
                if name == "metrics.locate_leaves" and parent_name == "metrics.mst_compare":
                    leaves = counts["leaves"]
                    acc["metrics.mst_compare.leaf_pairs"] += leaves * (leaves + 1) // 2
        out = {}
        for pass_index, acc in per_pass.items():
            acc["geometry.uniform_in_region.accept_ratio"] = _ratio(
                acc["sampling.returned"], acc["sampling.tested"])
            probes = acc["privacy.containment"] + acc["privacy.ratio"] + acc["privacy.degenerate"]
            acc["roundness.privacy.degenerate_frac"] = _ratio(
                acc["privacy.degenerate"], acc["privacy.ratio"] + acc["privacy.degenerate"])
            acc["roundness.privacy.containment_frac"] = _ratio(
                acc["privacy.containment"], probes)
        for name in layer_metric_names():
            out[name] = statistics.median(per_pass[p].get(name, 0.0) for p in passes)
        return out


def _ratio(num, den):
    return num / den if den else 0.0
