"""Output checks, digests and headline results of benchmark steps.

The checks test what a step's document must satisfy whatever the
algorithm: counts conserved, every point in a populated leaf, report fields
consistent with each other and finite.  They do not judge whether a
roundness certificate is sound; the certificates of this library are known
to understate R, so a certificate passes here when it is merely well formed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from privhist.documents import histogram_from_doc, read_json
from privhist.metrics import locate_leaves


class CheckError(Exception):
    """A step's output document violates an invariant."""


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _leaves(node):
    if not node["children"]:
        return [node]
    return [leaf for child in node["children"] for leaf in _leaves(child)]


def _count_nodes(node):
    return 1 + sum(_count_nodes(child) for child in node["children"])


def check_histogram(doc, points):
    _require(doc["kind"] == "sanitized_histogram", "not a sanitized histogram")
    n = points.shape[0]
    _require(doc["root"]["count"] == n, "root count differs from n")
    _require(sum(leaf["count"] for leaf in _leaves(doc["root"])) == n,
             "leaf counts do not sum to n")
    located = locate_leaves(histogram_from_doc(doc), points)
    _require(all(leaf is not None and leaf.count >= 1 for leaf in located),
             "an input point lies outside every populated leaf")
    return {"nodes": _count_nodes(doc["root"])}


def check_attack(doc, argv, n):
    queries = int(_arg(argv, "--queries"))
    _require(doc["queries"] == queries, "query count differs from the request")
    _require(0 <= doc["successes"] <= queries, "successes exceed queries")
    _require(doc["rate"] == doc["successes"] / queries, "rate != successes/queries")
    hits = doc["per_point_hits"]
    _require(len(hits) == n and sum(hits) == doc["successes"], "per-point hits inconsistent")
    return {"rate": doc["rate"]}


def check_certify(doc, hist_doc):
    cells = doc["cells"]
    _require(len(cells) == _count_nodes(hist_doc["root"]), "not one certificate per node")
    _require(all(_finite(c["radius"], c["k"]) and c["radius"] > 0 and c["k"] >= 1
                 for c in cells), "certificate with radius <= 0 or k < 1")
    return {"cells": len(cells)}


def check_privacy(doc, argv, hist_doc):
    cells = min(int(_arg(argv, "--max-cells")), len(_leaves(hist_doc["root"])))
    _require(doc["cells_checked"] == cells, "cells_checked differs from the request")
    probes = doc["containment_count"] + doc["ratio_count"] + doc["degenerate_count"]
    _require(probes == cells * doc["probes_per_cell"],
             "containment + ratio + degenerate != cells x probes")
    eps = doc["epsilon_observed"]
    _require(_finite(eps) and 0.0 <= eps <= 1.0, "epsilon_observed outside [0, 1]")
    return {"epsilon_observed": eps}


def check_diameters(doc, n):
    rows = doc["per_point"]
    _require(len(rows) == n, "not one row per point")
    _require(all(_finite(r["t_radius"], r["mean_diameter"], r["bound"]) and r["t_radius"] > 0
                 for r in rows), "non-finite diameter row")
    return {"mean_diameter": float(np.mean([r["mean_diameter"] for r in rows]))}


def check_cut(doc, argv):
    rows = doc["rows"]
    _require(len(rows) == len(_arg(argv, "--r-list").split(",")), "not one row per radius")
    probs = [r["probability"] for r in rows]
    _require(all(_finite(p) and 0.0 <= p <= 1.0 for p in probs), "probability outside [0, 1]")
    _require(probs == sorted(probs), "cut probability not monotone in r")
    return {"probability_at_max_r": probs[-1]}


def check_mst(doc):
    fields = [doc[k] for k in ("actual_cost", "hist_cost", "gap", "gap_bound")]
    _require(_finite(*fields), "non-finite MST field")
    _require(doc["actual_cost"] > 0, "MST cost is not positive")
    return {"gap": doc["gap"]}


def check_step(step, argv, paths, points):
    """Check one step's output document; return its headline results.

    ``points`` maps input names to their arrays.  Raises CheckError.
    """
    doc = read_json(paths[step.out])
    kind = argv[0]
    if kind == "sanitize":
        return check_histogram(doc, points[step.data])
    if kind == "attack":
        return check_attack(doc, argv, points[step.data].shape[0])
    if kind == "certify":
        return check_certify(doc, read_json(paths[step.reads[0]]))
    if kind == "check-privacy":
        return check_privacy(doc, argv, read_json(paths[step.reads[0]]))
    if kind == "measure-diameters":
        return check_diameters(doc, points[step.data].shape[0])
    if kind == "cut-prob":
        return check_cut(doc, argv)
    if kind == "mst-compare":
        return check_mst(doc)
    raise CheckError(f"no check for subcommand {kind!r}")
