"""Structured text (JSON) documents, content digests, and atomic writes.

All numbers are IEEE-754 doubles rendered in shortest round-trip decimal
(Python's float repr), so documents rebuilt from equal inputs are
byte-identical.  Documents are encoded compactly (no whitespace) by the
standard library's C encoder; ``python -m json.tool`` pretty-prints one.
Every CLI output embeds a run manifest; wall-clock timing is reported on
stderr rather than in the document so reruns stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from . import __version__
from .datagen import DistributionSpec, TruncatedGaussian, UniformBall, UniformCube
from .errors import InputError
from .geometry import Ball, Box, Dataset, Region
from .sanitizer import HistogramNode, MeshSplit, SanitizedHistogram, VoronoiSplit

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# low-level I/O


def _numpy_to_json(obj):
    if isinstance(obj, (np.integer, np.floating, np.bool_, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def encode(doc: dict) -> str:
    """Compact JSON text of a document, newline-terminated; numpy scalars and
    arrays are written as the Python numbers and lists they hold.  Every
    document the package builds is an acyclic tree, so the encoder keeps no
    record of the containers it has entered."""
    return json.dumps(doc, separators=(",", ":"), default=_numpy_to_json,
                      check_circular=False) + "\n"


def write_json_atomic(path: str, doc: dict):
    """Serialize to a temp file in the target directory, then rename.  The
    file gets the mode a plain ``open`` would give it (0o666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    payload = encode(doc)
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(prefix=".privhist-", dir=directory)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> dict:
    """The JSON object in a file; a missing or unreadable file, text that is
    not JSON, and any other top-level value are input errors."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise InputError(f"{path} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} holds a JSON {type(doc).__name__}, not a document object")
    return doc


@contextmanager
def _reading(kind: str):
    """Malformed content of a ``kind`` document (a missing key, a value of
    the wrong type or shape) surfaces as an input error."""
    try:
        yield
    except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"malformed {kind} document: {detail}") from exc


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    return digest.hexdigest()


def build_manifest(command: list[str], seed: int | None, input_paths: list[str]) -> dict:
    return {
        "command": command,
        "seed": seed,
        "inputs": {path: sha256_file(path) for path in sorted(set(input_paths))},
        "tool_version": __version__,
    }


# ---------------------------------------------------------------------------
# datasets


def dataset_to_doc(dataset: Dataset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "dataset",
        "d": dataset.d,
        "n": dataset.n,
        "points": [[float(v) for v in row] for row in dataset.points],
    }


def dataset_from_doc(doc: dict) -> Dataset:
    _expect_kind(doc, "dataset")
    with _reading("dataset"):
        pts = np.array(doc["points"], dtype=float).reshape(doc["n"], doc["d"])
    return Dataset(pts)


# ---------------------------------------------------------------------------
# distribution specs


def spec_to_doc(spec: DistributionSpec) -> dict:
    comps = []
    for weight, shape in spec.components:
        if isinstance(shape, UniformCube):
            body = {"kind": "uniform_cube", "center": shape.center.tolist(),
                    "half_side": shape.half_side}
        elif isinstance(shape, UniformBall):
            body = {"kind": "uniform_ball", "center": shape.center.tolist(),
                    "radius": shape.radius}
        elif isinstance(shape, TruncatedGaussian):
            body = {"kind": "truncated_gaussian", "mean": shape.mean.tolist(),
                    "stdev": shape.stdev, "truncation_radius": shape.truncation_radius}
        else:
            raise InputError(f"unknown shape {type(shape).__name__}")
        comps.append({"weight": float(weight), "shape": body})
    return {"schema_version": SCHEMA_VERSION, "kind": "distribution_spec",
            "d": spec.d, "components": comps}


def spec_from_doc(doc: dict) -> DistributionSpec:
    _expect_kind(doc, "distribution_spec")
    comps = []
    with _reading("distribution_spec"):
        for entry in doc["components"]:
            body = entry["shape"]
            kind = body["kind"]
            if kind == "uniform_cube":
                shape = UniformCube(np.array(body["center"], float), float(body["half_side"]))
            elif kind == "uniform_ball":
                shape = UniformBall(np.array(body["center"], float), float(body["radius"]))
            elif kind == "truncated_gaussian":
                shape = TruncatedGaussian(np.array(body["mean"], float), float(body["stdev"]),
                                          float(body["truncation_radius"]))
            else:
                raise InputError(f"unknown shape kind {kind!r}")
            comps.append((float(entry["weight"]), shape))
    return DistributionSpec(components=tuple(comps))


# ---------------------------------------------------------------------------
# sanitized histograms


def _region_to_doc(region: Region) -> dict:
    if isinstance(region, Box):
        return {
            "kind": "box",
            "low": region.low.tolist(),
            "high": region.high.tolist(),
            "closed_high": region.closed_high.tolist(),
        }
    if isinstance(region, Ball):
        return {"kind": "ball", "center": region.center.tolist(), "radius": region.radius}
    raise InputError(f"unknown root region type {type(region).__name__}")


def region_from_doc(doc: dict) -> Region:
    with _reading("region"):
        kind = doc["kind"]
        if kind == "box":
            return Box(np.array(doc["low"], float), np.array(doc["high"], float),
                       closed_high=np.array(doc["closed_high"], bool))
        if kind == "ball":
            return Ball(np.array(doc["center"], float), float(doc["radius"]))
    raise InputError(f"unknown root region kind {kind!r}")


def _node_to_doc(node: HistogramNode) -> dict:
    """A node and its subtree.  A child without a split (made or not) is
    written from its parent's count array, so no child node is made."""
    doc = {"count": node.count, "level": node.level}
    split = node.split
    if split is None:
        doc["children"] = []
        return doc
    if isinstance(split, MeshSplit):
        doc["split"] = {"kind": "mesh", "cuts": [c.tolist() for c in split.cuts]}
    else:
        doc["split"] = {"kind": "voronoi", "centers": split.centers.tolist()}
    divided, level = node.divided_children(), node.child_level
    doc["children"] = [_node_to_doc(divided[k]) if k in divided
                       else {"count": count, "level": level, "children": []}
                       for k, count in enumerate(node.counts.tolist())]
    return doc


def _split_from_doc(doc: dict, d: int, box):
    """A node's split.  ``box`` is the node's (low, high) when it is a box,
    else None: a mesh split must span its node's box exactly.  Mesh cuts are
    checked on the decoded lists, where a comparison with NaN or with a
    value that is not a number fails, and converted once."""
    kind = doc["kind"]
    if kind == "mesh":
        if box is None:
            raise InputError("a mesh split needs a box-shaped node")
        cuts = doc["cuts"]
        if len(cuts) != d or not all(len(c) >= 2 and all(a < b for a, b in zip(c, c[1:]))
                                     for c in cuts):
            raise InputError("mesh cuts must be d strictly increasing arrays")
        if any(c[0] != lo or c[-1] != hi for c, lo, hi in zip(cuts, *(b.tolist() for b in box))):
            raise InputError("mesh cuts do not span their node's box")
        return MeshSplit(cuts)
    if kind == "voronoi":
        centers = np.array(doc["centers"], float)
        if centers.ndim != 2 or centers.shape[0] < 1 or centers.shape[1] != d:
            raise InputError(f"voronoi centers must form an (m, {d}) array")
        if not np.all(np.isfinite(centers)):
            raise InputError("voronoi centers must be finite")
        return VoronoiSplit(centers)
    raise InputError(f"unknown split kind {kind!r}")


def _read_subtree(doc: dict, node: HistogramNode, d: int, box):
    """Attach the split and children of ``doc`` to ``node``; ``box`` is as
    for ``_split_from_doc``, and only needed when the node has a split.  The
    children of one split share one level, and only those with a split of
    their own get a node."""
    kids = doc["children"]
    if "split" not in doc:
        if kids:
            raise InputError("a node with children needs a split")
        return
    split = _split_from_doc(doc["split"], d, box)
    if len(kids) != split.size:
        raise InputError(f"a split into {split.size} cells has {len(kids)} children")
    levels = {int(kid["level"]) for kid in kids}
    if len(levels) != 1:
        raise InputError(f"the children of one split carry levels {sorted(levels)}, not one")
    node.divide(split, [int(kid["count"]) for kid in kids], levels.pop())
    mesh = isinstance(split, MeshSplit)
    for k, kid in enumerate(kids):
        if "split" in kid:
            _read_subtree(kid, node.child(k), d, split.child_bounds(k) if mesh else None)
        elif kid["children"]:
            raise InputError("a node with children needs a split")


def histogram_to_doc(hist: SanitizedHistogram) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sanitized_histogram",
        "method": hist.method,
        "parameters": {
            "t": hist.t,
            "max_depth": hist.max_depth,
            "seed_commitment": hist.seed_commitment,
        },
        "component_index": hist.component_index,
        "extra": hist.extra,
        "root": {"region": _region_to_doc(hist.root.region), **_node_to_doc(hist.root)},
    }


def histogram_from_doc(doc: dict) -> SanitizedHistogram:
    _expect_kind(doc, "sanitized_histogram")
    with _reading("sanitized_histogram"):
        root_doc = doc["root"]
        region = region_from_doc(root_doc["region"])
        root = HistogramNode(region=region, count=int(root_doc["count"]),
                             level=int(root_doc["level"]))
        box = (region.low, region.high) if isinstance(region, Box) else None
        _read_subtree(root_doc, root, region.dim, box)
        params = doc["parameters"]
        return SanitizedHistogram(
            root=root,
            method=doc["method"],
            t=int(params["t"]),
            max_depth=int(params["max_depth"]),
            seed_commitment=params["seed_commitment"],
            component_index=doc.get("component_index"),
            extra=doc.get("extra", {}),
        )


def _expect_kind(doc: dict, kind: str):
    if doc.get("kind") != kind:
        raise InputError(f"expected a {kind} document, found {doc.get('kind')!r}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"unsupported schema_version {doc.get('schema_version')!r}")


def report_doc(kind: str, body: dict) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": kind}
    doc.update(body)
    return doc
