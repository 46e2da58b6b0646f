"""Split-level histograms: leaf location, schema-v2 documents, the leakage scan."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privhist import sanitizer
from privhist.documents import encode, histogram_from_doc, histogram_to_doc
from privhist.errors import CollisionError, InputError, InternalError, PrivhistError
from privhist.geometry import Ball, Box, Dataset, VoronoiClip, uniform_in_region
from privhist.metrics import _descend, locate_leaves, measure_diameters
from privhist.rng import substream
from privhist.sanitizer import (
    HistogramNode,
    LeafTable,
    MeshSplit,
    VoronoiSplit,
    build_recursive_cube,
    build_shifted_grid,
    build_voronoi,
    default_root_box,
    strip_to_sanitized,
)

METHODS = ["cube", "grid", "voronoi-greedy", "voronoi-uniform", "voronoi-uniform-box"]


def _build(method, seed):
    rng = np.random.default_rng(seed)
    if method in ("cube", "grid"):
        d, n = int(rng.integers(1, 4)), int(rng.integers(5, 60))
        data = Dataset(rng.uniform(-1.0, 1.0, (n, d)))
        if method == "cube":
            return build_recursive_cube(data, t=2, max_depth=4)
        return build_shifted_grid(data, t=2, max_depth=4, seed=seed)
    support = default_root_box(2) if method.endswith("box") else Ball(np.zeros(2), 1.0)
    data = Dataset(uniform_in_region(support, 40, rng))
    if method == "voronoi-greedy":
        return build_voronoi(data, support, t=5, max_depth=2, method="greedy",
                             probe_samples=2_000, seed=seed)
    return build_voronoi(data, support, t=5, max_depth=2, method="uniform", override_m=12,
                         seed=seed)


def _query_points(hist, rng):
    """Uniform points, plus points on split boundaries and closed root faces."""
    root = hist.root.region
    d = root.dim
    X = [uniform_in_region(root, 40, rng)]
    splits = [node.split for node in hist.root.walk() if node.split is not None]
    if isinstance(root, Box):
        # cut values include the root's faces; snap about half the coordinates
        meshes = [s for s in splits if isinstance(s, MeshSplit)]
        values = [np.concatenate([s.cuts[j] for s in meshes] + [root.low[j:j + 1],
                                                                 root.high[j:j + 1]])
                  for j in range(d)]
        snapped = uniform_in_region(root, 60, rng)
        for j in range(d):
            pick = rng.random(60) < 0.5
            snapped[pick, j] = rng.choice(values[j], size=int(pick.sum()))
        X.append(snapped)
    else:
        X.append(np.concatenate([np.eye(d), -np.eye(d)]))  # exactly on the sphere
    for split in splits:
        if isinstance(split, VoronoiSplit):
            c = split.centers
            pairs = rng.integers(0, c.shape[0], size=(20, 2))
            X += [c, 0.5 * (c[pairs[:, 0]] + c[pairs[:, 1]])]  # centers, bisector points
    return np.concatenate(X)


@given(st.sampled_from(METHODS), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_locate_leaves_matches_leaf_membership(method, seed):
    hist = _build(method, seed)
    X = _query_points(hist, np.random.default_rng(seed + 1))
    leaves = hist.root.leaves()
    member = np.array([leaf.region.contains_many(X) for leaf in leaves])
    assert (member.sum(axis=0) == 1).all()
    located = locate_leaves(hist, X)
    assert all(leaves[i] is leaf for i, leaf in zip(member.argmax(axis=0), located))


def _mesh_hist(method, d, seed):
    rng = np.random.default_rng(seed)
    data = Dataset(rng.uniform(-1.0, 1.0, (int(rng.integers(5, 80)), d)))
    depth = 3 if d == 8 else 4
    if method == "cube":
        return build_recursive_cube(data, t=2, max_depth=depth)
    return build_shifted_grid(data, t=2, max_depth=depth, seed=seed)


def _clipped_assign(split, X):
    """Child index of each row of X in a mesh split, by a clipped search over
    all its cuts: the one-node routing rule that ``_mesh_digits`` keeps."""
    digits = [np.clip(np.searchsorted(c, X[:, j], side="right") - 1, 0, c.size - 2)
              for j, c in enumerate(split.cuts)]
    return np.ravel_multi_index(digits, split.shape)


def _rows_of_split(split, d, rng):
    """Rows inside a mesh split's parent box: uniform ones, ones on every
    cut value (both ends included), and ones on every subset of axes of the
    high face."""
    low = np.array([c[0] for c in split.cuts])
    high = np.array([c[-1] for c in split.cuts])
    X = [rng.uniform(low, high, (20, d))]
    for j, c in enumerate(split.cuts):
        on_cut = rng.uniform(low, high, (c.size, d))
        on_cut[:, j] = c
        X.append(on_cut)
    face = rng.uniform(low, high, (2**d, d))
    subsets = (np.arange(2**d)[:, None] >> np.arange(d)) & 1 == 1
    face[subsets] = np.broadcast_to(high, face.shape)[subsets]
    X.append(face)
    return np.concatenate(X)


def _mesh_splits(method, d, seed):
    hist = _mesh_hist(method, d, seed)
    splits = [node.split for node in hist.root.walk() if node.split is not None]
    assert splits
    return splits


def _one_split_table(split):
    """The ``LeafTable`` of a tree whose root box is divided by one split
    (its leaves in walk order are the split's children)."""
    box = Box(np.array([c[0] for c in split.cuts]), np.array([c[-1] for c in split.cuts]),
              closed_high=np.ones(len(split.cuts), dtype=bool))
    root = HistogramNode(region=box)
    root.divide(MeshSplit(split.cuts), np.zeros(split.size, dtype=np.int64))
    return LeafTable(root)


@given(st.sampled_from(["cube", "grid"]), st.integers(1, 4), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_mesh_assign_matches_clipped_search(method, d, seed):
    rng = np.random.default_rng(seed + 1)
    for split in _mesh_splits(method, d, seed):
        X = _rows_of_split(split, d, rng)
        table = _one_split_table(split)
        keys = table.locate(X)
        assert np.array_equal(keys, _clipped_assign(split, X))
        for k in range(split.size):
            child_low, child_high = split.child_bounds(k)
            assert table.low[k].tobytes() == child_low.tobytes()
            assert table.high[k].tobytes() == child_high.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("method", ["cube", "grid"])
def test_descent_bounds_equal_leaf_regions(method, d):
    hist = _mesh_hist(method, d, 10 + d)
    X = _query_points(hist, np.random.default_rng(d))
    table, ids, walked = _descend(hist, X)
    reached = [table.node(i) for i in walked.tolist()]
    leaves = hist.root.leaves()
    member = np.array([leaf.region.contains_many(X) for leaf in leaves])
    assert len(reached) > 1 and table.low is not None
    assert all(reached[k] is leaves[i] for k, i in zip(ids, member.argmax(axis=0)))
    # leaves are numbered by first row
    assert (np.diff(np.unique(ids, return_index=True)[1]) > 0).all()
    low, high = table.low[walked], table.high[walked]
    assert low.shape == high.shape == (len(reached), d)
    for k, leaf in enumerate(reached):
        assert low[k].tobytes() == leaf.region.low.tobytes()
        assert high[k].tobytes() == leaf.region.high.tobytes()


def _reference_descend(hist, X):
    """The per-node descent that the leaf table replaced: (ids, leaves, low,
    high).  Each split routes the rows that reached it, in ascending order,
    by ``_clipped_assign`` (a mesh, whose child corners come from
    ``MeshSplit.child_bounds``) or ``VoronoiSplit.assign``, and leaves are
    numbered by their first row.  ``low`` and ``high`` are None once a row
    crosses a Voronoi split or the root is a ball."""
    n, region = X.shape[0], hist.root.region
    boxes = isinstance(region, Box)
    low = np.tile(region.low, (n, 1)) if boxes else None
    high = np.tile(region.high, (n, 1)) if boxes else None
    ids = np.empty(n, dtype=int)
    leaves, firsts = [], []
    stack = [(hist.root, np.arange(n))] if n else []
    while stack:
        node, rows = stack.pop()
        split = node.split
        if split is None:
            ids[rows] = len(leaves)
            leaves.append(node)
            firsts.append(rows[0])
            continue
        if isinstance(split, MeshSplit):
            keys = _clipped_assign(split, X[rows])
            for row, key in zip(rows.tolist(), keys.tolist()):
                low[row], high[row] = split.child_bounds(key)
        else:
            boxes, keys = False, split.assign(X[rows])
        stack.extend((node.child(k), rows[keys == k]) for k in np.unique(keys).tolist())
    order = np.argsort(firsts)
    rank = np.empty(len(leaves), dtype=int)
    rank[order] = np.arange(len(leaves))
    firsts = np.array(firsts, dtype=int)[order]
    if not boxes:
        return rank[ids], [leaves[i] for i in order.tolist()], None, None
    return rank[ids], [leaves[i] for i in order.tolist()], low[firsts], high[firsts]


@given(st.sampled_from(["cube", "grid"]), st.sampled_from([1, 2, 3, 4, 8]), st.integers(1, 8),
       st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_table_descent_equals_the_per_node_reference(method, d, depth, seed, round_trip):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (60 if d < 8 else 120, d))
    X[:20] = 0.3 + 1e-3 * rng.standard_normal((20, d))  # a cluster split to the last depth
    data = Dataset(X)
    if method == "cube":
        hist = build_recursive_cube(data, t=1, max_depth=depth)
    else:
        hist = build_shifted_grid(data, t=1, max_depth=depth, seed=seed)
    if round_trip:
        hist = histogram_from_doc(json.loads(encode(histogram_to_doc(hist))))
    Q = np.concatenate([X, _query_points(hist, rng)])  # cut values and closed high faces
    table, ids, walked = _descend(hist, Q)
    expected_ids, expected, expected_low, expected_high = _reference_descend(hist, Q)
    assert ids.tolist() == expected_ids.tolist()
    assert len(walked) == len(expected)
    assert all(table.node(i) is b for i, b in zip(walked.tolist(), expected))
    assert table.low[walked].tobytes() == expected_low.tobytes()
    assert table.high[walked].tobytes() == expected_high.tobytes()


@given(st.sampled_from(["greedy", "uniform"]), st.sampled_from(["ball", "box"]),
       st.integers(1, 4), st.integers(1, 3), st.integers(0, 10_000), st.booleans())
@settings(max_examples=60, deadline=None)
def test_voronoi_leaf_table_equals_the_per_node_reference(centers, shape, d, depth, seed,
                                                          round_trip):
    rng = np.random.default_rng(seed)
    support = default_root_box(d) if shape == "box" else Ball(np.zeros(d), 1.0)
    X = uniform_in_region(support, 50, rng)
    X[:15] = 0.3 + 1e-2 * rng.standard_normal((15, d))  # a cluster split to the last depth
    built = build_voronoi(Dataset(X), support, t=3, max_depth=depth, method=centers,
                          override_m=8, probe_samples=400, seed=seed)
    # the table of a tree read back from its document, against the nodes built
    hist = histogram_from_doc(json.loads(encode(histogram_to_doc(built)))) if round_trip \
        else built
    table = LeafTable(hist.root)
    leaves = built.root.leaves()
    assert table.count.tolist() == [leaf.count for leaf in leaves]
    assert (table.low is None) == (built.root.split is not None or shape == "ball")
    for i, leaf in enumerate(leaves):
        assert _region_bits(table.node(i).region) == _region_bits(leaf.region)
    Q = np.concatenate([X, _query_points(built, rng)])  # centers and bisector points
    expected_ids, expected, _, _ = _reference_descend(built, Q)
    walk_index = {id(leaf): i for i, leaf in enumerate(leaves)}
    located = table.locate(Q)
    assert located.tolist() == [walk_index[id(expected[k])] for k in expected_ids.tolist()]
    _, ids, walked = _descend(hist, Q)
    assert ids.tolist() == expected_ids.tolist()
    assert walked.tolist() == [walk_index[id(leaf)] for leaf in expected]


def _mesh_build_with_corners(method, data, t, depth, seed, monkeypatch, root=None):
    """A cube or grid build and the row corners its last ``_grow_mesh``
    returned: a cube grows once, a grid once per offset draw.  The published
    tree is made from that grow's arrays: a divided node per frontier box,
    whose counts and cuts are views of its depth's arrays."""
    grown = []
    grow = sanitizer._grow_mesh

    def recording(*args):
        grown.append(grow(*args))
        return grown[-1]

    monkeypatch.setattr(sanitizer, "_grow_mesh", recording)
    if method == "cube":
        hist = build_recursive_cube(data, t=t, max_depth=depth, root=root)
    else:
        hist = build_shifted_grid(data, t=t, max_depth=depth, seed=seed, root=root)
    assert len(grown) == 1 or method == "grid"
    depths, low, high = grown[-1]
    layers = sanitizer._layers(hist.root)
    assert len(layers) == len(depths)
    for (nodes, _), grown_depth in zip(layers, depths):
        assert len(nodes) == grown_depth.ncuts.shape[0]
        for node in nodes:
            assert np.shares_memory(node.counts, grown_depth.counts)
            assert all(np.shares_memory(c, table)
                       for c, table in zip(node.split.cuts, grown_depth.tables))
    return hist, low, high


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("method", ["cube", "grid"])
@pytest.mark.parametrize("n", [3, 120])
def test_builder_row_corners_equal_descent_bounds(method, d, n, monkeypatch):
    t = 2
    rng = np.random.default_rng(100 * d + n)
    X = rng.uniform(-1.0, 1.0, (n, d))
    if d > 1:  # rows on the closed high face; at d = 1 that is the root corner
        X[: n // 4, rng.integers(0, d)] = 1.0
    X[n // 2:] = X[0]  # duplicates of one row
    data = Dataset(X)
    hist, low, high = _mesh_build_with_corners(method, data, t, 3 if d == 8 else 5, d,
                                               monkeypatch)
    assert (hist.root.split is None) == (n < 2 * t)
    table, ids, walked = _descend(hist, data.points)
    assert low.shape == high.shape == (n, d)
    assert low.tobytes() == table.low[walked][ids].tobytes()
    assert high.tobytes() == table.high[walked][ids].tobytes()


def test_descent_of_no_rows():
    hist = _build("grid", 3)
    table, ids, reached = _descend(hist, np.empty((0, hist.d)))
    assert ids.size == 0 and reached.size == 0 and table.low[reached].shape == (0, hist.d)


def _region_bits(region):
    if isinstance(region, Box):
        return ("box", region.low.tobytes(), region.high.tobytes(),
                region.closed_high.tobytes())
    if isinstance(region, Ball):
        return ("ball", region.center.tobytes(), repr(region.radius))
    assert isinstance(region, VoronoiClip)
    return ("voronoi", region.centers.tobytes(), region.own_index,
            _region_bits(region.parent))


@pytest.mark.parametrize("method", METHODS)
def test_round_trip_is_exact(method):
    hist = _build(method, 3)
    doc = histogram_to_doc(hist)
    again = histogram_from_doc(json.loads(encode(doc)))
    assert histogram_to_doc(again) == doc
    nodes, back = list(hist.root.walk()), list(again.root.walk())
    assert len(nodes) == len(back) > 1
    for a, b in zip(nodes, back):
        assert (a.count, a.level) == (b.count, b.level)
        assert _region_bits(a.region) == _region_bits(b.region)


def test_only_the_root_carries_a_region():
    doc = histogram_to_doc(_build("grid", 4))
    nodes = [doc["root"]]
    while nodes:
        node = nodes.pop()
        assert ("region" in node) == (node is doc["root"])
        assert ("split" in node) == bool(node["children"])
        nodes.extend(node["children"])


def test_256_center_split_document_is_small():
    rng = np.random.default_rng(5)
    data = Dataset(uniform_in_region(Ball(np.zeros(2), 1.0), 400, rng))
    hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=2, max_depth=1,
                         method="uniform", override_m=256, seed=1)
    assert hist.root.split.size == 256
    assert len(encode(histogram_to_doc(hist))) < 50_000


def test_cube_children_follow_c_order():
    data = Dataset(np.random.default_rng(6).uniform(-1.0, 1.0, (30, 2)))
    root = build_recursive_cube(data, t=1, max_depth=1).root
    assert [ch.region.low.tolist() for ch in root.children] == [
        [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]
    assert [ch.region.closed_high.tolist() for ch in root.children] == [
        [False, False], [False, True], [True, False], [True, True]]


def _mutate(doc, defect):
    node = doc["root"]  # an internal node whose first child is a leaf
    while "split" in node["children"][0]:
        node = node["children"][0]
    if defect == "schema_v1":
        doc["schema_version"] = 1
    elif defect == "missing_child":
        doc["root"]["children"].pop()
    elif defect == "cuts_off_box":
        doc["root"]["split"]["cuts"][0][0] = -0.5
    elif defect == "unknown_split":
        node["split"]["kind"] = "hexagon"
    elif defect == "sibling_levels":
        node["children"][0]["level"] += 1
    elif defect == "count_overflow":
        node["children"][0]["count"] = 2**64
    elif defect == "negative_count":  # the children's counts still sum to their node's
        other = next(kid for kid in node["children"][1:] if "split" not in kid)
        other["count"] += node["children"][0]["count"] + 3
        node["children"][0]["count"] = -3
    elif defect == "counts_off_sum":
        node["children"][0]["count"] = 10**6
    # values that int() would truncate or convert, leaving every sum intact
    elif defect == "fractional_root_count":
        doc["root"]["count"] += 0.5
    elif defect == "fractional_child_count":
        node["children"][0]["count"] += 0.2
    elif defect == "bool_count":
        leaf = next(kid for kid in node["children"] if kid["count"] == 1 and "split" not in kid)
        leaf["count"] = True
    elif defect == "float_level":
        node["children"][0]["level"] = float(node["children"][0]["level"])
    elif defect == "string_t":
        doc["parameters"]["t"] = str(doc["parameters"]["t"])
    elif defect == "fractional_max_depth":
        doc["parameters"]["max_depth"] += 0.9
    else:
        del node["split"]


@pytest.mark.parametrize("defect", ["schema_v1", "missing_child", "cuts_off_box",
                                    "unknown_split", "sibling_levels", "count_overflow",
                                    "negative_count", "counts_off_sum",
                                    "fractional_root_count", "fractional_child_count",
                                    "bool_count", "float_level", "string_t",
                                    "fractional_max_depth", "children_without_split"])
def test_malformed_histogram_documents_rejected(defect):
    data = Dataset(np.random.default_rng(7).uniform(-1.0, 1.0, (80, 2)))
    doc = histogram_to_doc(build_recursive_cube(data, t=2, max_depth=3))
    _mutate(doc, defect)
    with pytest.raises(InputError):
        histogram_from_doc(doc)


def test_a_split_of_another_kind_cannot_divide_a_child():
    mesh = HistogramNode(region=default_root_box(2), count=2)
    mesh.divide(MeshSplit([[-1.0, 0.0, 1.0], [-1.0, 1.0]]), [1, 1])
    with pytest.raises(InputError, match="VoronoiSplit cannot divide a cell of a MeshSplit"):
        mesh.child(0).divide(VoronoiSplit([[-0.5, 0.2], [-0.5, -0.2]]), [1, 0])
    voronoi = HistogramNode(region=default_root_box(2), count=2)
    voronoi.divide(VoronoiSplit([[-0.5, 0.0], [0.5, 0.0]]), [1, 1])
    with pytest.raises(InputError, match="MeshSplit cannot divide a cell of a VoronoiSplit"):
        voronoi.child(1).divide(MeshSplit([[0.0, 0.5, 1.0], [-1.0, 1.0]]), [1, 0])
    voronoi.child(1).divide(VoronoiSplit([[0.5, 0.5], [0.5, -0.5]]), [1, 0])  # the same kind


class TestLeakageScan:
    def _strip(self, root, point):
        return strip_to_sanitized(root, Dataset([point]), method="test", t=1, max_depth=2,
                                  seed=None)

    @pytest.mark.parametrize("center,leaks", [((0.25, 0.25), True), ((0.25, 0.3), False)])
    def test_voronoi_center(self, center, leaks):
        root = HistogramNode(region=Ball(np.zeros(2), 1.0), count=1)
        root.divide(VoronoiSplit([[0.5, -0.5], center]), [1, 0])
        if leaks:
            with pytest.raises(InternalError, match="coordinate"):
                self._strip(root, (0.25, 0.25))
        else:
            self._strip(root, (0.25, 0.25))

    @pytest.mark.parametrize("point,leaks", [
        ((-1.0, 0.5), True),    # low corner of a root child only
        ((0.0, 1.0), True),     # high corner of a root child only
        ((0.5, 0.75), True),    # corner in the nested split only
        ((0.0, 0.3), False),    # on a cut line, not a corner
        ((0.3, 0.7), False),
    ])
    def test_mesh_corner(self, point, leaks):
        root = HistogramNode(region=default_root_box(2), count=1)
        root.divide(MeshSplit([[-1.0, 0.0, 1.0], [-1.0, 0.5, 1.0]]), [0, 0, 0, 1])
        root.children[3].divide(MeshSplit([[0.0, 0.5, 1.0], [0.5, 0.75, 1.0]]), [1, 0, 0, 0])
        if leaks:
            with pytest.raises(InternalError, match="coordinate"):
                self._strip(root, point)
        else:
            self._strip(root, point)

    @staticmethod
    def _depths(method, d, seed):
        layers = sanitizer._layers(_mesh_hist(method, d, seed).root)
        return [[node.split for node in nodes] for nodes, _ in layers]

    @staticmethod
    def _scan(X, depths, trials):
        # one (tables, ncuts, trial) per depth; trials[k] tags depth k's splits
        return sanitizer._mesh_corners(X, [(*sanitizer._mesh_tables(depth), np.asarray(tags))
                                           for depth, tags in zip(depths, trials)],
                                       max(max(tags) for tags in trials) + 1)

    @pytest.mark.parametrize("share", [0.01, 0.8, 1.0])
    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_mesh_corners_equal_the_per_split_reference(self, method, share):
        # a share of rows whose every coordinate is a cut value (the scan's
        # suspects), against each split's low and high corners
        found = 0
        for seed in range(6):
            d = 2 + seed % 2
            depths = self._depths(method, d, seed)
            splits = [split for depth in depths for split in depth]
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1.0, 1.0, (400, d))
            suspects = round(share * len(X))
            for j in range(d):
                values = np.concatenate([split.cuts[j] for split in splits])
                X[:suspects, j] = rng.choice(values, suspects)
            expected = np.zeros(len(X), dtype=bool)
            for split in splits:
                for ends in (slice(None, -1), slice(1, None)):
                    expected |= np.logical_and.reduce([np.isin(X[:, j], c[ends])
                                                       for j, c in enumerate(split.cuts)])
            got = self._scan(X, depths, [[0] * len(depth) for depth in depths])
            assert got.shape == (1, len(X))
            assert got[0].tolist() == expected.tolist()
            assert expected.sum() < len(X)
            found += expected.sum()
        assert found > 0

    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_a_two_trial_mesh_corner_scan_equals_two_one_trial_scans(self, method):
        for seed in range(0, 6, 2):
            a, b = self._depths(method, 2, seed), self._depths(method, 2, seed + 2)
            rng = np.random.default_rng(seed)
            X = rng.uniform(-1.0, 1.0, (300, 2))
            for j in range(2):
                values = np.concatenate([split.cuts[j] for depth in a + b for split in depth])
                X[:, j] = rng.choice(values, len(X))
            pairs = list(itertools.zip_longest(a, b, fillvalue=[]))  # one per depth
            got = self._scan(X, [x + y for x, y in pairs],
                             [[0] * len(x) + [1] * len(y) for x, y in pairs])
            one = [self._scan(X, depths, [[0] * len(depth) for depth in depths])[0]
                   for depths in (a, b)]
            assert got.shape == (2, len(X))
            assert got[0].tolist() == one[0].tolist()
            assert got[1].tolist() == one[1].tolist()
            assert one[0].any() and one[1].any() and (one[0] != one[1]).any()

    def test_data_point_on_a_dyadic_corner_aborts_the_cube_build(self):
        data = Dataset([[0.0, 0.0], [0.5, 0.3], [-0.4, 0.7], [0.2, -0.9]])
        with pytest.raises(InputError, match="row 0 .*coordinate.*no atoms"):
            build_recursive_cube(data, t=1, max_depth=2)


class TestCountCheck:
    """The leaf-count check of ``strip_to_sanitized`` on hand-built trees: a
    root split of [-1, 1]^2 at 0, and a nested split of its quadrant 3."""

    DATA = Dataset([[0.3, 0.2], [0.6, 0.7], [-0.4, 0.1]])

    def _strip(self, root_counts, nested_counts):
        root = HistogramNode(region=default_root_box(2), count=3)
        root.divide(MeshSplit([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]), root_counts)
        root.child(3).divide(MeshSplit([[0.0, 0.5, 1.0], [0.0, 0.5, 1.0]]), nested_counts)
        return strip_to_sanitized(root, self.DATA, method="test", t=1, max_depth=2, seed=None)

    def test_correct_counts_pass(self):
        assert self._strip([0, 1, 0, 2], [1, 0, 0, 1]).leaf_count_sum() == 3

    @pytest.mark.parametrize("root_counts,nested_counts", [
        ([0, 2, 0, 2], [1, 0, 0, 1]),  # the root split's counts sum to n + 1
        ([0, 1, 0, 2], [1, 1, 0, 1]),  # the nested split's counts sum past its parent's count
    ], ids=["root", "nested"])
    def test_wrong_counts_abort(self, root_counts, nested_counts):
        with pytest.raises(InternalError, match="leaf counts"):
            self._strip(root_counts, nested_counts)


@pytest.fixture
def made(monkeypatch):
    """A one-item list counting ``HistogramNode`` constructions."""
    count = [0]
    init = HistogramNode.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(HistogramNode, "__init__", counted)
    return count


def _split_count(tree):
    return sum(node.split is not None for node in tree.walk())


class TestNodesOnDemand:
    """Builds make a node only where a split continues: a child without a
    split of its own lives in its parent's count array."""

    @staticmethod
    def _data(d):
        return Dataset(np.random.default_rng(40 + d).uniform(-1.0, 1.0, (600, d)))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_mesh_build_makes_a_node_per_split(self, method, d, made):
        if method == "cube":
            hist = build_recursive_cube(self._data(d), t=2, max_depth=6)
        else:
            hist = build_shifted_grid(self._data(d), t=2, max_depth=6, seed=d)
        built = made[0]
        assert hist.leaf_count_sum() == 600
        assert made[0] == built
        splits = _split_count(hist.root)
        assert splits > 10
        assert built <= 1 + splits < made[0]

    @pytest.mark.parametrize("d", [2, 4])
    def test_grid_diameters_make_no_node(self, d, made, monkeypatch):
        grown, splits = [], [0]
        grow, init = sanitizer._grow_mesh, MeshSplit.__init__

        def recording(*args):
            grown.append(grow(*args))
            return grown[-1]

        def counted(self, *args, **kwargs):
            splits[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(sanitizer, "_grow_mesh", recording)
        monkeypatch.setattr(MeshSplit, "__init__", counted)
        measure_diameters(self._data(d), t=2, trials=3, seed=d, method="grid", max_depth=6)
        assert len(grown) == 1  # the three trials grow as one frontier
        depths, _, _ = grown[0]
        assert depths[1].trial.tolist() == sorted(depths[1].trial.tolist())
        assert set(depths[1].trial.tolist()) == {0, 1, 2}  # every trial split below the root
        assert made[0] == 0
        assert splits[0] == 0

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_document_does_not_depend_on_made_nodes(self, method, d):
        def build():
            if method == "cube":
                return build_recursive_cube(self._data(d), t=2, max_depth=6)
            return build_shifted_grid(self._data(d), t=2, max_depth=6, seed=d)

        walked = build()
        assert len(list(walked.root.walk())) > 1 + _split_count(walked.root)
        assert encode(histogram_to_doc(build())) == encode(histogram_to_doc(walked))

    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_next_cuts_runs_once_per_frontier(self, method, d, monkeypatch):
        calls = []
        grow = sanitizer._grow_mesh

        def counting(dataset, root, t, budget, next_cuts):
            def counted(low, high, levels, trial):
                calls.append(len(levels))
                return next_cuts(low, high, levels, trial)

            return grow(dataset, root, t, budget, counted)

        monkeypatch.setattr(sanitizer, "_grow_mesh", counting)
        if method == "cube":
            hist = build_recursive_cube(self._data(d), t=2, max_depth=6)
        else:
            hist = build_shifted_grid(self._data(d), t=2, max_depth=6, seed=d)
        assert len(calls) <= 6 + 1 < _split_count(hist.root)
        assert sum(calls) > len(calls)  # the calls take many boxes at once


# ---------------------------------------------------------------------------
# The per-node mesh builders that ``_grow_mesh`` replaced, kept as the
# reference: each split routes its own rows with ``searchsorted`` and asks
# for each big child's cuts on its own.


def _reference_grow(dataset, root, t, next_cuts):
    """(tree, low, high) of a mesh build, one split at a time, while
    ``next_cuts(low, high, level)`` returns (per-axis cuts, child level)."""
    n = dataset.n
    tree = HistogramNode(region=root, count=n, level=0)
    low, high = np.tile(root.low, (n, 1)), np.tile(root.high, (n, 1))
    step = next_cuts(root.low, root.high, 0) if n >= 2 * t else None
    stack = [(tree, step, np.arange(n))] if step is not None else []
    while stack:
        node, (cuts, level), idx = stack.pop()
        split = MeshSplit(cuts)
        digits = [np.searchsorted(c[1:-1], dataset.points[idx, j], side="right")
                  for j, c in enumerate(split.cuts)]
        for j, (c, digit) in enumerate(zip(split.cuts, digits)):
            low[idx, j] = c[digit]
            high[idx, j] = c[digit + 1]
        keys = np.ravel_multi_index(digits, split.shape)
        counts = np.bincount(keys, minlength=split.size)
        node.divide(split, counts, level)
        big = np.flatnonzero(counts >= 2 * t)
        if not big.size:
            continue
        order = np.argsort(keys, kind="stable")
        ends = np.cumsum(counts)
        for k, a, b in zip(big.tolist(), (ends - counts)[big].tolist(), ends[big].tolist()):
            rows = idx[order[a:b]]
            step = next_cuts(low[rows[0]], high[rows[0]], level)
            if step is not None:
                stack.append((node.child(k), step, rows))
    return tree, low, high


def _reference_cube(dataset, t, max_depth, root):
    finest = 4.0 * float(np.spacing(float(np.abs([root.low, root.high]).max())))

    def halves(low, high, level):
        if level >= max_depth or (high - low).min() < finest:
            return None
        mid = 0.5 * (low + high)
        return [np.array([lo, m, hi]) for lo, m, hi in zip(low, mid, high)], level + 1

    tree, low, high = _reference_grow(dataset, root, t, halves)
    return (strip_to_sanitized(tree, dataset, method="cube", t=t, max_depth=max_depth,
                               seed=None), low, high)


def _reference_box_cuts(box, w, kept):
    """Per-axis cuts of a cell by one level's kept lines, or None when no
    kept line falls inside it; ``box`` holds (base, lo, hi) per axis."""
    cuts, split = [], False
    for (base, lo, hi), ks in zip(box, kept):
        axis = [lo]
        if ks is not None:
            ka = math.floor((lo - base) / w)
            kb = math.ceil((hi - base) / w)
            for k in range(max(ka, ks[0]), min(kb, ks[1]) + 1):
                v = base + k * w
                if lo < v < hi:
                    axis.append(v)
                    split = True
        axis.append(hi)
        cuts.append(axis)
    return cuts if split else None


def _reference_levels(root, center, max_depth):
    """(bases, levels) of a shifted grid with this offset center, as
    ``_shifted_grid`` lists them."""
    side = float(root.sides[0])
    finest = 4.0 * float(np.spacing(float(np.abs([root.low, root.high]).max()) + 2.0 * side))
    bases = (center - side).tolist()
    levels = []
    for level in range(1, max_depth + 1):
        w = side * 2.0 ** (1 - level)
        if w < finest:
            break
        levels.append((level, w, [sanitizer._kept_lines(b, w, lo, hi) for b, lo, hi in
                                  zip(bases, root.low.tolist(), root.high.tolist())]))
    return bases, levels


def _reference_next_mesh(bases, levels):
    def next_mesh(low, high, level):
        box = list(zip(bases, low.tolist(), high.tolist()))
        for lvl, w, kept in levels[level:]:
            cuts = _reference_box_cuts(box, w, kept)
            if cuts is not None:
                return cuts, lvl
        return None

    return next_mesh


def _reference_grid(dataset, t, max_depth, seed, center, root):
    bases, levels = _reference_levels(root, center, max_depth)
    tree, low, high = _reference_grow(dataset, root, t, _reference_next_mesh(bases, levels))
    return (strip_to_sanitized(tree, dataset, method="grid", t=t, max_depth=max_depth,
                               seed=seed, extra={"offset_center": center.tolist()}), low, high)


def _first_center(root, seed):
    return uniform_in_region(root, 1, substream(seed, "grid-offset"))[0]


def _outcome(build):
    """A build's document bytes and row corners, or the class of its error."""
    try:
        hist, low, high = build()
    except PrivhistError as exc:
        return type(exc)
    return encode(histogram_to_doc(hist)), low.tobytes(), high.tobytes()


def _assert_equals_reference(method, dataset, t, max_depth, seed, root):
    if method == "cube":
        with pytest.MonkeyPatch.context() as patch:
            got = _outcome(lambda: _mesh_build_with_corners("cube", dataset, t, max_depth, None,
                                                            patch, root))
        assert got == _outcome(lambda: _reference_cube(dataset, t, max_depth, root))
        return got
    with pytest.MonkeyPatch.context() as patch:
        got = _outcome(lambda: _mesh_build_with_corners("grid", dataset, t, max_depth, seed,
                                                        patch, root))
    center = _first_center(root, seed)
    expected = _outcome(lambda: _reference_grid(dataset, t, max_depth, seed, center, root))
    if expected is CollisionError:  # a row on a corner of the first mesh: drawn again
        assert isinstance(got, tuple)
        drawn = np.array(json.loads(got[0])["extra"]["offset_center"])
        assert drawn.tobytes() != center.tobytes()
        expected = _outcome(lambda: _reference_grid(dataset, t, max_depth, seed, drawn, root))
    assert got == expected
    return got


@given(st.sampled_from(["cube", "grid"]), st.sampled_from([1, 2, 3, 4, 8]), st.integers(1, 3),
       st.sampled_from([1, 2, 3, 4, 6, 8, 20, 60]), st.integers(0, 10_000), st.booleans(),
       st.data())
@settings(max_examples=120, deadline=None)
def test_frontier_builds_equal_the_per_node_reference(method, d, t, max_depth, seed, custom,
                                                      data):
    rng = np.random.default_rng(seed)
    if custom:
        lo, side = float(rng.uniform(-4.0, 4.0)), float(rng.choice([0.5, 1.0, 3.0, 5.0]))
        root = Box(np.full(d, lo), np.full(d, lo + side), closed_high=np.ones(d, dtype=bool))
    else:
        root = default_root_box(d)
    n = data.draw(st.integers(0, 24 if d == 8 else 40))
    X = uniform_in_region(root, n, rng)
    # rows on lattice lines: the cube's dyadic lines, or the first offset's mesh lines
    side = float(root.sides[0])
    base = root.low if method == "cube" else _first_center(root, seed) - side
    for i in range(n):
        kind = data.draw(st.sampled_from(["uniform", "duplicate", "high face", "line",
                                          "lattice corner"]))
        if kind == "duplicate":
            X[i] = X[data.draw(st.integers(0, i))]
            continue
        axes = [int(rng.integers(0, d))] if kind != "lattice corner" else range(d)
        for j in axes:
            if kind == "high face":
                X[i, j] = root.high[j]
            elif kind != "uniform":
                w = side * 2.0 ** -int(rng.integers(0, 7 if method == "cube" else 5))
                v = base[j] + (math.ceil((root.low[j] - base[j]) / w) + int(rng.integers(0, 4))) * w
                X[i, j] = v if root.low[j] <= v <= root.high[j] else X[i, j]
    _assert_equals_reference(method, Dataset(X), t, max_depth, seed, root)


def test_the_grid_root_is_first_cut_two_levels_below_level_one():
    # levels 1 and 2 put fewer than three lines inside the root on every
    # axis, so its split skips them; every other box is cut one level below
    X = np.random.default_rng(8).uniform(-1.0, 1.0, (60, 2))
    _assert_equals_reference("grid", Dataset(X), 2, 5, 8, default_root_box(2))
    hist = build_shifted_grid(Dataset(X), t=2, max_depth=5, seed=8)
    assert hist.root.level == 0 and hist.root.child_level == 3
    assert hist.root.divided_children()


@pytest.mark.parametrize("low,side", [(-1.0, 2.0), (3.0, 5.0)])
def test_deep_grid_builds_stop_at_the_finest_level(low, side):
    # two equal rows split while mesh levels remain; levels end before 60,
    # where lines would no longer be distinct doubles
    root = Box(np.full(2, low), np.full(2, low + side), closed_high=np.ones(2, dtype=bool))
    X = uniform_in_region(root, 12, np.random.default_rng(4))
    X[6] = X[0]
    doc, _, _ = _assert_equals_reference("grid", Dataset(X), 1, 60, 4, root)
    levels, stack = [], [json.loads(doc)["root"]]
    while stack:
        node = stack.pop()
        levels.append(node["level"])
        stack.extend(node["children"])
    assert 45 < max(levels) < 60


def test_grid_cuts_of_a_mixed_level_frontier_equal_the_per_box_reference():
    X = np.random.default_rng(9).uniform(-1.0, 1.0, (300, 3))
    root = default_root_box(3)
    hist = build_shifted_grid(Dataset(X), t=2, max_depth=5, seed=9)
    bases, levels = _reference_levels(root, np.array(hist.extra["offset_center"]), 5)
    nodes = list(hist.root.walk())[::-1]  # deepest first: rows of differing widths
    assert len({node.level for node in nodes}) > 2
    low = np.array([node.region.low for node in nodes])
    high = np.array([node.region.high for node in nodes])
    lv = np.array([node.level for node in nodes])
    one_trial = [(level, w, np.array([[ks or (1, 0) for ks in kept]])) for level, w, kept in levels]
    tables, ncuts, child, splits = sanitizer._grid_cuts(np.array([bases]), one_trial, low, high, lv,
                                                        np.zeros(lv.size, dtype=np.intp))
    reference = _reference_next_mesh(bases, levels)
    assert 0 < splits.sum() < splits.size  # level-5 boxes have no finer level
    for f, node in enumerate(nodes):
        step = reference(node.region.low, node.region.high, node.level)
        assert splits[f] == (step is not None)
        if step is not None:
            cuts, level = step
            assert child[f] == level
            assert [table[f, :m].tolist() for table, m in zip(tables, ncuts[f])] == cuts
            assert all(np.isinf(table[f, m:]).all() for table, m in zip(tables, ncuts[f]))
