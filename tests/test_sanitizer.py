import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privhist.sanitizer
from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.cli import main
from privhist.documents import (dataset_to_doc, histogram_from_doc, histogram_to_doc,
                                write_json_atomic)
from privhist.errors import CollisionError, InputError, InternalError, ResourceError
from privhist.geometry import Ball, Box, Dataset, VoronoiClip, uniform_in_region
from privhist.metrics import measure_diameters
from privhist.rng import child_seed, substream
from privhist.sanitizer import (
    HistogramNode,
    _grid_cuts,
    _kept_lines,
    _on_published,
    _shifted_grid,
    build_recursive_cube,
    build_shifted_grid,
    build_voronoi,
    certify_nodes,
    component_seed,
    method2_center_count,
    method_name,
    pick_centers_greedy,
    pick_centers_uniform,
    sanitize,
    sanitize_mixture,
    strip_to_sanitized,
)
from privhist.roundness import (certify_children, certify_roundness, check_privacy_condition,
                                cover_check, well_spread_check)


def leaves_of(hist):
    return hist.root.leaves()


def check_count_conservation(hist):
    for node in hist.root.walk():
        if node.children:
            assert node.count == sum(ch.count for ch in node.children)


def check_partition(hist, probes=10_000, seed=0):
    """Every probe of a subdivided node lands in exactly one child."""
    rng = substream(seed, "partition-probes")
    for node in hist.root.walk():
        if not node.children:
            continue
        pts = uniform_in_region(node.region, min(probes, 2000), rng)
        hits = np.zeros(pts.shape[0], dtype=int)
        for ch in node.children:
            hits += ch.region.contains_many(pts).astype(int)
        assert (hits == 1).all()


class TestRecursiveCube:
    def test_d1_hand_simulation(self):
        data = Dataset([[-0.9], [-0.5], [0.3], [0.7]])
        hist = build_recursive_cube(data, t=2, max_depth=8)
        root = hist.root
        assert root.count == 4
        assert len(root.children) == 2
        (lo, hi) = sorted(root.children, key=lambda n: n.region.low[0])
        assert (lo.region.low[0], lo.region.high[0], lo.count) == (-1.0, 0.0, 2)
        assert (hi.region.low[0], hi.region.high[0], hi.count) == (0.0, 1.0, 2)
        assert lo.is_leaf() and hi.is_leaf()

    def test_below_threshold_single_node(self):
        data = Dataset([[0.1, 0.2], [0.3, -0.1], [0.5, 0.5]])
        hist = build_recursive_cube(data, t=2, max_depth=8)
        assert hist.root.is_leaf()
        assert hist.root.count == 3

    def test_clustered_data_single_active_chain(self):
        # all mass in a tight cluster clear of dyadic boundaries: after each
        # split exactly one child holds points until depth runs out
        rng = substream(5, "cluster")
        pts = 0.9 + 0.002 * rng.random((100, 2))
        hist = build_recursive_cube(Dataset(pts), t=2, max_depth=6)
        node = hist.root
        while node.children:
            nonzero = [ch for ch in node.children if ch.count > 0]
            assert len(nonzero) == 1
            node = nonzero[0]
        assert node.count == 100 and node.level == 6

    def test_point_outside_root_names_index(self):
        data = Dataset([[0.0, 0.0], [1.5, 0.0]])
        with pytest.raises(InputError, match="index 1"):
            build_recursive_cube(data, t=2)

    def test_boundary_point_inside_closed_root(self):
        data = Dataset([[1.0, 0.3], [-1.0, 0.2], [0.5, -1.0], [0.2, 0.1]])
        hist = build_recursive_cube(data, t=2, max_depth=3)
        assert hist.leaf_count_sum() == 4

    def test_node_budget(self, monkeypatch):
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", 10_000)
        data = Dataset(substream(0, "b").random((300, 18)) * 2 - 1)
        with pytest.raises(ResourceError):
            build_recursive_cube(data, t=2, max_depth=3)

    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_node_budget_admits_exactly_the_tree(self, method, monkeypatch):
        # the budget counts the root and every child of every split
        data = Dataset(substream(1, "budget").uniform(-1.0, 1.0, (400, 3)))
        hist = sanitize(data, method, 2, 6, seed=5)
        nodes = 1 + sum(node.split.size for node in hist.root.walk() if node.split is not None)
        assert nodes > 100
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", nodes)
        assert histogram_to_doc(sanitize(data, method, 2, 6, seed=5)) == histogram_to_doc(hist)
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", nodes - 1)
        with pytest.raises(ResourceError, match="node budget exceeded"):
            sanitize(data, method, 2, 6, seed=5)

    @pytest.mark.parametrize("depth", [55, 56, 60])
    def test_deep_build_on_duplicate_rows_stops_at_the_finest_level(self, depth, tmp_path):
        # two equal rows never separate; halving stops at cells 2^-50 wide on
        # [-1, 1]^2 (level 51), before a midpoint could land on the rows
        data = Dataset(np.array([[0.3, -0.2], [0.3, -0.2], [0.5, 0.5]]))
        hist = build_recursive_cube(data, t=1, max_depth=depth)
        levels = [node.level for node in hist.root.walk()]
        assert max(levels) == 52
        assert all(node.region.sides.min() >= 2.0**-50
                   for node in hist.root.walk() if node.split is not None)
        write_json_atomic(str(tmp_path / "data.json"), dataset_to_doc(data))
        assert main(["sanitize", "--method", "cube", "--t", "1", "--max-depth", str(depth),
                     "--in", str(tmp_path / "data.json"),
                     "--out", str(tmp_path / "hist.json")]) == 0

    def test_a_normal_depth_keeps_every_level(self):
        data = Dataset(np.array([[0.3, -0.2], [0.3, -0.2], [0.5, 0.5]]))
        hist = build_recursive_cube(data, t=1, max_depth=40)
        assert max(node.level for node in hist.root.walk()) == 40

    def test_split_threshold_soundness(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 400, seed=8)
        hist = build_recursive_cube(data, t=3, max_depth=5)
        for leaf in leaves_of(hist):
            assert leaf.count < 6 or leaf.level == 5


def _axis_strip_bounds(base: float, w: float, lo: float, hi: float) -> np.ndarray:
    """Reference: the merged strip boundaries of mesh lines base + k*w across
    the whole root axis (lo, hi).  The first and last interior lines are
    disbanded; with fewer than three interior lines the axis stays whole."""
    k_lo = math.floor((lo - base) / w)
    k_hi = math.ceil((hi - base) / w)
    lines = base + np.arange(k_lo, k_hi + 1) * w
    lines = lines[(lines > lo) & (lines < hi)]
    if lines.size <= 2:
        return np.array([lo, hi])
    return np.concatenate(([lo], lines[1:-1], [hi]))


class TestShiftedGridStrips:
    def test_merge_rule_absorbs_straddlers(self):
        # mesh lines at -1.5 + 0.5k: interior lines -0.5, 0, 0.5 at w=0.5;
        # the first and last are absorbed into the boundary strips
        bounds = _axis_strip_bounds(base=-1.5, w=0.5, lo=-1.0, hi=1.0)
        assert bounds.tolist() == [-1.0, 0.0, 1.0]

    def test_no_refinement_with_two_interior_lines(self):
        # both surviving strips would straddle the surface: axis stays whole
        bounds = _axis_strip_bounds(base=-1.7, w=1.0, lo=-1.0, hi=1.0)
        assert bounds.tolist() == [-1.0, 1.0]

    def test_strip_widths_between_w_and_2w(self):
        for seed in range(40):
            c = float(substream(seed, "c").uniform(-1, 1))
            for level in (3, 4, 5, 6):
                w = 2.0 * 2.0 ** (1 - level)
                bounds = _axis_strip_bounds(c - 2.0, w, -1.0, 1.0)
                widths = np.diff(bounds)
                assert widths.min() >= w - 1e-12
                assert widths.max() <= 2 * w + 1e-12

    def test_bounds_nest_across_levels(self):
        c = 0.31759
        for level in (3, 4, 5, 6, 7):
            w = 2.0 * 2.0 ** (1 - level)
            coarse = set(_axis_strip_bounds(c - 2.0, w, -1.0, 1.0).tolist())
            fine = set(_axis_strip_bounds(c - 2.0, w / 2, -1.0, 1.0).tolist())
            assert coarse.issubset(fine)

    @given(st.floats(-4.0, 4.0), st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0]),
           st.floats(0.0, 1.0), st.integers(1, 14), st.data())
    @settings(max_examples=300, deadline=None)
    def test_box_cuts_equal_the_reference_slice(self, lo, side, offset, level, data):
        # any span [bounds[a], bounds[b]] of the whole-axis reference is a
        # cell's axis; its cuts are the reference entries a..b
        hi = lo + side
        base = lo + offset * side - side
        w = side * 2.0 ** (1 - level)
        bounds = _axis_strip_bounds(base, w, lo, hi)
        a = data.draw(st.integers(0, bounds.size - 2))
        b = data.draw(st.integers(a + 1, bounds.size - 1))
        kept = _kept_lines(base, w, lo, hi)
        assert (kept is None) == (bounds.size == 2)
        expected = bounds[a:b + 1].tolist()
        tables, ncuts, child, splits = _grid_cuts(
            np.array([[base]]), [(level, w, np.array([[kept or (1, 0)]]))],
            np.array([[bounds[a]]]), np.array([[bounds[b]]]), np.array([0]), np.array([0]))
        assert splits.tolist() == [len(expected) > 2]
        if splits[0]:
            assert child.tolist() == [level]
            assert tables[0][0, :ncuts[0, 0]].tolist() == expected


class TestShiftedGrid:
    def test_below_threshold_single_node(self):
        data = Dataset([[0.1], [0.2], [0.3]])
        hist = build_shifted_grid(data, t=2, max_depth=8, seed=1)
        assert hist.root.is_leaf()

    def test_leaf_aspect_ratio_at_most_two(self):
        for seed in range(10):
            data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 300, seed=seed)
            hist = build_shifted_grid(data, t=2, max_depth=7, seed=seed)
            for leaf in leaves_of(hist):
                sides = leaf.region.sides
                assert sides.max() / sides.min() <= 2.0 + 1e-9

    def test_partition_and_conservation(self):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 400, seed=3)
        hist = build_shifted_grid(data, t=2, max_depth=6, seed=9)
        check_count_conservation(hist)
        check_partition(hist, seed=1)

    def test_raw_mesh_cells_nest(self):
        # pre-merge nesting: a raw level-(i+1) cell sits inside exactly one
        # raw level-i cell because the offset is shared
        c = np.array([0.123, -0.456])
        side = 2.0
        rng = substream(7, "nest")
        for level in (3, 4, 5):
            w_coarse = side * 2.0 ** (1 - level)
            w_fine = w_coarse / 2
            for _ in range(50):
                x = rng.uniform(-1, 1, size=2)
                k_f = np.floor((x - (c - side)) / w_fine)
                k_c = np.floor((x - (c - side)) / w_coarse)
                lo_f = (c - side) + k_f * w_fine
                lo_c = (c - side) + k_c * w_coarse
                assert np.all(lo_c <= lo_f + 1e-12)
                assert np.all(lo_f + w_fine <= lo_c + w_coarse + 1e-12)

    def test_deep_build_on_duplicate_rows_stops_at_distinct_lines(self):
        # two equal rows never separate; the levels stop where mesh lines
        # would no longer land on distinct doubles, long before max_depth
        data = Dataset(np.array([[0.3, -0.2], [0.3, -0.2]]))
        hist = build_shifted_grid(data, t=1, max_depth=2000, seed=1)
        levels = [node.level for node in hist.root.walk()]
        assert 40 < max(levels) < 60
        doc = histogram_to_doc(hist)
        assert histogram_to_doc(histogram_from_doc(doc)) == doc
        *_, low, high = _shifted_grid(data, t=1, max_depth=2000, seeds=[1])
        assert np.all(low <= data.points) and np.all(data.points < high)
        assert np.all(high - low < 1e-12)

    @staticmethod
    def _on_a_root_corner(seed):
        """Rows of a seeded build, plus one on a corner of its root split,
        which depends on the offset alone."""
        X = substream(3, "corner").uniform(-1.0, 1.0, (200, 2))
        first = build_shifted_grid(Dataset(X), t=2, max_depth=4, seed=seed)
        corner = [cuts[1] for cuts in first.root.split.cuts]
        return first, Dataset(np.vstack([X, corner]))

    def test_a_row_on_a_mesh_corner_redraws_the_offset(self):
        first, data = self._on_a_root_corner(seed=11)
        hist = build_shifted_grid(data, t=2, max_depth=4, seed=11)
        assert hist.extra["offset_center"] != first.extra["offset_center"]
        assert hist.leaf_count_sum() == 201
        # measure_diameters rebuilds through the same draws
        trial = child_seed(5, "trial", 0)
        _, data = self._on_a_root_corner(seed=trial)
        stats = measure_diameters(data, t=2, trials=1, seed=5, method="grid", max_depth=4)
        assert len(stats.per_point) == 201

    def test_the_corner_collision_is_internal_once_the_draws_run_out(self, monkeypatch):
        _, data = self._on_a_root_corner(seed=11)
        monkeypatch.setattr(privhist.sanitizer, "GRID_OFFSET_DRAWS", 1)
        with pytest.raises(CollisionError, match="coordinate"):
            build_shifted_grid(data, t=2, max_depth=4, seed=11)

    def test_a_leaf_count_error_is_not_redrawn(self, monkeypatch):
        builds = []
        grow = privhist.sanitizer._grow_mesh

        def miscounted(*args):
            depths, low, high = grow(*args)
            root = depths[0]  # the root's split: one frontier box
            leaf = min(set(range(root.counts.size)) - set(root.kids.tolist()))
            root.counts[leaf] += 1
            builds.append(depths)
            return depths, low, high

        monkeypatch.setattr(privhist.sanitizer, "_grow_mesh", miscounted)
        data = Dataset(substream(3, "corner").uniform(-1.0, 1.0, (20, 2)))
        with pytest.raises(InternalError) as raised:
            build_shifted_grid(data, t=2, max_depth=4, seed=11)
        assert not isinstance(raised.value, CollisionError)
        assert len(builds) == 1

    def test_determinism(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 200, seed=4)
        a = build_shifted_grid(data, t=2, max_depth=6, seed=77)
        b = build_shifted_grid(data, t=2, max_depth=6, seed=77)
        assert histogram_to_doc(a) == histogram_to_doc(b)

    def test_split_threshold_soundness(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 500, seed=6)
        hist = build_shifted_grid(data, t=2, max_depth=6, seed=2)
        for leaf in leaves_of(hist):
            assert leaf.count < 4 or leaf.level == 6


class TestVoronoi:
    def test_single_point_root_only(self):
        data = Dataset([[0.1, 0.2]])
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=2, max_depth=3,
                             method="greedy", probe_samples=2_000, seed=0)
        assert hist.root.is_leaf()

    def test_greedy_centers_well_spread_and_covering(self):
        support = Ball(np.zeros(2), 1.0)
        cert = certify_roundness(support)
        centers = pick_centers_greedy(support, cert, probe_samples=30_000, seed=5)
        spread = cert.radius / 4.0
        assert well_spread_check(centers, spread)
        covered, worst = cover_check(centers, support, spread * 1.05)
        assert covered

    def test_uniform_center_counts(self):
        assert method2_center_count(1) == 32
        assert method2_center_count(2) == 512

    def test_uniform_centers_inside_region(self):
        support = Ball(np.zeros(1), 1.0)
        centers = pick_centers_uniform(support, seed=3)
        assert centers.shape == (32, 1)
        assert support.contains_many(centers).all()

    def test_uniform_budget_error_reports_requirement(self):
        support = Ball(np.zeros(6), 1.0)
        data = Dataset(uniform_in_region(support, 30, substream(0, "d6")))
        with pytest.raises(ResourceError, match=f"m={method2_center_count(6)} "):
            build_voronoi(data, support, t=2, max_depth=1, method="uniform", seed=0)

    def test_partition_conservation_determinism(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 120, seed=10)
        support = Ball(np.zeros(2), 1.0)
        a = build_voronoi(data, support, t=10, max_depth=2, method="greedy",
                          probe_samples=10_000, seed=21)
        b = build_voronoi(data, support, t=10, max_depth=2, method="greedy",
                          probe_samples=10_000, seed=21)
        assert histogram_to_doc(a) == histogram_to_doc(b)
        check_count_conservation(a)
        check_partition(a, seed=2)

    def test_split_threshold_soundness(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=12)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=6, max_depth=2,
                             method="greedy", probe_samples=10_000, seed=3)
        for leaf in leaves_of(hist):
            assert leaf.count <= 6 or leaf.level == 2


def _values(certs):
    """Each certificate as (k, R, witness bytes), for bit-for-bit equality."""
    return [(cert.k, cert.radius, cert.witness.tobytes()) for cert in certs]


class TestCertifyNodes:
    def test_one_batch_per_split_and_each_node_once(self, monkeypatch):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 200, seed=30)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=6, max_depth=2,
                             method="greedy", probe_samples=4_000, seed=31)
        nodes = list(hist.root.walk())
        splits = [node for node in nodes if node.children]
        assert len(splits) > 2
        parent_of = {id(ch): (id(node), k) for node in splits
                     for k, ch in enumerate(node.children)}
        calls = []

        def counted(parent, centers, indices=None, samples=128):
            calls.append((id(centers), list(indices), samples))
            return certify_children(parent, centers, indices, samples)

        monkeypatch.setattr(privhist.sanitizer, "certify_children", counted)
        request = nodes[::-1] + nodes  # every node twice, in reverse walk order first
        batches = {}  # each split's children in the order first requested
        for node in nodes[::-1]:
            if id(node) in parent_of:
                split, k = parent_of[id(node)]
                batches.setdefault(split, []).append(k)
        centers = {id(node): id(node.split.centers) for node in splits}
        certs = certify_nodes(request)
        assert calls == [(centers[split], ks, 128) for split, ks in batches.items()]
        assert all(a is b for a, b in zip(certs[len(nodes):], certs[len(nodes) - 1::-1]))
        # another call makes its batches again and returns equal values
        again = certify_nodes(request)
        assert calls[len(batches):] == calls[:len(batches)]
        assert _values(again) == _values(certs)
        # another direction count gives other radii
        fresh = certify_nodes(request, samples=64)
        assert [samples for _, _, samples in calls[2 * len(batches):]] == [64] * len(batches)
        assert any(a.radius != b.radius for a, b in zip(fresh, certs))

    @pytest.mark.parametrize("checked", [False, True], ids=["as-built", "after-privacy-check"])
    @pytest.mark.parametrize("d,method,seed", [(2, "greedy", 0), (2, "uniform", 4),
                                               (3, "greedy", 2), (3, "uniform", 0)])
    def test_a_built_tree_and_its_document_get_the_same_certificates(self, d, method, seed,
                                                                     checked):
        data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), 300, seed=seed)
        params = {"probe_samples": 5_000} if method == "greedy" else {"override_m": 24}
        built = build_voronoi(data, Ball(np.zeros(d), 1.0), t=4, max_depth=3, method=method,
                              seed=seed + 100, **params)
        read = histogram_from_doc(histogram_to_doc(built))
        if checked:
            check_privacy_condition(built.root, c=8.0, q_probes=1, r_grid_size=1,
                                    volume_samples=100)
        assert (_values(certify_nodes(list(built.root.walk())))
                == _values(certify_nodes(list(read.root.walk()))))


class TestSanitizedOutput:
    @staticmethod
    def _on_a_root_center(method):
        """Rows of a seeded Voronoi build, plus one on a center of its root
        split, which depends on the seed and the support alone."""
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=0)
        first = build_voronoi(data, Ball(np.zeros(2), 1.0), t=4, max_depth=2, method=method,
                              probe_samples=2_000, override_m=24, seed=5)
        center = first.root.split.centers[3]
        return first, Dataset(np.vstack([data.points, center])), center

    @pytest.mark.parametrize("method", ["greedy", "uniform"])
    def test_a_row_on_a_voronoi_center_redraws_the_split(self, method, monkeypatch):
        first, data, center = self._on_a_root_center(method)
        kwargs = dict(t=4, max_depth=2, method=method, probe_samples=2_000, override_m=24,
                      seed=5)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), **kwargs)
        assert hist.leaf_count_sum() == 151
        assert not np.array_equal(hist.root.split.centers, first.root.split.centers)
        assert not (hist.root.split.centers == center).all(axis=1).any()
        # the last draw stands, and a row still on a center aborts the build
        monkeypatch.setattr(privhist.sanitizer, "VORONOI_CENTER_DRAWS", 1)
        with pytest.raises(CollisionError, match="coordinate"):
            build_voronoi(data, Ball(np.zeros(2), 1.0), **kwargs)

    def test_leaf_counts_sum_to_n(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 321, seed=14)
        for hist in (
            build_recursive_cube(data, t=2, max_depth=5),
            build_shifted_grid(data, t=2, max_depth=5, seed=3),
        ):
            assert hist.leaf_count_sum() == 321

    def test_voronoi_output_contains_no_data_coordinates(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 80, seed=15)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=8, max_depth=2,
                             method="greedy", probe_samples=8_000, seed=4)
        rows = {row.tobytes() for row in data.points}
        doc = histogram_to_doc(hist)
        # every vector a v2 document publishes: the root region's, then the
        # center array of every split
        region = doc["root"]["region"]
        vectors = [region[key] for key in ("low", "high", "center") if key in region]
        splits = [node["split"] for node in _walk_doc(doc["root"]) if "split" in node]
        assert splits and all(split["kind"] == "voronoi" for split in splits)
        for split in splits:
            vectors.extend(split["centers"])
        for vec in vectors:
            assert np.array(vec).tobytes() not in rows

    def test_leakage_assertion_aborts(self):
        # a construction point coinciding exactly with a dataset point must
        # abort the strip, never emit
        data = Dataset([[0.25, 0.25]])
        poisoned = HistogramNode(
            region=Ball(np.array([0.25, 0.25]), 0.5), count=1, level=0
        )
        with pytest.raises(InputError, match="row 0"):
            strip_to_sanitized(poisoned, data, method="cube", t=2, max_depth=1,
                               seed=None)

    def test_rows_on_fixed_vectors_match_by_value(self):
        # -0.0 and 0.0 are one value; a row equals a vector only on every axis
        rng = np.random.default_rng(18)
        points = rng.uniform(-1.0, 1.0, (300, 3))
        vectors = [np.array([-1.0, -1.0, -1.0]), np.array([0.0, -0.0, 0.5]), points[7]]
        points[[3, 40]] = vectors[0]
        points[90] = [-0.0, 0.0, 0.5]
        points[91] = [0.0, 0.0, 0.25]
        hits = _on_published(points, vectors, [])
        expected = [i for i, row in enumerate(points)
                    if any((row == vec).all() for vec in vectors)]
        assert np.flatnonzero(hits).tolist() == expected == [3, 7, 40, 90]
        assert not _on_published(points, [], []).any()

    def test_cube_regions_are_data_independent(self):
        d1, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 200, seed=16)
        d2, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 200, seed=17)
        h1 = build_recursive_cube(d1, t=2, max_depth=2)
        h2 = build_recursive_cube(d2, t=2, max_depth=2)

        def regions(hist):
            return [
                (node.region.low.tolist(), node.region.high.tolist())
                for node in hist.root.walk()
            ]

        assert regions(h1) == regions(h2)


def _walk_doc(node):
    yield node
    for ch in node["children"]:
        yield from _walk_doc(ch)


def _unit_box(d):
    return Box(-np.ones(d), np.ones(d), closed_high=np.ones(d, dtype=bool))


class TestSanitize:
    @pytest.mark.parametrize("method,support", [
        ("cube", "box"), ("grid", "box"), ("voronoi-greedy", "ball"), ("voronoi-greedy", "box"),
        ("voronoi-uniform", "ball"), ("voronoi-uniform", "box")])
    def test_each_method_is_its_builder_at_its_default_depth(self, method, support):
        data, _ = sample(single(UniformBall(np.zeros(2), 0.9)), 60, seed=40)
        root = Ball(np.zeros(2), 1.0) if support == "ball" else _unit_box(2)
        if method == "cube":
            built = build_recursive_cube(data, 2, 8, root=root)
        elif method == "grid":
            built = build_shifted_grid(data, 2, 8, seed=7, root=root)
        else:
            built = build_voronoi(data, root, 2, 3, method=method[8:], override_m=24,
                                  probe_samples=2_000, seed=7)
        params = {"voronoi-greedy": {"probe_samples": 2_000},
                  "voronoi-uniform": {"override_m": 24}}.get(method, {})
        hist = sanitize(data, method, 2, seed=7, support=root, **params)
        assert hist.method == method
        assert histogram_to_doc(hist) == histogram_to_doc(built)

    def test_mesh_support_defaults_to_the_unit_box(self):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 80, seed=41)
        assert (histogram_to_doc(sanitize(data, "grid", 2, 4, seed=3))
                == histogram_to_doc(sanitize(data, "grid", 2, 4, seed=3, support=_unit_box(3))))

    @pytest.mark.parametrize("method,support,message", [
        ("cube", Ball(np.zeros(2), 1.0), "needs a box support"),
        ("grid", Ball(np.zeros(2), 1.0), "needs a box support"),
        ("voronoi-greedy", VoronoiClip(np.array([[0.0, 0.0], [0.5, 0.5]]), 0,
                                       Ball(np.zeros(2), 1.0)), "needs a ball or box support"),
        ("voronoi", Ball(np.zeros(2), 1.0), "unknown sanitizer method"),
    ])
    def test_rejects_unknown_methods_and_support_kinds(self, method, support, message):
        data = Dataset([[0.1, 0.2], [0.3, -0.1]])
        with pytest.raises(InputError, match=message):
            sanitize(data, method, 1, support=support)

    @pytest.mark.parametrize("method", ["voronoi-greedy", "voronoi-uniform"])
    @pytest.mark.parametrize("rows,radius", [
        ([[0.1, 0.2], [0.3, -0.1]], 1.0),
        ([[0.0, 1.0], [0.3, -0.1]], 1.0),   # a row on the unit sphere
        ([[0.5, 0.2], [1.5, -0.1]], 2.0),
        ([[2.0, 0.0], [0.3, -0.1]], 2.0),   # a row on the radius-2 sphere
        ([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]], 8.0),
    ])
    def test_voronoi_support_defaults_to_the_smallest_power_of_two_ball(self, method, rows,
                                                                         radius):
        region = sanitize(Dataset(rows), method, 2).root.region
        assert (region.center.tolist(), region.radius) == ([0.0, 0.0], radius)

    @pytest.mark.parametrize("method,param", [
        ("cube", "override_m"), ("cube", "probe_samples"), ("grid", "override_m"),
        ("grid", "probe_samples"), ("voronoi-greedy", "override_m"),
        ("voronoi-uniform", "probe_samples")])
    def test_a_parameter_the_method_does_not_read_is_an_input_error(self, method, param):
        data = Dataset([[0.1, 0.2], [0.3, -0.1]])
        with pytest.raises(InputError, match=f"^{method} does not read {param}$"):
            sanitize(data, method, 1, **{param: 24})

    def test_method_names_of_the_cli_families(self):
        assert [method_name("cube"), method_name("grid"), method_name("voronoi"),
                method_name("voronoi", "uniform")] == [
            "cube", "grid", "voronoi-greedy", "voronoi-uniform"]
        for family in ("cube", "grid"):
            with pytest.raises(InputError, match=f"^{family} does not read centers$"):
                method_name(family, "greedy")

    def test_default_uniform_count_over_the_budget_is_an_input_error(self):
        support = Ball(np.zeros(6), 1.0)
        data = Dataset(uniform_in_region(support, 30, substream(0, "d6")))
        assert method2_center_count(5) <= privhist.sanitizer.NODE_BUDGET
        assert method2_center_count(6) > privhist.sanitizer.NODE_BUDGET
        with pytest.raises(InputError, match=str(method2_center_count(6))):
            sanitize(data, "voronoi-uniform", 2, support=support)

    def test_voronoi_builds_charge_the_node_budget(self, monkeypatch):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 40, seed=42)
        support = Ball(np.zeros(2), 1.0)
        greedy = build_voronoi(data, support, 2, 2, probe_samples=2_000, seed=1)
        # the root is one node and each uniform split charges m, before drawing
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", 21)
        hist = sanitize(data, "voronoi-uniform", 2, 1, support=support, override_m=20)
        assert len(hist.root.children) == 20
        with pytest.raises(ResourceError, match="m=21 "):
            sanitize(data, "voronoi-uniform", 2, 1, support=support, override_m=21)
        drawn = []
        monkeypatch.setattr(privhist.sanitizer, "pick_centers_uniform",
                            lambda *args, **kwargs: drawn.append(args))
        with pytest.raises(ResourceError):
            sanitize(data, "voronoi-uniform", 2, 1, support=support, override_m=21)
        assert not drawn
        # greedy splits are charged as many nodes as they keep centers
        nodes = sum(1 for _ in greedy.root.walk())
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", nodes)
        sanitize(data, "voronoi-greedy", 2, 2, support=support, probe_samples=2_000, seed=1)
        monkeypatch.setattr(privhist.sanitizer, "NODE_BUDGET", nodes - 1)
        with pytest.raises(ResourceError, match="node budget exceeded"):
            sanitize(data, "voronoi-greedy", 2, 2, support=support, probe_samples=2_000,
                     seed=1)


class TestMixtures:
    def test_mixture_equals_component_sanitizations(self):
        from privhist.datagen import DistributionSpec

        spec = DistributionSpec(components=(
            (0.5, UniformBall(np.array([3.0, 0.0]), 1.0)),
            (0.5, UniformBall(np.array([-3.0, 0.0]), 1.0)),
        ))
        data, labels = sample(spec, 160, seed=18)
        supports = spec.supports()
        mix = sanitize_mixture(data, labels, supports, t=6, max_depth=1,
                               method="voronoi-greedy", seed=33,
                               probe_samples=5_000)
        assert [h.component_index for h in mix] == [0, 1]
        for idx in (0, 1):
            sub = Dataset(data.points[labels == idx].copy())
            solo = build_voronoi(sub, supports[idx], t=6, max_depth=1,
                                 method="greedy", probe_samples=5_000,
                                 seed=component_seed(33, idx))
            solo.component_index = idx
            assert histogram_to_doc(solo) == histogram_to_doc(mix[idx])

    def test_cube_method_requires_box_support(self):
        data, labels = sample(single(UniformBall(np.zeros(2), 1.0)), 50, seed=19)
        with pytest.raises(InputError):
            sanitize_mixture(data, labels, [Ball(np.zeros(2), 1.0)], t=2,
                             max_depth=3, method="cube", seed=0)
