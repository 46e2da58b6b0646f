import math

import numpy as np
import pytest

from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.errors import InputError
from privhist.experiments import adversarial_corner_arrangement
from privhist.geometry import Ball, Dataset, distance
from privhist.metrics import (
    _box_pair_matrix,
    _descend,
    _leaf_pair_distance,
    _leaf_pair_matrix,
    cut_probability,
    grid_diameter_bound,
    hist_distance,
    hist_distance_with_diameters,
    leaf_diameter,
    locate_leaves,
    measure_diameters,
    mst_compare,
)
from privhist.rng import substream
from privhist.sanitizer import build_recursive_cube, build_shifted_grid, build_voronoi


def _tiny_hist(points, t=2, depth=4):
    return build_recursive_cube(Dataset(points), t=t, max_depth=depth)


class TestHistDistance:
    def test_separated_box_pair_exact(self):
        # leaves [0, .25)^2 and [.5, .75) x [0, .25): farthest corners at
        # x-span .75, y-span .25 — checked against corner enumeration
        pts = np.array([[0.1, 0.1], [0.11, 0.12], [0.6, 0.1], [0.61, 0.12],
                        [0.1, 0.6], [0.12, 0.61], [0.6, 0.6], [0.61, 0.61],
                        [-0.51, -0.49], [-0.55, -0.52], [-0.1, -0.4], [-0.2, -0.3]])
        hist = _tiny_hist(pts, t=2, depth=3)
        x, y = pts[0], pts[2]
        lx, ly = locate_leaves(hist, np.stack([x, y]))
        corners_x = [np.array([a, b]) for a in (lx.region.low[0], lx.region.high[0])
                     for b in (lx.region.low[1], lx.region.high[1])]
        corners_y = [np.array([a, b]) for a in (ly.region.low[0], ly.region.high[0])
                     for b in (ly.region.low[1], ly.region.high[1])]
        brute = max(distance(a, b) for a in corners_x for b in corners_y)
        assert hist_distance(hist, x, y) == pytest.approx(brute)

    def test_same_leaf_gives_cell_diameter(self):
        pts = np.array([[0.4, 0.4], [0.45, 0.42], [-0.5, -0.5], [-0.52, -0.48]])
        hist = _tiny_hist(pts, t=3, depth=4)  # below threshold: single cell
        dh = hist_distance(hist, pts[0], pts[1])
        side = 2.0
        assert dh == pytest.approx(side * math.sqrt(2))

    def test_dominates_euclidean_distance(self):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 200, seed=3)
        hist = build_shifted_grid(data, t=2, max_depth=5, seed=4)
        rng = substream(5, "pairs")
        for _ in range(200):
            i, j = rng.integers(0, 200, size=2)
            x, y = data.points[i], data.points[j]
            assert hist_distance(hist, x, y) >= distance(x, y) - 1e-12

    def test_sandwich_on_voronoi_leaves(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 100, seed=6)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=10, max_depth=1,
                             method="greedy", probe_samples=8_000, seed=7)
        rng = substream(9, "pairs")
        for _ in range(100):
            i, j = rng.integers(0, 100, size=2)
            x, y = data.points[i], data.points[j]
            dh, dx, dy = hist_distance_with_diameters(hist, x, y)
            base = distance(x, y)
            assert base - 1e-9 <= dh <= base + dx + dy + 1e-9

    def test_outside_root_rejected(self):
        hist = _tiny_hist(np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.1], [0.15, 0.25]]))
        with pytest.raises(InputError):
            hist_distance(hist, [5.0, 0.0], [0.1, 0.1])

    def test_symmetry_and_self_distance(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 150, seed=21)
        hist = build_shifted_grid(data, t=2, max_depth=5, seed=22)
        rng = substream(24, "sym")
        for _ in range(50):
            i, j = rng.integers(0, 150, size=2)
            x, y = data.points[i], data.points[j]
            assert hist_distance(hist, x, y) == hist_distance(hist, y, x)
        x = data.points[0]
        leaf = locate_leaves(hist, data.points[:1])[0]
        assert hist_distance(hist, x, x) == pytest.approx(leaf_diameter(leaf))


class TestMeasureDiameters:
    def test_colocated_cluster_refines_to_max_depth(self):
        depth = 6
        pts = np.tile(np.array([[0.37, -0.21]]), (4, 1))  # n = 2t co-located
        stats = measure_diameters(Dataset(pts), t=2, trials=30, seed=10,
                                  method="grid", max_depth=depth)
        root_diam = 2.0 * math.sqrt(2)
        for _, _, mean, _ in stats.per_point:
            assert 0.5 * root_diam * 2.0**-depth <= mean <= 4.0 * root_diam * 2.0**-depth

    def test_deterministic_builder_rejected(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 50, seed=11)
        with pytest.raises(InputError):
            measure_diameters(data, t=2, trials=10, method="cube")

    def test_adversarial_arrangement_grid_beats_cube(self):
        # the corner arrangement forces singleton cube cells of diameter
        # sqrt(d); the randomized grid keeps refining and tracks the t-radius
        d = 3
        data = adversarial_corner_arrangement(d, gamma=0.01)
        cube = build_recursive_cube(data, t=2, max_depth=8)
        cube_diams = [leaf_diameter(leaf) for leaf in locate_leaves(cube, data.points)]
        assert min(cube_diams) == pytest.approx(math.sqrt(d))
        stats = measure_diameters(data, t=2, trials=40, seed=12, method="grid",
                                  max_depth=8)
        for _, _, mean, bound in stats.per_point:
            assert mean < min(cube_diams)
            assert mean <= bound

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_grid_means_equal_per_leaf_boxes(self, d):
        data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), 150, seed=40 + d)
        stats = measure_diameters(data, t=2, trials=3, seed=41, method="grid", max_depth=6)
        sums = np.zeros(data.n)
        for trial in range(3):
            tseed = int(substream(41, "trial", trial).integers(0, 2**62))
            hist = build_shifted_grid(data, 2, 6, seed=tseed)
            for i, leaf in enumerate(locate_leaves(hist, data.points)):
                sums[i] += leaf.region.diameter()
        assert [mean for _, _, mean, _ in stats.per_point] == (sums / 3).tolist()

    def test_grid_bound_formula(self):
        assert grid_diameter_bound(2, 2, 0.25) == pytest.approx(
            2.0 * min(2**1.5, 4) * 0.25 * 2.0
        )
        # the level factor clamps at one level for large radii
        assert grid_diameter_bound(2, 2, 0.9) == pytest.approx(
            2.0 * min(2**1.5, 4) * 0.9 * 1.0
        )


class TestCutProbability:
    def test_small_radius_rarely_cut(self):
        support = Ball(np.zeros(2), 1.0)
        rows = cut_probability(support, np.zeros(2), [1.01e-4], m=512,
                               trials=400, seed=13)
        assert rows[0][1] < 0.02

    def test_monotone_under_common_random_numbers(self):
        support = Ball(np.zeros(2), 1.0)
        rs = np.geomspace(1e-3, 0.1, 8)
        rows = cut_probability(support, np.zeros(2), rs, m=256, trials=150, seed=14)
        probs = [p for _, p, _ in rows]
        assert probs == sorted(probs)

    def test_radius_at_cell_scale_rejected(self):
        support = Ball(np.zeros(2), 1.0)
        with pytest.raises(InputError):
            cut_probability(support, np.zeros(2), [1.5], m=64, trials=10, seed=0)

    def test_x_outside_rejected(self):
        support = Ball(np.zeros(2), 1.0)
        with pytest.raises(InputError):
            cut_probability(support, np.array([2.0, 0.0]), [0.01], m=64,
                            trials=10, seed=0)


class TestMstCompare:
    def test_three_four_five_triangle(self):
        pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.3, 0.4]])  # scaled 3-4-5
        hist = _tiny_hist(pts, t=2, depth=2)
        cmp_ = mst_compare(hist, Dataset(pts))
        assert cmp_.actual_cost == pytest.approx(0.7)

    def test_single_leaf_hist_cost(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.3], [-0.4, 0.2], [0.0, -0.3]])
        hist = _tiny_hist(pts, t=3, depth=3)  # single node
        cmp_ = mst_compare(hist, Dataset(pts))
        diam = 2.0 * math.sqrt(2)
        assert cmp_.hist_cost == pytest.approx((len(pts) - 1) * diam)
        assert cmp_.actual_cost <= cmp_.hist_cost

    def test_sandwich_inequalities(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 120, seed=15)
        for depth in (2, 4, 6):
            hist = build_shifted_grid(data, t=2, max_depth=depth, seed=16)
            cmp_ = mst_compare(hist, data)
            assert cmp_.actual_cost <= cmp_.hist_cost
            assert cmp_.gap <= cmp_.gap_bound + 1e-9

    def test_gap_shrinks_with_depth(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 150, seed=17)
        gaps = []
        for depth in (2, 4, 6):
            hist = build_shifted_grid(data, t=2, max_depth=depth, seed=18)
            gaps.append(mst_compare(hist, data).gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_needs_two_points(self):
        hist = _tiny_hist(np.array([[0.1, 0.1]]), t=2, depth=2)
        with pytest.raises(InputError):
            mst_compare(hist, Dataset(np.array([[0.1, 0.1]])))


def _reference_pair_matrix(leaves):
    """Upper triangle pair by pair, mirrored: certificate sums are not
    bitwise symmetric, so the lower triangle copies the upper one."""
    L = len(leaves)
    pair = np.zeros((L, L))
    for a in range(L):
        for b in range(a, L):
            pair[a, b] = pair[b, a] = _leaf_pair_distance(leaves[a], leaves[b])
    return pair


class TestLeafPairMatrix:
    @pytest.mark.parametrize("builder", ["grid", "cube"])
    def test_bitwise_equal_to_pairwise_distance(self, builder):
        data, _ = sample(single(UniformCube(np.zeros(4), 1.0)), 500, seed=21)
        if builder == "grid":
            hist = build_shifted_grid(data, t=2, max_depth=8, seed=22)
        else:
            hist = build_recursive_cube(data, t=2, max_depth=8)
        _, leaves, bounds = _descend(hist, data.points)
        pair = _box_pair_matrix(*bounds)
        expected = _reference_pair_matrix(leaves)
        assert len(leaves) > 100
        assert np.array_equal(pair, expected)

    def test_voronoi_leaves_use_certificates(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 60, seed=23)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=10, max_depth=1,
                             method="greedy", probe_samples=4_000, seed=24)
        _, leaves, bounds = _descend(hist, data.points)
        assert bounds is None
        pair = _leaf_pair_matrix(leaves)
        expected = _reference_pair_matrix(leaves)
        assert np.array_equal(pair, expected)
