import math

import numpy as np
import pytest
import test_sanitizer
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privhist import metrics, sanitizer
from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.errors import InputError, ResourceError
from privhist.experiments import adversarial_corner_arrangement
from privhist.geometry import (Ball, Box, Dataset, VoronoiClip, distance, t_radii,
                               uniform_in_region, voronoi_assign)
from privhist.metrics import (
    _descend,
    _diameters,
    _leaf_geometry,
    _pair_matrix,
    cut_probability,
    grid_diameter_bounds,
    hist_distance,
    hist_distance_with_diameters,
    locate_leaves,
    measure_diameters,
    mst_compare,
)
from privhist.rng import child_seed, substream
from privhist.sanitizer import (build_recursive_cube, build_shifted_grid, build_voronoi,
                                certify_nodes, default_root_box)


def _tiny_hist(points, t=2, depth=4):
    return build_recursive_cube(Dataset(points), t=t, max_depth=depth)



def grid_diameter_bound(d, t, r):
    """One point's grid bound, the reference ``grid_diameter_bounds`` equals."""
    levels = max(math.log2(1.0 / r), 1.0) if r > 0 else 1.0
    return 2.0 * min(d**1.5, t * d) * r * levels

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
        idx = substream(9, "pairs").integers(0, 100, size=(100, 2))
        X, Y = data.points[idx[:, 0]], data.points[idx[:, 1]]
        dh, dx, dy = hist_distance_with_diameters(hist, X, Y)
        base = np.linalg.norm(X - Y, axis=1)
        assert np.all(base - 1e-9 <= dh)
        assert np.all(dh <= base + dx + dy + 1e-9)

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
        assert hist_distance(hist, x, x) == pytest.approx(leaf.region.diameter())


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
        cube_diams = [leaf.region.diameter() for leaf in locate_leaves(cube, data.points)]
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
            tseed = child_seed(41, "trial", trial)
            hist = build_shifted_grid(data, 2, 6, seed=tseed)
            for i, leaf in enumerate(locate_leaves(hist, data.points)):
                sums[i] += leaf.region.diameter()
        assert [mean for _, _, mean, _ in stats.per_point] == (sums / 3).tolist()

    @staticmethod
    def _reference_grid_report(data, t, trials, seed, max_depth, root=None):
        """measure_diameters(method="grid") as a rebuild-and-descend loop."""
        sums = np.zeros(data.n)
        for trial in range(trials):
            tseed = child_seed(seed, "trial", trial)
            hist = build_shifted_grid(data, t, max_depth, seed=tseed, root=root)
            table, ids, reached = _descend(hist, data.points)
            sums += _diameters(True, table.low[reached], table.high[reached])[ids]
        radii = t_radii(data, t)
        return {
            "method": "grid", "t": t, "trials": trials, "fitted_coeff": None,
            "per_point": [{"index": i, "t_radius": float(r), "mean_diameter": float(m),
                           "bound": grid_diameter_bound(data.d, t, float(r))}
                          for i, (r, m) in enumerate(zip(radii, sums / trials))],
        }

    @pytest.mark.parametrize("trials", [1, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_grid_report_equals_descent_reference(self, d, trials):
        data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), 90, seed=60 + d)
        stats = measure_diameters(data, t=2, trials=trials, seed=61, method="grid",
                                  max_depth=6)
        assert stats.to_dict() == self._reference_grid_report(data, 2, trials, 61, 6)

    def test_grid_branch_does_not_descend(self, monkeypatch):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 90, seed=62)
        expected = self._reference_grid_report(data, 2, 3, 63, 6)

        def no_descent(*args, **kwargs):
            raise AssertionError("grid diameters descended the tree again")

        monkeypatch.setattr(metrics, "_descend", no_descent)
        stats = measure_diameters(data, t=2, trials=3, seed=63, method="grid", max_depth=6)
        assert stats.to_dict() == expected

    def test_grid_trials_build_over_the_support(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 0.9)), 90, seed=66)
        box = Box(np.full(2, -0.95), np.full(2, 0.95), closed_high=np.ones(2, dtype=bool))
        stats = measure_diameters(data, t=2, trials=2, seed=67, method="grid", max_depth=6,
                                  support=box)
        assert stats.to_dict() == self._reference_grid_report(data, 2, 2, 67, 6, root=box)
        assert stats.to_dict() != self._reference_grid_report(data, 2, 2, 67, 6)
        with pytest.raises(InputError, match="needs a box support"):
            measure_diameters(data, t=2, trials=1, method="grid", support=Ball(np.zeros(2), 2.0))
        with pytest.raises(InputError, match="^grid does not read probe_samples$"):
            measure_diameters(data, t=2, trials=1, method="grid", probe_samples=2_000)

    def test_grid_trials_redraw_a_colliding_offset_as_the_builder_does(self):
        # the first offset of trial 0 puts a row on a corner of its root split
        trial = child_seed(5, "trial", 0)
        first, data = test_sanitizer.TestShiftedGrid._on_a_root_corner(seed=trial)
        redrawn = build_shifted_grid(data, t=2, max_depth=4, seed=trial)
        assert redrawn.extra["offset_center"] != first.extra["offset_center"]
        stats = measure_diameters(data, t=2, trials=2, seed=5, method="grid", max_depth=4)
        assert stats.to_dict() == self._reference_grid_report(data, 2, 2, 5, 4)

    def test_a_row_on_a_root_corner_is_the_builders_input_error(self):
        X = substream(3, "corner").uniform(-1.0, 1.0, (200, 2))
        X[17] = [1.0, 1.0]  # the closed high corner of the default root
        data = Dataset(X)
        with pytest.raises(InputError, match="row 17 equals") as built:
            build_shifted_grid(data, t=2, max_depth=4, seed=5)
        with pytest.raises(InputError) as measured:
            measure_diameters(data, t=2, trials=3, seed=5, method="grid", max_depth=4)
        assert str(measured.value) == str(built.value)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_grouped_trials_equal_the_descent_reference(self, d, monkeypatch):
        # 60 rows and groups of 150 rows: two trials per shared frontier
        data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), 60, seed=70 + d)
        groups, shifted_grid = [], metrics._shifted_grid

        def recording(dataset, t, max_depth, seeds, root=None):
            groups.append(len(seeds))
            return shifted_grid(dataset, t, max_depth, seeds, root)

        monkeypatch.setattr(metrics, "GRID_GROUP_ROWS", 150)
        monkeypatch.setattr(metrics, "_shifted_grid", recording)
        stats = measure_diameters(data, t=2, trials=7, seed=71, method="grid", max_depth=6)
        assert groups == [2, 2, 2, 1]
        assert stats.to_dict() == self._reference_grid_report(data, 2, 7, 71, 6)

    def test_a_colliding_middle_trial_is_redrawn_alone(self):
        # the first offset of trial 2 of 5 puts a row on a corner of its root split
        seeds = [child_seed(5, "trial", i) for i in range(5)]
        first, data = test_sanitizer.TestShiftedGrid._on_a_root_corner(seed=seeds[2])
        _, centers, _, low, high = sanitizer._shifted_grid(data, 2, 4, seeds)
        n = data.n
        for i, seed in enumerate(seeds):
            draw0 = uniform_in_region(default_root_box(2), 1, substream(seed, "grid-offset"))[0]
            assert (centers[i].tolist() == draw0.tolist()) == (i != 2)
            _, alone, _, alone_low, alone_high = sanitizer._shifted_grid(data, 2, 4, [seed])
            assert centers[i].tolist() == alone[0].tolist()
            assert low[i * n:(i + 1) * n].tolist() == alone_low.tolist()
            assert high[i * n:(i + 1) * n].tolist() == alone_high.tolist()
        assert centers[2].tolist() != first.extra["offset_center"]
        stats = measure_diameters(data, t=2, trials=5, seed=5, method="grid", max_depth=4)
        assert stats.to_dict() == self._reference_grid_report(data, 2, 5, 5, 4)

    def test_a_trial_over_the_node_budget_raises_the_sequential_error(self, monkeypatch):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 300, seed=72)
        seeds = [child_seed(73, "trial", i) for i in range(6)]
        nodes = [1 + sum(node.split.size for node in build_shifted_grid(data, 2, 6, seed=s)
                         .root.walk() if node.split is not None) for s in seeds]
        # trial 0 fits; the first larger trial is the first the loop cannot build
        limit = nodes[0]
        assert sum(size > limit for size in nodes) > 1
        monkeypatch.setattr(sanitizer, "NODE_BUDGET", limit)
        with pytest.raises(ResourceError, match="node budget exceeded") as sequential:
            for seed in seeds:
                build_shifted_grid(data, 2, 6, seed=seed)
        with pytest.raises(ResourceError) as measured:
            measure_diameters(data, t=2, trials=6, seed=73, method="grid", max_depth=6)
        assert str(measured.value) == str(sequential.value)

    def test_next_cuts_runs_once_per_depth_for_all_trials(self, monkeypatch):
        calls, grid_cuts = [], sanitizer._grid_cuts

        def counted(bases, levels, low, high, lv, trial):
            calls.append(sorted(set(trial.tolist())))
            return grid_cuts(bases, levels, low, high, lv, trial)

        monkeypatch.setattr(sanitizer, "_grid_cuts", counted)
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 300, seed=76)
        measure_diameters(data, t=2, trials=6, seed=77, method="grid", max_depth=6)
        assert len(calls) <= 6 + 1  # the roots, then at most one call per depth below
        assert calls[0] == calls[1] == list(range(6))

    def test_grid_trial_memory_is_bounded_by_the_group(self):
        import tracemalloc

        data = Dataset(substream(78, "grid-memory").uniform(-1.0, 1.0, (2000, 2)))
        assert metrics.GRID_GROUP_ROWS // data.n >= 10  # ten trials fill one group
        measure_diameters(data, t=2, trials=1, method="grid")  # imports outside the trace
        peaks = {}
        for trials in (10, 200):
            tracemalloc.start()
            try:
                measure_diameters(data, t=2, trials=trials, seed=79, method="grid", max_depth=8)
                peaks[trials] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[200] <= 2 * peaks[10]

    @pytest.mark.parametrize("method,depth", [("grid", 8), ("voronoi-uniform", 3)])
    def test_max_depth_defaults_to_the_method_default(self, method, depth):
        # a tight cluster keeps refining down to the last level
        data, _ = sample(single(UniformBall(np.full(2, 0.3), 1e-3)), 60, seed=64)
        kwargs = {"support": Ball(np.zeros(2), 1.0), "override_m": 8} if method != "grid" else {}
        stats = [measure_diameters(data, t=2, trials=2, seed=65, method=method,
                                   max_depth=max_depth, **kwargs).to_dict()
                 for max_depth in (None, depth, depth - 1)]
        assert stats[0] == stats[1] != stats[2]

    def test_grid_bound_formula(self):
        # the level factor clamps at one level for large radii
        assert grid_diameter_bounds(2, 2, np.array([0.25, 0.9])).tolist() == pytest.approx(
            [2.0 * min(2**1.5, 4) * 0.25 * 2.0, 2.0 * min(2**1.5, 4) * 0.9 * 1.0]
        )

    @pytest.mark.parametrize("d,t", [(1, 1), (2, 2), (3, 1), (4, 2), (8, 5)])
    def test_grid_bounds_equal_the_per_point_bound_bit_for_bit(self, d, t):
        # r >= 0.5 clamps to one level; tiny and subnormal r, whose inverse
        # overflows, and r = 0 take the same path as one point at a time
        rng = np.random.default_rng(d * 10 + t)
        radii = np.concatenate([[0.0, 5e-324, 1e-310, 1e-300, 1e-12, 0.5, np.nextafter(0.5, 0),
                                 0.75, 1.0, 3.0], 10.0 ** rng.uniform(-8, 0.5, 2_000)])
        expected = [grid_diameter_bound(d, t, r) for r in radii.tolist()]
        got = grid_diameter_bounds(d, t, radii).tolist()
        assert np.array_equal(np.array(got).view(np.int64), np.array(expected).view(np.int64))
        assert grid_diameter_bounds(d, t, np.empty(0)).size == 0


def _probe_cut_probability(region, x, r_values, m, trials, seed=0, random_probes=100):
    """Reference: the probe rule ``cut_probability`` used before the margin
    rule.  Per trial and radius, the 2d axis points and ``random_probes``
    random points at distance r from x are assigned against the same m
    centers; a probe in another cell than x's is a cut, and cuts accumulate
    over the sorted radii.  Probing can only miss cuts."""
    p = np.asarray(x, dtype=float)
    rs = np.sort(np.asarray(r_values, dtype=float))
    d = p.size
    axis_dirs = np.concatenate([np.eye(d), -np.eye(d)])
    cuts = np.zeros(rs.size)
    for trial in range(trials):
        rng = substream(seed, "cut-trial", trial)
        centers = uniform_in_region(region, m, rng)
        rand = rng.standard_normal((random_probes, d))
        rand /= np.maximum(np.linalg.norm(rand, axis=1, keepdims=True), 1e-300)
        dirs = np.concatenate([axis_dirs, rand])
        pts = (p[None, None, :] + rs[:, None, None] * dirs[None, :, :]).reshape(-1, d)
        assign = voronoi_assign(centers, np.concatenate([p[None, :], pts]))
        per_r = assign[1:].reshape(rs.size, dirs.shape[0])
        cuts += np.maximum.accumulate((per_r != assign[0]).any(axis=1))
    return cuts / trials


def _margins_1d(region, x, m, trials, seed):
    """Per trial, the distance from x to the nearest midpoint between its
    nearest center and another: its cell boundary on the line."""
    out = []
    for trial in range(trials):
        centers = uniform_in_region(region, m, substream(seed, "cut-trial", trial))[:, 0]
        own = voronoi_assign(centers[:, None], np.array([[x]]))[0]
        mids = 0.5 * (centers[own] + np.delete(centers, own))
        out.append(np.abs(x - mids).min() if mids.size else np.inf)
    return np.array(out)


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

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(-0.9, 0.9), m=st.integers(1, 40), seed=st.integers(0, 2**20),
           rs=st.lists(st.floats(1e-4, 0.5), min_size=1, max_size=6))
    def test_margin_rule_equals_probes_on_the_line(self, x, m, seed, rs):
        # at d = 1 the probes x - r and x + r are the whole sphere, so the two
        # rules can differ only at a radius equal to some trial's margin
        support = Ball(np.zeros(1), 1.0)
        margins = _margins_1d(support, x, m, 20, seed)
        assume(np.abs(np.subtract.outer(rs, margins)).min() > 1e-9)
        rows = cut_probability(support, [x], rs, m=m, trials=20, seed=seed)
        ref = _probe_cut_probability(support, [x], rs, m=m, trials=20, seed=seed)
        assert [p for _, p, _ in rows] == ref.tolist()

    @pytest.mark.parametrize("d,seed", [(2, 3), (2, 4), (3, 5), (3, 6)])
    def test_margin_rule_never_below_probes(self, d, seed):
        support = Ball(np.zeros(d), 1.0)
        x = np.full(d, 0.1)
        rs = np.geomspace(1e-3, 0.1, 8)
        rows = cut_probability(support, x, rs, m=128, trials=150, seed=seed)
        ref = _probe_cut_probability(support, x, rs, m=128, trials=150, seed=seed)
        assert all(p >= q for (_, p, _), q in zip(rows, ref))

    @pytest.mark.parametrize("x,expected", [
        ([0.25, 0.0], [0.0, 0.0, 1.0]),  # margin 0.25: a ball of that radius is not cut
        ([0.5, 0.0], [1.0, 1.0, 1.0]),   # x on the bisector: every ball is cut
    ])
    def test_two_center_margin_and_tie(self, monkeypatch, x, expected):
        centers = np.array([[0.0, 0.0], [1.0, 0.0]])
        monkeypatch.setattr(metrics, "uniform_in_region", lambda region, m, rng: centers)
        rows = cut_probability(Ball(np.zeros(2), 1.0), x, [0.375, 0.125, 0.25],
                               m=2, trials=3, seed=0)
        assert [r for r, _, _ in rows] == [0.125, 0.25, 0.375]
        assert [p for _, p, _ in rows] == expected

    def test_monotone_in_r_for_unsorted_radii(self):
        support = Box(-np.ones(3), np.ones(3))
        rs = np.random.default_rng(7).uniform(1e-3, 0.3, 25)
        rows = cut_probability(support, np.zeros(3), rs, m=64, trials=100, seed=8)
        assert [r for r, _, _ in rows] == sorted(rs.tolist())
        probs = [p for _, p, _ in rows]
        assert probs == sorted(probs) and 0.0 < probs[-1]

    @pytest.mark.parametrize("kwargs", [{"m": 0}, {"trials": 0}, {"trials": -1},
                                        {"rs": [0.01, float("nan")]},
                                        {"rs": [0.01, float("inf")]}])
    def test_invalid_arguments_rejected(self, kwargs):
        args = {"m": 16, "trials": 4, "rs": [0.01]} | kwargs
        with pytest.raises(InputError):
            cut_probability(Ball(np.zeros(2), 1.0), np.zeros(2), args["rs"],
                            m=args["m"], trials=args["trials"], seed=0)


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

    def test_costs_match_dense_spanning_trees(self):
        from scipy.sparse.csgraph import minimum_spanning_tree

        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 80, seed=19)
        hist = build_shifted_grid(data, t=2, max_depth=5, seed=20)
        cmp_ = mst_compare(hist, data)
        pts = data.points
        W = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        leaf_of, geometry = _leaf_geometry(hist, pts)
        WH = _pair_matrix(geometry)[leaf_of][:, leaf_of]
        assert cmp_.actual_cost == pytest.approx(minimum_spanning_tree(W).sum(), rel=1e-12)
        assert cmp_.hist_cost == pytest.approx(minimum_spanning_tree(WH).sum(), rel=1e-12)

    def test_working_memory_is_linear_in_points(self):
        # an (n, n, d) difference tensor alone would take 128 MB here
        import tracemalloc

        data = Dataset(substream(21, "mst-memory").uniform(-1, 1, size=(2000, 4)))
        hist = build_shifted_grid(data, t=2, max_depth=8, seed=3)
        tracemalloc.start()
        try:
            mst_compare(hist, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_prim_keeps_the_tie_order_of_a_masked_scan(self):
        # the lattice's many equal distances: the key array picks each
        # vertex and edge as a scan of all keys with the tree masked does
        def masked_scan(n, weights):
            in_tree = np.zeros(n, dtype=bool)
            in_tree[0] = True
            best, best_from, cost, edges = weights(0), np.zeros(n, dtype=int), 0.0, []
            for _ in range(n - 1):
                masked = np.where(in_tree, np.inf, best)
                j = int(np.argmin(masked))
                cost += float(masked[j])
                edges.append((int(best_from[j]), j))
                in_tree[j] = True
                row = weights(j)
                best_from[row < best] = j
                best = np.minimum(best, row)
            return cost, edges

        pts = substream(23, "prim-ties").integers(0, 4, (120, 2)).astype(float)
        weights = lambda j: np.linalg.norm(pts - pts[j], axis=1)  # noqa: E731
        assert metrics._prim(len(pts), weights) == masked_scan(len(pts), weights)

    def test_needs_two_points(self):
        hist = _tiny_hist(np.array([[0.1, 0.1]]), t=2, depth=2)
        with pytest.raises(InputError):
            mst_compare(hist, Dataset(np.array([[0.1, 0.1]])))


def _reference_certificates(leaves):
    """The certificate of each Voronoi leaf, by node id, from one
    ``certify_nodes`` call over the leaves in the order given, which is the
    batch ``_leaf_geometry`` certifies when given the same leaves; a box or
    ball leaf takes none."""
    cells = [leaf for leaf in leaves if isinstance(leaf.region, VoronoiClip)]
    return dict(zip(map(id, cells), certify_nodes(cells)))


def _reference_diameter(leaf, certs):
    """A leaf's diameter, node by node: a box's or ball's own, else twice the
    certificate radius."""
    region = leaf.region
    if isinstance(region, (Box, Ball)):
        return region.diameter()
    return 2.0 * certs[id(leaf)].radius


def _reference_pair_distance(a, b, certs):
    """sup-sup distance of two leaves, pair by pair: the farthest-corner span
    of two boxes, else |p_a - p_b| + R_a + R_b over each leaf's own ball or
    its certificate."""
    ra, rb = a.region, b.region
    if isinstance(ra, Box) and isinstance(rb, Box):
        return float(np.linalg.norm(np.maximum(ra.high - rb.low, rb.high - ra.low)))
    (pa, Ra), (pb, Rb) = _reference_ball(a, certs), _reference_ball(b, certs)
    return float(np.linalg.norm(pa - pb)) + Ra + Rb


def _reference_ball(leaf, certs):
    if isinstance(leaf.region, Ball):
        return leaf.region.center, leaf.region.radius
    cert = certs[id(leaf)]
    return cert.witness, cert.radius


def _reference_pair_matrix(leaves):
    """Upper triangle pair by pair, mirrored: certificate sums are not
    bitwise symmetric, so the lower triangle copies the upper one."""
    certs = _reference_certificates(leaves)
    L = len(leaves)
    pair = np.zeros((L, L))
    for a in range(L):
        for b in range(a, L):
            pair[a, b] = pair[b, a] = _reference_pair_distance(leaves[a], leaves[b], certs)
    return pair


def _reference_rows(hist, X, Y):
    """(d_H, diam(C_x), diam(C_y)) of each row pair, pair by pair, with the
    certificates of one batch over the leaves that X and Y reach, in the
    order ``hist_distance_with_diameters`` requests them."""
    table, _, reached = _descend(hist, np.concatenate([X, Y]))
    certs = _reference_certificates([table.node(i) for i in reached.tolist()])
    lx, ly = locate_leaves(hist, X), locate_leaves(hist, Y)
    return ([_reference_pair_distance(a, b, certs) for a, b in zip(lx, ly)],
            [_reference_diameter(a, certs) for a in lx],
            [_reference_diameter(b, certs) for b in ly])


def _geometry_case(case):
    """(histogram, points) of one leaf-geometry case: mesh trees, depth-2
    Voronoi trees on ball and box roots, and single-leaf trees."""
    if case in ("cube", "grid"):
        data, _ = sample(single(UniformCube(np.zeros(4), 1.0)), 500, seed=21)
        if case == "grid":
            return build_shifted_grid(data, t=2, max_depth=8, seed=22), data.points
        return build_recursive_cube(data, t=2, max_depth=8), data.points
    shape, centers = case.split("-")
    if shape == "ball":
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=23)
        root = Ball(np.zeros(2), 1.0)
    else:
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 150, seed=25)
        root = Box(-np.ones(2), np.ones(2), closed_high=np.ones(2, dtype=bool))
    if centers == "leaf":
        return build_voronoi(data, root, t=150, max_depth=2, seed=24), data.points
    return build_voronoi(data, root, t=6, max_depth=2, method=centers, probe_samples=4_000,
                         override_m=12, seed=24), data.points


GEOMETRY_CASES = ["cube", "grid", "ball-greedy", "ball-uniform", "box-greedy", "box-uniform",
                  "ball-leaf", "box-leaf"]


@pytest.mark.parametrize("case", GEOMETRY_CASES)
class TestLeafGeometry:
    """The leaf arrays give, bit for bit, what the per-leaf and per-pair
    formulas give."""

    def test_pair_matrix_equals_pairwise_reference(self, case):
        hist, points = _geometry_case(case)
        table, _, reached = _descend(hist, points)
        leaves = [table.node(i) for i in reached.tolist()]
        if case in ("cube", "grid"):
            assert len(leaves) > 100
        if case.endswith("leaf"):
            assert leaves == [hist.root]
        else:
            assert (table.low is None) == case.startswith(("ball", "box"))
        _, geometry = _leaf_geometry(hist, points)
        assert geometry[0] == (table.low is not None)
        assert np.array_equal(_pair_matrix(geometry), _reference_pair_matrix(leaves))

    def test_diameters_equal_per_leaf_reference(self, case):
        hist, points = _geometry_case(case)
        table, _, reached = _descend(hist, points)
        diam = _diameters(*_leaf_geometry(hist, points)[1])
        leaves = [table.node(i) for i in reached.tolist()]
        certs = _reference_certificates(leaves)
        assert diam.tolist() == [_reference_diameter(leaf, certs) for leaf in leaves]

    def test_batched_distances_equal_pairwise_reference(self, case):
        hist, points = _geometry_case(case)
        idx = substream(26, "pairs").integers(0, len(points), size=(200, 2))
        X, Y = points[idx[:, 0]], points[idx[:, 1]]
        dh, dx, dy = hist_distance_with_diameters(hist, X, Y)
        assert [dh.tolist(), dx.tolist(), dy.tolist()] == list(_reference_rows(hist, X, Y))
        one = hist_distance_with_diameters(hist, X[:1], Y[:1])
        assert [v.tolist() for v in one] == list(_reference_rows(hist, X[:1], Y[:1]))
        assert hist_distance(hist, X[0], Y[0]) == one[0][0]
        assert [v.shape for v in hist_distance_with_diameters(hist, X[:0], Y[:0])] == [(0,)] * 3


def test_batched_distances_need_equal_shapes():
    hist = _tiny_hist(np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.1]]))
    with pytest.raises(InputError):
        hist_distance_with_diameters(hist, np.zeros((2, 2)), np.zeros((3, 2)))
