import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import privhist.roundness
import privhist.sanitizer
from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.errors import DegenerateGeometryError, InputError
from privhist.geometry import (Ball, Box, Dataset, VoronoiClip, VoronoiNeighbours,
                               intersection_volume_ratio, row_norms, uniform_in_region)
from privhist.rng import substream
from privhist.roundness import (
    CellKernel,
    RoundnessCertificate,
    audit_voronoi_splits,
    boundary_distances,
    certify_children,
    certify_roundness,
    check_privacy_condition,
    cover_check,
    probe_margins,
    well_spread_check,
)
from privhist.sanitizer import (
    HistogramNode,
    VoronoiSplit,
    build_recursive_cube,
    build_shifted_grid,
    build_voronoi,
    default_root_box,
)


class TestCertifyRoundness:
    def test_square_k_is_sqrt2(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        cert = certify_roundness(box, samples=512)
        assert cert.k == pytest.approx(math.sqrt(2.0), rel=0.02)
        assert np.allclose(cert.witness, [0.0, 0.0])

    def test_ball_k_near_one(self):
        cert = certify_roundness(Ball(np.zeros(3), 1.0))
        assert 1.0 <= cert.k <= 1.05

    def test_rectangle_k_is_sqrt5(self):
        # sides (1, 2): circumradius sqrt(1.25), inradius 0.5
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        cert = certify_roundness(box, samples=512)
        assert cert.k == pytest.approx(math.sqrt(5.0), rel=0.02)

    def test_certificate_balls_sandwich_voronoi_cell(self):
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 25, substream(3, "c"))
        cell = VoronoiClip(centers, 7, parent)
        cert = certify_roundness(cell)
        pts = uniform_in_region(cell, 3_000, substream(4, "p"))
        # outer ball covers the cell
        assert (np.linalg.norm(pts - cert.witness, axis=1) <= cert.radius).all()
        # inner ball lies inside the cell
        inner = uniform_in_region(Ball(cert.witness, cert.inner_radius), 3_000,
                                  substream(5, "q"))
        assert cell.contains_many(inner).all()

    def test_boundary_distances_match_membership(self):
        box = Box(np.array([-1.0, -0.5]), np.array([1.0, 0.5]))
        dirs = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        t = boundary_distances(box, box.center, dirs)
        assert t == pytest.approx([1.0, 0.5, 1.0])


class TestWellSpread:
    def test_spread_passes(self):
        assert well_spread_check(np.array([[0.0], [0.5], [1.0]]), 0.4)

    def test_spread_fails(self):
        assert not well_spread_check(np.array([[0.0], [0.5], [1.0]]), 0.6)

    def test_boundary_is_inclusive(self):
        assert well_spread_check(np.array([[0.0], [0.5]]), 0.5)


def _probe_cover(centers, region, seed, envelope):
    """Reference cover estimate: the largest nearest-center distance over
    20 000 uniform samples of the region, a lower bound on the covering
    radius."""
    X = uniform_in_region(region, 20_000, substream(seed, "probe-cover"), envelope=envelope)
    return float(cKDTree(centers).query(X)[0].max())


def _grid_cover(centers, region):
    """The largest nearest-center distance over a grid of step at most 1e-3
    on a 2-D region's bounding box, corners included, the points outside
    the region left out."""
    if isinstance(region, Box):
        low, high = region.low, region.high
    else:
        cert = certify_roundness(region)
        low, high = cert.witness - cert.radius, cert.witness + cert.radius
    axes = [np.linspace(lo, hi, int(np.ceil((hi - lo) / 1e-3)) + 1) for lo, hi in zip(low, high)]
    X = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, 2)
    if isinstance(region, Box):  # the closed high faces hold points of the closure
        X = X[((X >= region.low) & (X <= region.high)).all(axis=1)]
    else:
        X = X[region.contains_many(X)]
    return float(cKDTree(centers).query(X)[0].max())


def _criterion_04_build(d):
    """Criterion 04's first build at dimension d and seed 0."""
    data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), 150, seed=1000 * d)
    return build_voronoi(data, Ball(np.zeros(d), 1.0), t=8, max_depth=2, method="greedy",
                         probe_samples=20_000, seed=0)


class TestCoverCheck:
    def test_single_center_covers_at_full_radius(self):
        covered, worst = cover_check(np.zeros((1, 2)), Ball(np.zeros(2), 1.0), 1.0)
        assert covered and worst == 1.0

    def test_single_center_fails_at_half_radius(self):
        covered, worst = cover_check(np.zeros((1, 2)), Ball(np.zeros(2), 1.0), 0.5)
        assert not covered and worst > 0.5

    def test_grid_covering_radius(self):
        g = 0.25
        axis = np.arange(-1 + g / 2, 1, g)
        centers = np.array([[a, b] for a in axis for b in axis])
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                  closed_high=np.array([True, True]))
        covered, worst = cover_check(centers, box, g * math.sqrt(2) / 2 * 1.001)
        assert covered

    def test_interval_covering_radius(self):
        # cells [-1, -0.125] and [-0.125, 1]: the right end is 0.75 from 0.25
        covered, worst = cover_check(np.array([[-0.5], [0.25]]), Ball(np.zeros(1), 1.0), 0.5)
        assert not covered and worst == 0.75

    @pytest.mark.parametrize("d", [2, 3])
    def test_exact_r1_bounds_the_probe_estimate(self, d):
        root = _criterion_04_build(d).root
        splits = [node for node in root.walk() if isinstance(node.split, VoronoiSplit)]
        audits = audit_voronoi_splits(root)
        assert len(audits) == len(splits) >= 1
        for i, (audit, node) in enumerate(zip(audits, splits)):
            probe = _probe_cover(node.split.centers, node.region, seed=i,
                                 envelope=node.certificate.envelope)
            assert audit.r1 >= probe

    @pytest.mark.parametrize("root", ["ball", "box"])
    def test_r1_matches_a_dense_grid_scan_in_the_plane(self, root):
        region = (Ball(np.array([0.1, -0.2]), 0.5) if root == "ball"
                  else Box(np.array([-0.4, -0.3]), np.array([0.5, 0.4])))
        centers = uniform_in_region(region, 12, substream(70, root))
        covered, r1 = cover_check(centers, region, 1.0)
        grid = _grid_cover(centers, region)
        assert covered and r1 >= grid
        assert r1 == pytest.approx(grid, abs=1e-3)

    def test_a_split_of_a_voronoi_cell_reads_every_level(self):
        root = _greedy_tree()
        splits = [node for node in root.walk() if isinstance(node.split, VoronoiSplit)]
        audit, node = next((a, node) for a, node in zip(audit_voronoi_splits(root), splits)
                           if a.level == 1)
        assert isinstance(node.region, VoronoiClip)
        grid = _grid_cover(node.split.centers, node.region)
        assert audit.r1 >= grid
        assert audit.r1 == pytest.approx(grid, abs=1e-3)

    @pytest.mark.parametrize("d,m,root,tabled", [
        (2, 10, "ball", False),  # m < 8 (d + 1)
        (5, 12, "box", False),   # no table past d = 4
        (2, 60, "ball", True),
        (3, 200, "box", True),
    ])
    def test_neighbour_table_gives_the_all_bisector_radius(self, d, m, root, tabled, monkeypatch):
        region = Ball(np.zeros(d), 1.0) if root == "ball" else default_root_box(d)
        centers = uniform_in_region(region, m, substream(71, d, m))
        table = VoronoiNeighbours(centers)
        assert any(table.columns(i) is not None for i in range(m)) == tabled
        r1 = cover_check(centers, region, 1.0)[1]
        monkeypatch.setattr(VoronoiNeighbours, "columns", lambda self, i: None)
        assert cover_check(centers, region, 1.0)[1] == pytest.approx(r1, rel=1e-9)

    def test_refuses_centers_outside_the_region_or_repeated(self):
        disc = Ball(np.zeros(2), 1.0)
        with pytest.raises(InputError, match="lie in the region"):
            cover_check(np.array([[0.0, 0.0], [1.5, 0.0]]), disc, 1.0)
        with pytest.raises(InputError, match="distinct"):
            cover_check(np.array([[0.1, 0.0], [0.2, 0.3], [0.1, 0.0]]), disc, 1.0)

    def test_a_center_on_the_boundary_is_named(self):
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DegenerateGeometryError, match=r"\[-1\.0, 0\.25\]"):
            cover_check(np.array([[0.5, 0.5], [-1.0, 0.25]]), box, 1.0)


def _privacy_tree(tree):
    """(histogram, c, seed) of the two recorded privacy reports."""
    if tree == "greedy-disc":
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 300, seed=21)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=4, max_depth=2,
                             method="greedy", probe_samples=4_000, seed=22)
        return hist, 16.0, 23
    data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 200, seed=24)
    root = Box(-np.ones(3), np.ones(3), closed_high=np.ones(3, dtype=bool))
    hist = build_voronoi(data, root, t=4, max_depth=2, method="uniform",
                         override_m=24, seed=25)
    return hist, 8.0, 26


def _without_margin_shortcuts(monkeypatch):
    """Force every probe's rounding slack to infinity: no probe is skipped
    and every sample takes the membership test."""
    real = privhist.roundness.probe_margins

    def no_slack(kernel, Y, radii):
        margin, slack = real(kernel, Y, radii)
        return margin, np.full_like(slack, np.inf)

    monkeypatch.setattr(privhist.roundness, "probe_margins", no_slack)


class TestPrivacyCondition:
    def test_single_ball_nested_identity(self):
        # interior q, both balls nested: the measured ratio is c^-d
        ratio, stderr = intersection_volume_ratio(
            np.zeros(4), 0.01, 8.0, Ball(np.zeros(4), 1.0), samples=600_000, seed=5
        )
        assert abs(ratio - 8.0**-4) <= 3 * stderr

    def test_probe_classification_is_exhaustive(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 60, seed=6)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=20, max_depth=1,
                             method="greedy", probe_samples=5_000, seed=7)
        report = check_privacy_condition(hist.root, c=6.0, q_probes=4,
                                         r_grid_size=5, volume_samples=3_000,
                                         seed=8)
        total = report.containment_count + report.ratio_count + report.degenerate_count
        assert total == report.cells_checked * report.probes_per_cell
        assert 0.0 <= report.epsilon_observed <= 1.0

    def test_epsilon_decreases_with_dimension(self):
        # matched cube histograms at d=4 and d=8 with c tied to the leaf
        # roundness: the worst observed ratio must fall as d grows
        eps = {}
        for d in (4, 8):
            data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), 300, seed=9)
            hist = build_recursive_cube(data, t=3, max_depth=4)
            leaf = hist.root.leaves()[0]
            k = certify_roundness(leaf.region, samples=256).k
            report = check_privacy_condition(hist.root, c=4.0 * k * k,
                                             q_probes=4, r_grid_size=6,
                                             volume_samples=6_000, seed=10,
                                             max_cells=12)
            eps[d] = report.epsilon_observed
        assert eps[8] < eps[4]

    def test_requires_c_above_one(self):
        data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 40, seed=11)
        hist = build_recursive_cube(data, t=2, max_depth=2)
        with pytest.raises(InputError):
            check_privacy_condition(hist.root, c=1.0)

    def test_single_node_tree_is_its_own_parent(self):
        data, _ = sample(single(UniformBall(np.zeros(3), 1.0)), 3, seed=12)
        hist = build_voronoi(data, Ball(np.zeros(3), 1.0), t=5, max_depth=2,
                             method="greedy", probe_samples=2_000, seed=13)
        assert hist.root.is_leaf()
        report = check_privacy_condition(hist.root, c=8.0, q_probes=3,
                                         r_grid_size=4, volume_samples=2_000,
                                         seed=14)
        assert report.cells_checked == 1
        total = report.containment_count + report.ratio_count + report.degenerate_count
        assert total == report.probes_per_cell

    @pytest.mark.parametrize("tree", ["greedy-disc", "uniform-box"])
    def test_reports_match_recorded_values(self, tree, monkeypatch):
        # values recorded with every probe sampled: skipping the probes
        # that miss the cell must leave every count and ratio as it was
        hist, c, seed = _privacy_tree(tree)
        if tree == "greedy-disc":
            expected = {"containment_count": 164, "ratio_count": 285,
                        "degenerate_count": 511, "epsilon_observed": 0.21518987341772153}
        else:
            expected = {"containment_count": 160, "ratio_count": 182,
                        "degenerate_count": 618, "epsilon_observed": 0.09090909090909091}
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return intersection_volume_ratio(*args, **kwargs)

        monkeypatch.setattr(privhist.roundness, "intersection_volume_ratio", counted)
        report = check_privacy_condition(hist.root, c=c, q_probes=4, r_grid_size=6,
                                         volume_samples=3_000, seed=seed,
                                         max_cells=40)
        assert report.to_dict() == {"cells_checked": 40, "probes_per_cell": 24, "c": c,
                                    **expected}
        # most degenerate probes are decided without sampling
        assert report.ratio_count <= len(calls) < report.ratio_count + report.degenerate_count / 2

    @pytest.mark.parametrize("tree", ["greedy-disc", "uniform-box"])
    def test_margin_shortcuts_leave_the_report_unchanged(self, tree, monkeypatch):
        hist, c, seed = _privacy_tree(tree)
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=3_000, seed=seed,
                      max_cells=40)
        tested = []
        membership = VoronoiClip.contains_many

        def counted(self, X):
            tested.append(len(X))
            return membership(self, X)

        monkeypatch.setattr(VoronoiClip, "contains_many", counted)
        report = check_privacy_condition(hist.root, **kwargs)
        shortcut_rows = sum(tested)
        tested.clear()
        _without_margin_shortcuts(monkeypatch)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()
        assert shortcut_rows < 0.9 * sum(tested)

    def test_containment_is_decided_before_separation(self, monkeypatch):
        # witnesses far from every cell, and a parent certificate small
        # enough that probes both pass the containment test and miss the
        # leaf: they must count as containment, as when every probe is sampled
        root = HistogramNode(region=Ball(np.zeros(2), 1.0))
        centers = uniform_in_region(root.region, 8, substream(27, "c"))
        root.divide(VoronoiSplit(centers), [1] * 8)
        far = np.array([10.0, 0.0])

        def certify(nodes):
            return [RoundnessCertificate(1.0, 1e-3 if node is root else 1.0, far)
                    for node in nodes]

        monkeypatch.setattr(privhist.sanitizer, "certify_nodes", certify)
        kwargs = dict(c=16.0, q_probes=4, r_grid_size=6, volume_samples=1_000, seed=28)
        report = check_privacy_condition(root, **kwargs)
        _without_margin_shortcuts(monkeypatch)
        sampled = check_privacy_condition(root, **kwargs)
        assert report.to_dict() == sampled.to_dict()
        assert 0 < report.containment_count < report.cells_checked * report.probes_per_cell


class TestSplitAudits:
    def test_greedy_split_satisfies_cover_spread_consequence(self):
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=12)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=8, max_depth=2,
                             method="greedy", probe_samples=15_000, seed=13)
        audits = audit_voronoi_splits(hist.root)
        assert audits
        for audit in audits:
            assert max(audit.child_ks) <= audit.cover_spread_bound()

    def test_greedy_roundness_recurrence(self):
        # level-l cells certify k_l <= 4^l * k_root * 1.1
        data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 250, seed=15)
        hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=6, max_depth=2,
                             method="greedy", probe_samples=15_000, seed=16)
        k_root = hist.root.certificate.k
        audits = audit_voronoi_splits(hist.root)
        seen_levels = set()
        for audit in audits:
            child_level = audit.level + 1
            seen_levels.add(child_level)
            assert max(audit.child_ks) <= 4.0**child_level * k_root * 1.1
        assert 1 in seen_levels

    @pytest.mark.parametrize("root", ["ball", "box"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_certificates_match_single(self, root, d):
        # every cell of a two-level split, certified alone and in one
        # batch in shuffled order
        parent = Ball(np.zeros(d), 1.0) if root == "ball" else default_root_box(d)
        first = uniform_in_region(parent, 6, substream(19, "c", d))
        parent = VoronoiClip(first, 2, parent)
        centers = uniform_in_region(parent, 12, substream(20, "c", d))
        order = substream(21, "order", d).permutation(12)
        batch = dict(zip(order.tolist(), certify_children(parent, centers, order)))
        for i in range(centers.shape[0]):
            solo = certify_roundness(VoronoiClip(centers, i, parent))
            assert solo.k == pytest.approx(batch[i].k, rel=1e-12)
            assert solo.radius == pytest.approx(batch[i].radius, rel=1e-12)
            assert np.allclose(solo.witness, batch[i].witness, rtol=1e-12, atol=0.0)


def _greedy_tree():
    """A depth-3 greedy Voronoi tree in the unit disc whose leaves sit at
    levels 1 to 3."""
    data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 300, seed=61)
    return build_voronoi(data, Ball(np.zeros(2), 1.0), t=4, max_depth=3, method="greedy",
                         probe_samples=3_000, seed=62).root


def _grid_tree():
    """A depth-5 shifted grid at d = 3 on data crowding the origin."""
    rng = np.random.default_rng(63)
    X = rng.uniform(-1.0, 1.0, (300, 3)) * rng.uniform(0.0, 1.0, (300, 1)) ** 2
    return build_shifted_grid(Dataset(X), t=2, max_depth=5, seed=64).root


class _Stop(Exception):
    """Raised by a spy once it has recorded its call."""


def _stop_at_certify(monkeypatch):
    """Make the next ``certify_nodes`` call record its nodes and raise
    ``_Stop``; returns the record."""
    seen = []

    def spy(batch):
        seen.extend(batch)
        raise _Stop

    monkeypatch.setattr(privhist.sanitizer, "certify_nodes", spy)
    return seen


class TestWalkOrder:
    """The privacy check's i-th (leaf, parent) pair, whose seed is drawn by
    position, and the audits' i-th split are the i-th of their kind in walk
    order."""

    TREES = {"greedy-depth-3": _greedy_tree, "grid-depth-5-d3": _grid_tree}

    @pytest.mark.parametrize("tree", TREES)
    def test_privacy_check_certifies_leaf_parent_pairs_in_walk_order(self, tree, monkeypatch):
        root = self.TREES[tree]()
        nodes = list(root.walk())
        leaves = [node for node in nodes if node.is_leaf()]
        parent_of = {id(child): node for node in nodes for child in node.children}
        first_leaf = next(i for i, node in enumerate(nodes) if node.is_leaf())
        assert any(node.split is not None for node in nodes[first_leaf:])  # interleaved
        assert len({leaf.level for leaf in leaves}) > 1
        certified = _stop_at_certify(monkeypatch)
        with pytest.raises(_Stop):
            check_privacy_condition(root, c=8.0)
        assert len(certified) == 2 * len(leaves)
        assert all(got is leaf for got, leaf in zip(certified[0::2], leaves))
        assert all(got is parent_of[id(leaf)] for got, leaf in zip(certified[1::2], leaves))

    def test_a_root_leaf_is_its_own_parent(self, monkeypatch):
        root = HistogramNode(region=Ball(np.zeros(2), 1.0), count=3)
        certified = _stop_at_certify(monkeypatch)
        with pytest.raises(_Stop):
            check_privacy_condition(root, c=8.0)
        assert len(certified) == 2 and certified[0] is root and certified[1] is root

    def test_audits_follow_walk_order(self, monkeypatch):
        root = _greedy_tree()
        splits = [node for node in root.walk() if isinstance(node.split, VoronoiSplit)]
        kernels = []

        def cover(kernel):
            kernels.append(kernel)
            return 0.5

        monkeypatch.setattr(privhist.roundness, "_cover_radius", cover)
        audits = audit_voronoi_splits(root)
        assert len(audits) == len(kernels) == len(splits) > 2
        # each split's own centers, read with the table its children share
        assert all(k.levels[0][0] is node.split.centers and k.tables[0] is node.split.neighbours
                   for k, node in zip(kernels, splits))
        assert [a.level for a in audits] == [node.level for node in splits]
        assert [a.child_ks for a in audits] == [
            [child.certificate.k for child in node.children] for node in splits]
        assert audit_voronoi_splits(_grid_tree()) == []


# ---------------------------------------------------------------------------
# the convex-cell kernel, against membership and explicit hyperplanes


def _centers_in(region, m, snap, rng):
    """Up to m distinct centers inside the region; at least two."""
    X = uniform_in_region(region, m, rng)
    if snap:
        X = np.concatenate([np.round(X * 8.0) / 8.0, X])  # the grid gives exact ties
    X = X[region.contains_many(X)]
    _, first = np.unique(X, axis=0, return_index=True)
    return X[np.sort(first)][:m]


def _two_level_split(kind, d, snap, seed):
    """A level-one cell of a ball or box root and the centers that split it."""
    rng = np.random.default_rng(seed)
    if kind == "ball":
        root = Ball(np.zeros(d), 1.0)
    else:
        root = Box(-np.ones(d), np.ones(d), closed_high=rng.random(d) < 0.5)
    outer = _centers_in(root, int(rng.integers(3, 9)), snap, rng)
    cell = VoronoiClip(outer, int(rng.integers(outer.shape[0])), root)
    return root, cell, _centers_in(cell, int(rng.integers(2, 7)), snap, rng), rng


def _probe_points(root, cell, centers, rng):
    """Uniform points around the root, centers, center midpoints (exactly on
    a bisector when the centers are on a grid), points projected onto
    bisectors, and points on the root's faces or sphere."""
    d = root.dim
    X = [rng.uniform(-1.3, 1.3, (150, d))]
    for c in (centers, cell.centers):
        i, j = np.triu_indices(c.shape[0], k=1)
        y = rng.uniform(-1.0, 1.0, (i.size, d))
        n = c[j] - c[i]
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        mid = 0.5 * (c[i] + c[j])
        X += [c, mid, y - ((y - mid) * n).sum(axis=1, keepdims=True) * n]
    if isinstance(root, Box):
        faces = rng.uniform(-1.0, 1.0, (40, d))
        axis = rng.integers(d, size=40)
        faces[np.arange(40), axis] = np.where(rng.random(40) < 0.5, root.low[axis],
                                              root.high[axis])
        X.append(faces)
    else:
        X.append(np.concatenate([np.eye(d), -np.eye(d)]))  # exactly on the sphere
    return np.concatenate(X)


def _explicit_constraints(region, X):
    """Margins (n, K) and unit inward normals (n, K, d) of every constraint,
    from explicit hyperplanes and the root."""
    margins, normals = [], []
    node = region
    while isinstance(node, VoronoiClip):
        own = node.own_center
        for j, c in enumerate(node.centers):
            if j != node.own_index:
                n = (own - c) / np.linalg.norm(own - c)
                margins.append((X - 0.5 * (own + c)) @ n)
                normals.append(np.broadcast_to(n, X.shape))
        node = node.parent
    if isinstance(node, Ball):
        rel = X - node.center
        dist = np.linalg.norm(rel, axis=1)
        margins.append(node.radius - dist)
        normals.append(-rel / np.maximum(dist, 1e-300)[:, None])
    else:
        for axis in range(node.dim):
            e = np.eye(node.dim)[axis]
            margins += [X[:, axis] - node.low[axis], node.high[axis] - X[:, axis]]
            normals += [np.broadcast_to(e, X.shape), np.broadcast_to(-e, X.shape)]
    return np.stack(margins, axis=1), np.stack(normals, axis=1)


split_cases = given(st.sampled_from(["ball", "box"]), st.sampled_from([2, 3]), st.booleans(),
                    st.integers(0, 100_000))


@split_cases
@settings(max_examples=40, deadline=None)
def test_kernel_margin_sign_agrees_with_membership(kind, d, snap, seed):
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    X = _probe_points(root, cell, centers, rng)
    for own in range(centers.shape[0]):
        child = VoronoiClip(centers, own, cell)
        margin = CellKernel.of(child, X.shape[0]).min_margin(X)[0]
        inside = child.contains_many(X)
        assert inside[margin > 0].all()
        assert (margin[inside] >= 0).all()
    # sibling cells read jointly: row b of Y against cell own[b]
    own = rng.integers(centers.shape[0], size=X.shape[0])
    joint = CellKernel(cell, own, centers).min_margin(X)[0]
    for b in range(centers.shape[0]):
        rows = own == b
        inside = VoronoiClip(centers, b, cell).contains_many(X[rows])
        assert inside[joint[rows] > 0].all()
        assert (joint[rows][inside] >= 0).all()


@split_cases
@settings(max_examples=40, deadline=None)
def test_kernel_margins_match_explicit_hyperplanes(kind, d, snap, seed):
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    X = _probe_points(root, cell, centers, rng)
    for own in range(centers.shape[0]):
        child = VoronoiClip(centers, own, cell)
        kernel = CellKernel.of(child, X.shape[0])
        margins, normals = _explicit_constraints(child, X)
        ref = margins.min(axis=1)
        margin, normal = kernel.min_margin(X)
        assert np.abs(margin - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
        # the normal is that of a constraint attaining the minimum
        attains = margins <= ref[:, None] + 1e-12
        match = np.abs(normals - normal[:, None, :]).max(axis=2) <= 1e-9
        assert (attains & match).any(axis=1).all()
        # the bundle is the mean normal of the constraints near the minimum
        cutoff = ref + 0.0371
        near = margins <= cutoff[:, None]
        total = (near[:, :, None] * normals).sum(axis=1)
        norm = np.linalg.norm(total, axis=1)
        ok = norm > 1e-6
        bundle = kernel.bundle(X, cutoff)
        assert np.abs(bundle[ok] - total[ok] / norm[ok, None]).max() <= 1e-9


@split_cases
@settings(max_examples=40, deadline=None)
def test_kernel_exits_are_exact(kind, d, snap, seed):
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    X = _probe_points(root, cell, centers, rng)
    dirs = np.concatenate([np.eye(d), -np.eye(d), rng.standard_normal((12, d))])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for own in range(centers.shape[0]):
        child = VoronoiClip(centers, own, cell)
        starts = X[child.contains_many(X)]  # interior points and boundary ties
        if starts.shape[0] == 0:
            continue
        kernel = CellKernel.of(child, starts.shape[0])
        t = kernel.exits(starts, dirs)
        assert np.isfinite(t).all() and (t >= 0).all()
        # from a boundary tie, a step along the tied face is lost in rounding
        interior = kernel.min_margin(starts)[0] > 1e-3
        P, t = starts[interior][:, None, :], t[interior]
        before = (P + (t * (1 - 1e-9))[:, :, None] * dirs).reshape(-1, d)
        after = (P + (t * (1 + 1e-9))[:, :, None] * dirs).reshape(-1, d)
        assert child.contains_many(before).all()
        assert not child.contains_many(after).any()


def test_kernel_exit_along_a_bisector_through_a_tie():
    # (0, 0) ties between the two centers and belongs to cell 0; moving along
    # the bisector the cell never leaves it, so the exit is the root's face
    root = Box(-np.ones(2), np.ones(2), closed_high=np.array([True, True]))
    cell = VoronoiClip(np.array([[-0.5, 0.0], [0.5, 0.0]]), 0, root)
    t = CellKernel.of(cell, 1).exits(np.zeros((1, 2)), np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert t.tolist() == [[1.0, 1.0]]


# ---------------------------------------------------------------------------
# probes that miss the cell, decided without sampling


def _shifted(region, offset):
    if isinstance(region, VoronoiClip):
        return VoronoiClip(region.centers + offset, region.own_index,
                           _shifted(region.parent, offset))
    if isinstance(region, Ball):
        return Ball(region.center + offset, region.radius)
    return Box(region.low + offset, region.high + offset, closed_high=region.closed_high)


@given(st.sampled_from(["ball", "box"]), st.sampled_from([2, 3]), st.booleans(),
       st.sampled_from([0.0, 1e7]), st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_missed_probes_would_find_no_sample(kind, d, snap, offset, seed):
    # far from the origin the scores round coarsely and membership blurs
    # across a bisector: the slack must keep such probes sampled
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    leaf = VoronoiClip(centers, int(rng.integers(centers.shape[0])), cell)
    if offset:  # one level: the shifted outer cell may lose its own center
        leaf = _shifted(VoronoiClip(centers, leaf.own_index, root), offset)
    qs = offset + rng.uniform(-1.5, 1.5, (6, d))
    kernel = CellKernel.of(leaf, 1)
    c = 4.0
    for i, q in enumerate(qs):
        sep = -kernel.min_margin(q[None, :])[0][0]
        if sep <= 0:
            continue
        for factor in (1.0 - 1e-9, 1.0 + 1e-9, rng.uniform(0.3, 1.0)):
            r = sep * factor / c
            margin, slack = probe_margins(kernel, q[None, :], np.array([c * r]))
            if -margin[0] > c * r + slack[0, 0]:
                with pytest.raises(DegenerateGeometryError):
                    intersection_volume_ratio(q, r, c, leaf, samples=2_000, seed=seed + i)


@given(st.sampled_from(["ball", "box"]), st.sampled_from([2, 3]), st.booleans(),
       st.sampled_from([0.0, 1e7]), st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_margin_decided_samples_agree_with_membership(kind, d, snap, offset, seed):
    # samples at 1 +- 1e-9 times the probe's margin from it, along the
    # normal of the constraint that attains the margin and along random
    # directions, straddle the cell's boundary: every sample the margin
    # decides must get the same answer from the membership test
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    leaf = VoronoiClip(centers, int(rng.integers(centers.shape[0])), cell)
    if offset:  # one level: the shifted outer cell may lose its own center
        leaf = _shifted(VoronoiClip(centers, leaf.own_index, root), offset)
    qs = offset + rng.uniform(-1.5, 1.5, (6, d))
    kernel = CellKernel.of(leaf, 1)
    c = 4.0
    for i, q in enumerate(qs):
        m, normal = kernel.min_margin(q[None, :])
        if m[0] == 0:  # on a boundary: no step length to scale
            continue
        dirs = np.concatenate([normal, -normal, rng.standard_normal((16, d))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        steps = abs(m[0]) * np.concatenate([[1.0 - 1e-9, 1.0 + 1e-9],
                                            rng.uniform(0.0, 1.5, 6)])
        S = (q + steps[:, None, None] * dirs).reshape(-1, d)
        dist = row_norms(S - q)
        radius = 1.5 * abs(m[0])
        margin, slack = probe_margins(kernel, q[None, :], np.array([radius]))
        inside = dist < margin[0] - slack[0, 0]
        outside = dist < -margin[0] - slack[0, 0]
        member = leaf.contains_many(S)
        assert member[inside].all() and not member[outside].any()
        # the estimator's counts are those of testing every sample
        results = []
        for shortcut in (True, False):
            with pytest.MonkeyPatch.context() as mp:
                if not shortcut:
                    _without_margin_shortcuts(mp)
                try:
                    results.append(intersection_volume_ratio(q, radius / c, c, leaf,
                                                             samples=2_000, seed=seed + i))
                except DegenerateGeometryError:
                    results.append("degenerate")
        assert results[0] == results[1]


@pytest.mark.parametrize("d", range(1, 11))
def test_kernel_spans_equal_cdist(d):
    # the bisector spans are summed one axis at a time, as cdist sums them
    from scipy.spatial.distance import cdist

    rng = np.random.default_rng(d)
    for scale in (1e-3, 1.0, 1e3):
        centers = scale * rng.uniform(-1.0, 1.0, (300, d))
        own = rng.integers(0, 300, size=40)
        span = CellKernel(Ball(np.zeros(d), 1e9), own, centers).levels[0][2]
        expected = 2.0 * cdist(centers[own], centers)
        expected[np.arange(own.size), own] = np.inf
        assert np.array_equal(span, expected)
