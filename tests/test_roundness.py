import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import privhist.roundness
import privhist.sanitizer
from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.documents import histogram_from_doc, histogram_to_doc
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
    certify_nodes,
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


def _audit_certificates(splits):
    """(parents, children): the certificate of each split node, and of each
    of its children, from one ``certify_nodes`` call over the nodes that
    ``audit_voronoi_splits`` requests, in its order."""
    certs = certify_nodes(splits + [ch for node in splits for ch in node.children])
    rest = iter(certs[len(splits):])
    return certs[:len(splits)], [[next(rest) for _ in node.children] for node in splits]


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
        certs, _ = _audit_certificates(splits)
        for i, (audit, node, cert) in enumerate(zip(audits, splits, certs)):
            probe = _probe_cover(node.split.centers, node.region, seed=i,
                                 envelope=cert.envelope)
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

    @pytest.mark.parametrize("centers,closed", [
        ([[0.5, 0.5], [-1.0, 0.25]], False),
        ([[-1.0, -0.75], [0.3, 0.2], [0.5, -0.6], [-0.2, 0.7]], True),
    ])
    def test_a_center_on_the_box_boundary_gets_the_exact_radius(self, centers, closed):
        # qhull refuses a center on a face as its interior point and starts
        # from the cell's Chebyshev centre instead
        box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                  closed_high=np.array([closed, closed]))
        covered, r1 = cover_check(np.array(centers), box, 10.0)
        grid = _grid_cover(np.array(centers), box)
        assert covered and r1 >= grid
        assert r1 == pytest.approx(grid, abs=1e-3)
        if closed:  # the farthest vertex is a grid point
            assert r1 == grid == 1.063014581273465

    def test_a_center_on_the_ball_boundary_gets_a_sound_radius(self):
        centers = np.array([[1.0, 0.0], [0.0, 0.3], [-0.5, -0.2]])
        disc = Ball(np.zeros(2), 1.0)
        covered, r1 = cover_check(centers, disc, 10.0)
        grid = _grid_cover(centers, disc)
        assert covered and r1 >= grid
        assert r1 == pytest.approx(grid, abs=1e-3)


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


def _count_probes(monkeypatch):
    """Record (q, r) of every ``intersection_volume_ratio`` call the check makes."""
    calls = []

    def counted(q, r, *args, **kwargs):
        calls.append((tuple(q), r))
        return intersection_volume_ratio(q, r, *args, **kwargs)

    monkeypatch.setattr(privhist.roundness, "intersection_volume_ratio", counted)
    return calls


def _membership_rows(monkeypatch):
    """Record the row count of every ``VoronoiClip.contains_many`` call."""
    tested = []
    membership = VoronoiClip.contains_many

    def counted(self, X):
        tested.append(len(X))
        return membership(self, X)

    monkeypatch.setattr(VoronoiClip, "contains_many", counted)
    return tested


def _far_witness_check(monkeypatch):
    """A split of the unit disc into 8 cells whose certificates put every
    witness far outside it, and the parent's radius small enough that
    probes both pass the containment test and miss the leaf; no probe is
    sampled.  Returns the root and the check's arguments."""
    root = HistogramNode(region=Ball(np.zeros(2), 1.0))
    centers = uniform_in_region(root.region, 8, substream(27, "c"))
    root.divide(VoronoiSplit(centers), [1] * 8)
    far = np.array([10.0, 0.0])

    def certify(nodes):
        return [RoundnessCertificate(1.0, 1e-3 if node is root else 1.0, far)
                for node in nodes]

    monkeypatch.setattr(privhist.sanitizer, "certify_nodes", certify)
    return root, dict(c=16.0, q_probes=4, r_grid_size=6, volume_samples=1_000, seed=28)


def _pool_probes_first(monkeypatch, probe=intersection_volume_ratio):
    """Patch the check's ``intersection_volume_ratio`` with ``probe``, made to
    hold the calling thread (10 s at most in all) until a pool thread has
    taken a probe.  Returns the idents of the threads that took one."""
    threads = set()
    pooled = threading.Event()

    def patched(*args, **kwargs):
        threads.add(threading.get_ident())
        if threading.current_thread() is threading.main_thread():
            pooled.wait(10)
        pooled.set()
        return probe(*args, **kwargs)

    monkeypatch.setattr(privhist.roundness, "intersection_volume_ratio", patched)
    return threads


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
        calls = _count_probes(monkeypatch)
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=3_000, seed=seed,
                      max_cells=40)
        report = check_privacy_condition(hist.root, **kwargs)
        assert report.to_dict() == {"cells_checked": 40, "probes_per_cell": 24, "c": c,
                                    **expected}
        # most degenerate probes are decided without sampling
        assert report.ratio_count <= len(calls) < report.ratio_count + report.degenerate_count / 2
        # each sampled (q, r) once, in any order across threads
        assert len(set(calls)) == len(calls)
        threaded = sorted(calls)
        calls.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()
        assert sorted(calls) == threaded
        # on one core, in row-major order: each probe's radii ascending, one probe at a time
        runs = [q for i, (q, _) in enumerate(calls) if i == 0 or q != calls[i - 1][0]]
        assert len(set(runs)) == len(runs) < len(calls)
        assert all(r < s for (q, r), (p, s) in zip(calls, calls[1:]) if q == p)

    @pytest.mark.parametrize("tree", ["greedy-disc", "uniform-box"])
    def test_one_core_and_four_give_the_same_report(self, tree, monkeypatch):
        hist, c, seed = _privacy_tree(tree)
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=3_000, seed=seed,
                      max_cells=40)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        report = check_privacy_condition(hist.root, **kwargs)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        threads = _pool_probes_first(monkeypatch)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()
        assert len(threads) > 1

    def test_one_core_or_no_sampled_probe_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        with pytest.MonkeyPatch.context() as mp:
            root, kwargs = _far_witness_check(mp)
            assert check_privacy_condition(root, **kwargs).ratio_count == 0
        assert started == []
        hist, c, seed = _privacy_tree("greedy-disc")
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=1_000, seed=seed,
                      max_cells=8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert check_privacy_condition(hist.root, **kwargs).ratio_count > 0
        assert started == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        check_privacy_condition(hist.root, **kwargs)
        assert len(started) == 1

    def test_probes_read_their_row_of_the_leaf_margins(self, monkeypatch):
        # one kernel per checked leaf, of q_probes rows; no probe builds its own
        hist, c, seed = _privacy_tree("greedy-disc")
        rows = []
        of = CellKernel.of.__func__

        def counted(cls, region, n):
            rows.append(n)
            return of(cls, region, n)

        monkeypatch.setattr(CellKernel, "of", classmethod(counted))
        report = check_privacy_condition(hist.root, c=c, q_probes=4, r_grid_size=6,
                                         volume_samples=1_000, seed=seed, max_cells=8)
        assert report.ratio_count > 0 and rows == [4] * 8

    def test_tables_are_built_before_the_probes_fan_out(self, monkeypatch):
        # a tree read back from its document has built no Delaunay table yet
        hist, c, seed = _privacy_tree("greedy-disc")
        root = histogram_from_doc(histogram_to_doc(hist)).root
        on_caller = []
        build = VoronoiNeighbours._build

        def recorded(table):
            on_caller.append(threading.current_thread() is threading.main_thread())
            build(table)

        monkeypatch.setattr(VoronoiNeighbours, "_build", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        _pool_probes_first(monkeypatch)
        check_privacy_condition(root, c=c, q_probes=4, r_grid_size=6, volume_samples=3_000,
                                seed=seed, max_cells=40)
        assert len(on_caller) > 1 and all(on_caller)

    def test_every_probe_runs_once_on_more_threads_than_cores(self, monkeypatch):
        # a short switch interval: a probe taken twice or never, or a result
        # written to another probe's slot, breaks the list
        taken = []

        def ratio(q, r, c, region, samples, seed, margin):
            taken.append(seed)
            if seed % 7 == 0:
                raise DegenerateGeometryError("no sample in the cell")
            return seed / 2.0, 0.0

        monkeypatch.setattr(privhist.roundness, "intersection_volume_ratio", ratio)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        probes = [(None, None, None, j, None) for j in range(2_000)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            ratios = privhist.roundness._volume_ratios(probes, 2.0, 10)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == list(range(2_000))
        assert ratios == [None if j % 7 == 0 else j / 2.0 for j in range(2_000)]

    def test_probe_threads_end_with_the_call(self, monkeypatch):
        # on success and when a worker's probe raises, which the caller re-raises
        hist, c, seed = _privacy_tree("greedy-disc")
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=1_000, seed=seed,
                      max_cells=8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        before = threading.active_count()
        report = check_privacy_condition(hist.root, **kwargs)
        assert threading.active_count() == before

        on_caller = []

        def explode(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("boom")
            on_caller.append(args)
            return intersection_volume_ratio(*args, **kwargs)

        _pool_probes_first(monkeypatch, explode)
        with pytest.raises(RuntimeError, match="boom"):
            check_privacy_condition(hist.root, **kwargs)
        assert threading.active_count() == before
        # the caller stops at its next probe, far short of the rest
        assert len(on_caller) < 5 < report.ratio_count

    @pytest.mark.parametrize("tree", ["greedy-disc", "uniform-box"])
    def test_margin_shortcuts_leave_the_report_unchanged(self, tree, monkeypatch):
        hist, c, seed = _privacy_tree(tree)
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=3_000, seed=seed,
                      max_cells=40)
        tested = _membership_rows(monkeypatch)
        report = check_privacy_condition(hist.root, **kwargs)
        shortcut_rows = sum(tested)
        tested.clear()
        _without_margin_shortcuts(monkeypatch)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()
        assert shortcut_rows < 0.9 * sum(tested)

    def test_outer_ball_halves_the_membership_rows(self, monkeypatch):
        # counted, not timed: rows that reach the membership test with the
        # outer ball, and with only the margin rule
        hist, c, seed = _privacy_tree("greedy-disc")
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=3_000, seed=seed,
                      max_cells=40)
        tested = _membership_rows(monkeypatch)
        report = check_privacy_condition(hist.root, **kwargs)
        outer_rows = sum(tested)
        tested.clear()
        monkeypatch.setattr(privhist.roundness, "_outer_ball", lambda *args: None)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()
        assert 0 < outer_rows <= 0.5 * sum(tested)

    def test_outer_ball_is_read_once_per_sampled_leaf_up_to_four_dimensions(self, monkeypatch):
        # from the leaf's own kernel, on the caller; none above d = 4
        balls = []
        outer_ball = privhist.roundness._outer_ball

        def recorded(kernel, witness, slack):
            balls.append((kernel, threading.current_thread() is threading.main_thread()))
            return outer_ball(kernel, witness, slack)

        monkeypatch.setattr(privhist.roundness, "_outer_ball", recorded)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        calls = _count_probes(monkeypatch)
        hist, c, seed = _privacy_tree("greedy-disc")
        check_privacy_condition(hist.root, c=c, q_probes=4, r_grid_size=6,
                                volume_samples=1_000, seed=seed, max_cells=8)
        assert 0 < len(balls) <= 8 and all(on_caller for _, on_caller in balls)
        assert all(kernel.rows.size == 4 for kernel, _ in balls) and calls
        balls.clear()
        calls.clear()
        data, _ = sample(single(UniformBall(np.zeros(5), 1.0)), 200, seed=31)
        hist = build_voronoi(data, Ball(np.zeros(5), 1.0), t=4, max_depth=1,
                             method="uniform", override_m=12, seed=32)
        check_privacy_condition(hist.root, c=16.0, q_probes=4, r_grid_size=6,
                                volume_samples=500, seed=33, max_cells=4)
        assert calls and balls == []

    def test_a_cell_qhull_cannot_bound_keeps_the_margin_path(self, monkeypatch):
        hist, c, seed = _privacy_tree("greedy-disc")
        kwargs = dict(c=c, q_probes=4, r_grid_size=6, volume_samples=1_000, seed=seed,
                      max_cells=8)
        report = check_privacy_condition(hist.root, **kwargs)

        def fail(kernel, b, around):
            raise DegenerateGeometryError("qhull cannot bound the cell")

        monkeypatch.setattr(CellKernel, "vertices", fail)
        assert check_privacy_condition(hist.root, **kwargs).to_dict() == report.to_dict()

    def test_a_leaf_whose_center_is_on_the_root_boundary_gets_an_outer_ball(self, monkeypatch):
        # the leaf of [-1, -0.75], on the box's low face: qhull refuses that
        # center and bounds the cell from its Chebyshev centre, and the ball
        # moves no count of the report
        root, cell, centers, _ = _two_level_split("box", 2, True, 0)
        assert centers[0].tolist() == [-1.0, -0.75]
        node = HistogramNode(region=root, count=cell.centers.shape[0] - 1 + centers.shape[0])
        node.divide(VoronoiSplit(cell.centers),
                    [centers.shape[0] if k == cell.own_index else 1
                     for k in range(cell.centers.shape[0])])
        node.child(cell.own_index).divide(VoronoiSplit(centers), [1] * centers.shape[0])
        balls = {}
        outer_ball = privhist.roundness._outer_ball

        def recorded(kernel, witness, slack):
            own = kernel.levels[0][0][kernel.levels[0][1][0]]
            balls[tuple(own)] = outer_ball(kernel, witness, slack)
            return balls[tuple(own)]

        monkeypatch.setattr(privhist.roundness, "_outer_ball", recorded)
        kwargs = dict(c=8.0, q_probes=4, r_grid_size=6, volume_samples=2_000, seed=5)
        report = check_privacy_condition(node, **kwargs)
        assert balls[(-1.0, -0.75)] is not None
        monkeypatch.setattr(privhist.roundness, "_outer_ball", lambda *args: None)
        assert check_privacy_condition(node, **kwargs).to_dict() == report.to_dict()

    def test_containment_is_decided_before_separation(self, monkeypatch):
        # witnesses far from every cell, and a parent certificate small
        # enough that probes both pass the containment test and miss the
        # leaf: they must count as containment, as when every probe is sampled
        root, kwargs = _far_witness_check(monkeypatch)
        report = check_privacy_condition(root, **kwargs)
        _without_margin_shortcuts(monkeypatch)
        sampled = check_privacy_condition(root, **kwargs)
        assert report.to_dict() == sampled.to_dict()
        assert 0 < report.containment_count < report.cells_checked * report.probes_per_cell

    def test_a_check_makes_nodes_only_for_the_cells_it_checks(self):
        # one split of 256 cells: only the first max_cells leaves, in walk
        # order, get a node, and their parent is the root
        root = HistogramNode(region=Ball(np.zeros(2), 1.0))
        centers = uniform_in_region(root.region, 256, substream(29, "c"))
        root.divide(VoronoiSplit(centers), [1] * 256)
        report = check_privacy_condition(root, c=8.0, q_probes=2, r_grid_size=2,
                                         volume_samples=500, seed=30, max_cells=3)
        assert report.cells_checked == 3
        assert sorted(root._kids) == [0, 1, 2]


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
        audits = audit_voronoi_splits(hist.root)
        splits = [node for node in hist.root.walk() if isinstance(node.split, VoronoiSplit)]
        k_root = _audit_certificates(splits)[0][0].k
        seen_levels = set()
        for audit in audits:
            child_level = audit.level + 1
            seen_levels.add(child_level)
            assert max(audit.child_ks) <= 4.0**child_level * k_root * 1.1
        assert 1 in seen_levels

    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_splits_below_the_root_at_d3(self, seed):
        # criterion 04's d = 3 builds split only their root; these 800-row
        # builds also split level-1 cells, whose parent is a Voronoi cell
        data, _ = sample(single(UniformBall(np.zeros(3), 1.0)), 800, seed=40 + seed)
        hist = build_voronoi(data, Ball(np.zeros(3), 1.0), t=8, max_depth=2,
                             method="greedy", probe_samples=20_000, seed=50 + seed)
        audits = audit_voronoi_splits(hist.root)
        assert any(audit.level == 1 for audit in audits)
        for audit in audits:
            assert max(audit.child_ks) <= audit.cover_spread_bound()

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
        parents, children = _audit_certificates(splits)
        assert [a.parent_k for a in audits] == [cert.k for cert in parents]
        assert [a.child_ks for a in audits] == [[cert.k for cert in row] for row in children]
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


@given(st.sampled_from(["ball", "box"]), st.sampled_from([2, 3]), st.booleans(),
       st.sampled_from([1, 2]), st.sampled_from([0.0, 1e4, 1e7]), st.integers(0, 100_000))
@settings(max_examples=60, deadline=None)
def test_outer_ball_rules_out_only_samples_membership_rejects(kind, d, snap, levels, offset,
                                                               seed):
    # samples on rays from the own center through each vertex of the cell's
    # polytope and along random directions, from the reach to just past the
    # outer ball, straddle both the cell's farthest points and the ball:
    # every sample the ball rules out must be rejected by membership.  At
    # 1e7 membership blurs across more than a cell and no ball is given
    root, cell, centers, rng = _two_level_split(kind, d, snap, seed)
    leaf = VoronoiClip(centers, int(rng.integers(centers.shape[0])),
                       cell if levels == 2 else root)
    if offset:
        try:
            leaf = _shifted(leaf, offset)
        except InputError:  # the shifted outer cell lost its own center
            assume(False)
    o, n = leaf.own_center, 6
    kernel = CellKernel.of(leaf, n)
    qs = o + rng.uniform(-1.5, 1.5, (n, d))
    slack = float(probe_margins(kernel, qs, np.array([4.0]))[1].max())
    for witness in (o, certify_roundness(leaf).witness):
        outer = privhist.roundness._outer_ball(kernel, witness, slack)
        if offset == 1e7:
            assert outer is None
        if witness is not o and offset < 1e7:
            assert outer is not None  # a center on the root's boundary too
        if outer is None:
            continue
        center, bound = outer
        assert np.array_equal(center, o)
        reach = privhist.roundness._cell_reach(kernel, 0, o)
        assert reach < bound
        V = kernel.vertices(0, o) - o
        dirs = np.concatenate([V, rng.standard_normal((16, d))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        steps = np.concatenate([[reach, bound * (1 - 1e-12), bound, bound * (1 + 1e-12)],
                                reach + (bound - reach) * rng.random(4),
                                rng.uniform(0.0, 2.0 * bound, 4)])
        S = (o + steps[:, None, None] * dirs).reshape(-1, d)
        out = row_norms(S, o) > bound
        assert not leaf.contains_many(S[out]).any()
        # the estimator's counts are those of testing every sample
        m, e = probe_margins(kernel, qs, np.array([bound]))
        results = []
        for ball in (outer, None):
            try:
                results.append(intersection_volume_ratio(qs[0], bound / 4.0, 4.0, leaf,
                                                         samples=2_000, seed=seed,
                                                         margin=(m[0], e[0, 0], ball)))
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
