import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from privhist import geometry
from privhist.errors import DegenerateGeometryError, InputError
from privhist.geometry import (
    Ball,
    Box,
    Dataset,
    VoronoiClip,
    VoronoiNeighbours,
    center_scores,
    count_in_region,
    distance,
    intersection_volume_ratio,
    row_norms,
    t_radii,
    t_radius,
    uniform_in_region,
    voronoi_assign,
)
from privhist.rng import substream
from privhist.sanitizer import VoronoiSplit

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vec(d):
    return st.lists(finite_coord, min_size=d, max_size=d).map(np.array)


class TestDistance:
    def test_three_four_five(self):
        assert distance([0, 0], [3, 4]) == 5.0

    def test_identity(self):
        x = [0.3, -2.7, 1.1]
        assert distance(x, x) == 0.0

    def test_unit_hypercube_diagonal(self):
        assert distance([1, 1, 1, 1], [0, 0, 0, 0]) == 2.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            distance([0, 0], [1, 2, 3])

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            distance([float("nan"), 0], [0, 0])

    @given(st.integers(1, 5).flatmap(lambda d: st.tuples(vec(d), vec(d), vec(d))))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, xyz):
        x, y, z = xyz
        lhs = distance(x, z)
        rhs = distance(x, y) + distance(y, z)
        assert lhs <= rhs + 8 * math.ulp(max(rhs, 1.0))


class TestMembership:
    def test_box_interior(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert box.contains([0.5, 0.5])

    def test_box_open_high_face(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert not box.contains([1.0, 0.5])

    def test_box_closed_high_face(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                  closed_high=np.array([True, True]))
        assert box.contains([1.0, 0.5])

    def test_box_closed_low_face(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        assert box.contains([0.0, 0.5])

    def test_ball_boundary_closed(self):
        ball = Ball(np.zeros(3), 1.0)
        assert ball.contains([1.0, 0.0, 0.0])
        assert not ball.contains([1.0 + 1e-12, 0.0, 0.0])

    def test_voronoi_tie_breaks_to_lowest_index(self):
        parent = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]),
                     closed_high=np.array([True, True]))
        centers = np.array([[-0.5, 0.0], [0.5, 0.0]])
        left = VoronoiClip(centers, 0, parent)
        right = VoronoiClip(centers, 1, parent)
        midpoint = [0.0, 0.3]
        assert left.contains(midpoint)
        assert not right.contains(midpoint)

    @pytest.mark.parametrize("seed", range(10))
    def test_voronoi_point_membership_equals_batch_on_bisectors(self, seed):
        # points rounded onto the bisectors of 10 centers: a row's membership
        # must not depend on whether it is tested alone or in a batch
        rng = np.random.default_rng(seed)
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 10, rng)
        X = []
        for i, j in itertools.combinations(range(10), 2):
            normal = (centers[j] - centers[i]) / np.linalg.norm(centers[j] - centers[i])
            pts = uniform_in_region(parent, 20, rng)
            X.append(pts - ((pts - 0.5 * (centers[i] + centers[j])) @ normal)[:, None] * normal)
        X = np.concatenate(X)
        X = X[parent.contains_many(X)]
        for own in range(10):
            cell = VoronoiClip(centers, own, parent)
            assert [cell.contains(x) for x in X] == cell.contains_many(X).tolist()

    def test_voronoi_own_center_duplicate_rejected(self):
        parent = Ball(np.zeros(2), 1.0)
        centers = np.array([[0.1, 0.0], [0.1, 0.0]])
        with pytest.raises(InputError):
            VoronoiClip(centers, 0, parent)


class TestCountInRegion:
    def test_line_ball(self):
        data = Dataset([[0.0], [1.0], [2.0]])
        assert count_in_region(data, Ball(np.array([0.0]), 1.5)) == 2

    def test_empty_dataset(self):
        assert count_in_region(Dataset(np.empty((0, 2))), Ball(np.zeros(2), 1.0)) == 0

    def test_brute_force_cross_check(self):
        data = Dataset([[0, 0], [10, 0], [10, 1], [10, -1]])
        ball = Ball(np.array([0.0, 0.1]), 0.4)
        brute = sum(
            1 for row in data.points if np.linalg.norm(row - ball.center) <= ball.radius
        )
        assert count_in_region(data, ball) == brute == 1


class TestTRadius:
    def test_line_second_neighbour(self):
        data = Dataset([[0.0], [1.0], [2.0], [3.0]])
        assert t_radius(data, [0.0], 2) == 2.0

    def test_first_neighbour_is_nearest_other(self):
        data = Dataset([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
        assert t_radius(data, [0.0, 0.0], 1) == 0.5

    def test_right_triangle(self):
        data = Dataset([[0, 0], [0, 3], [4, 0]])
        assert t_radius(data, [0.0, 0.0], 2) == 4.0

    def test_excluding_self_only_once_for_duplicates(self):
        data = Dataset([[0.0], [0.0], [5.0]])
        # one copy of the query is dropped; its duplicate stays at distance 0
        assert t_radius(data, [0.0], 1) == 0.0
        assert t_radius(data, [0.0], 2) == 5.0

    def test_too_large_t(self):
        data = Dataset([[0.0], [1.0]])
        with pytest.raises(InputError):
            t_radius(data, [0.0], 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_t(self, seed):
        pts = substream(seed, "tr").standard_normal((12, 3))
        data = Dataset(pts)
        x = pts[0]
        radii = [t_radius(data, x, t) for t in range(1, 12)]
        assert all(a <= b for a, b in zip(radii, radii[1:]))


class TestTRadii:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=15),
           st.integers(1, 14))
    @settings(max_examples=100, deadline=None)
    def test_equals_t_radius_on_lattice_with_duplicates(self, pts, t):
        data = Dataset(np.array(pts, dtype=float))
        if t > data.n - 1:
            with pytest.raises(InputError):
                t_radii(data, t)
            return
        expected = [t_radius(data, x, t) for x in data.points]
        assert t_radii(data, t).tolist() == expected

    @pytest.mark.parametrize("d,t", [(2, 1), (4, 2), (4, 5), (9, 3)])
    def test_equals_t_radius_on_continuous_data(self, d, t):
        pts = substream(d, "tradii").standard_normal((400, d))
        pts[:40] = pts[40:80]  # exact duplicates
        data = Dataset(pts)
        expected = [t_radius(data, x, t) for x in data.points]
        assert t_radii(data, t).tolist() == expected

    def test_rejects_nonpositive_t(self):
        with pytest.raises(InputError):
            t_radii(Dataset([[0.0], [1.0]]), 0)


class TestKnnCandidates:
    """``_knn_candidates`` against a brute-force ``np.partition`` of each
    query's distances: the exact k-th, and every point no farther in the
    candidates, with the candidates' distances recomputed as a full scan
    computes them."""

    @staticmethod
    def _assert_exact(points, Q, k):
        kth, rows, idx, dists = geometry._knn_candidates(points, Q, k)
        assert (np.diff(rows) >= 0).all()
        for i, q in enumerate(Q):
            full = np.linalg.norm(points - q, axis=1)
            assert kth[i] == np.partition(full, k - 1)[k - 1]
            mine = rows == i
            assert set(np.flatnonzero(full <= kth[i]).tolist()) <= set(idx[mine].tolist())
            assert dists[mine].tolist() == full[idx[mine]].tolist()

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=20),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_equals_brute_force_on_a_lattice_with_duplicates(self, pts, data):
        points = np.array(pts, dtype=float)
        k = data.draw(st.integers(1, len(points)))
        self._assert_exact(points, np.vstack([points, [[0.5, 0.5], [1.0, 3.0]]]), k)

    def test_only_tied_queries_list_their_ball(self, monkeypatch):
        import scipy.spatial

        balls = []

        class Recording(scipy.spatial.cKDTree):
            def query_ball_point(self, x, r, *args, **kwargs):
                balls.append(len(x))
                return super().query_ball_point(x, r, *args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", Recording)
        # four copies of the origin, two of (3, 3), and two rows at distance 1 from it
        points = np.repeat([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]], [4, 1, 1, 2], axis=0)
        Q = np.vstack([points, [[0.5, 0.5], [2.0, 2.5]]])
        for k in range(1, len(points) - 2):
            self._assert_exact(points, Q, k)
            assert 0 < balls.pop() < len(Q)
        # from k = n - 2 the array query returns every point, and no ball is listed
        for k in range(len(points) - 2, len(points) + 1):
            self._assert_exact(points, Q, k)
        assert not balls

    @pytest.mark.parametrize("k", [1, 3, 50])
    def test_equals_brute_force_at_random(self, k):
        points = substream(k, "knn").standard_normal((50, 3))
        self._assert_exact(points, substream(k, "knn-queries").standard_normal((40, 3)), k)


class TestVolume:
    def test_box_exact(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert box.volume() == 2.0

    def test_ball_d2_exact(self):
        assert Ball(np.zeros(2), 1.0).volume() == pytest.approx(math.pi)


class TestIntersectionVolumeRatio:
    def test_nested_ball_identity_d2(self):
        c = 2.0 * math.sqrt(2.0)
        ratio, stderr = intersection_volume_ratio(
            np.zeros(2), 0.1, c, Ball(np.zeros(2), 1.0), samples=400_000, seed=1
        )
        assert abs(ratio - 0.125) <= 3 * stderr

    def test_nested_ball_identity_d4(self):
        c = 2.0 * math.sqrt(2.0)
        ratio, stderr = intersection_volume_ratio(
            np.zeros(4), 0.1, c, Ball(np.zeros(4), 1.0), samples=400_000, seed=2
        )
        assert abs(ratio - 1.0 / 64.0) <= 3 * stderr

    def test_disk_in_box_oracle(self):
        # both disks fully inside the unit box, so the ratio equals the exact
        # disk-area ratio (c r)^-2... i.e. 1/16 for c = 4
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        ratio, stderr = intersection_volume_ratio(
            np.array([0.5, 0.5]), 0.05, 4.0, box, samples=400_000, seed=3
        )
        assert abs(ratio - 1.0 / 16.0) <= 3 * stderr

    def test_zero_denominator_is_degenerate(self):
        far = np.array([50.0, 50.0])
        with pytest.raises(DegenerateGeometryError):
            intersection_volume_ratio(far, 0.01, 2.0, Ball(np.zeros(2), 1.0),
                                      samples=1000, seed=0)

    def test_seeded_determinism(self):
        args = (np.zeros(3), 0.2, 2.0, Ball(np.zeros(3), 1.0), 50_000, 7)
        assert intersection_volume_ratio(*args) == intersection_volume_ratio(*args)

    @pytest.mark.parametrize("r,c,samples", [
        (math.inf, 2.0, 100), (0.1, math.inf, 100), (math.nan, 2.0, 100),
        (1e200, 1e200, 100), (0.1, 2.0, 0), (0.1, 2.0, -5)])
    def test_refuses_bad_input(self, r, c, samples):
        with pytest.raises(InputError):
            intersection_volume_ratio(np.zeros(2), r, c, Ball(np.zeros(2), 1.0), samples)


@pytest.mark.parametrize("d", range(1, 13))
def test_row_norms_equal_numpy_norm(d):
    rng = np.random.default_rng(d)
    for exponent in range(-150, 151, 25):
        X = rng.standard_normal((300, d)) * 10.0**exponent
        X[::11] = 0.0
        X[5::13, rng.integers(d)] = 0.0
        assert np.array_equal(row_norms(X), np.linalg.norm(X, axis=1))
        center = X[1]
        assert np.array_equal(row_norms(X, center), np.linalg.norm(X - center, axis=1))


class _Replay:
    """Hands back fixed draws in place of a Generator's."""

    def __init__(self, normals, uniforms):
        self.normals, self.uniforms = normals, uniforms

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals.copy()

    def random(self, n):
        assert n == self.uniforms.size
        return self.uniforms


@pytest.mark.parametrize("d", range(1, 11))
def test_ball_samples_equal_the_broadcast_formula(d):
    # the reference combines the same draws by broadcasting over rows
    for seed, scale in enumerate((1e-6, 1.0, 1e6)):
        rng = np.random.default_rng(seed)
        center = rng.standard_normal(d) * scale
        g, u = rng.standard_normal((2_000, d)), rng.random(2_000)
        g[7] = 0.0
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        expected = center + g / norms * (0.37 * scale * u ** (1.0 / d))[:, None]
        got = geometry.uniform_in_ball(center, 0.37 * scale, 2_000, _Replay(g, u))
        assert np.array_equal(got, expected)


class TestUniformSampling:
    def test_voronoi_cell_samples_are_members(self):
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 30, substream(3, "c"))
        cell = VoronoiClip(centers, 5, parent)
        pts = uniform_in_region(cell, 2_000, substream(4, "s"))
        assert cell.contains_many(pts).all()

    def test_starvation_raises(self, monkeypatch):
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 10, substream(5, "c"))
        cell = VoronoiClip(centers, 0, parent)
        monkeypatch.setattr(geometry, "MAX_BATCHES", 3)
        with pytest.raises(DegenerateGeometryError, match="after 3 batches"):
            # envelope nowhere near the cell: nothing is ever accepted
            uniform_in_region(cell, 100, substream(6, "s"),
                              envelope=(np.array([100.0, 100.0]), 0.1))


# ---------------------------------------------------------------------------
# two-stage Voronoi membership against the full argmin at every level


def _full_argmin_membership(region, X):
    inside = np.ones(X.shape[0], dtype=bool)
    while isinstance(region, VoronoiClip):
        inside &= voronoi_assign(region.centers, X) == region.own_index
        region = region.parent
    return inside & region.contains_many(X)


def _snap(X):
    return np.round(X * 8.0) / 8.0


def _distinct_centers(region, X, m):
    X = X[region.contains_many(X)]
    _, first = np.unique(X, axis=0, return_index=True)
    return X[np.sort(first)][:m]


def _centers_for(region, layout, snap, rng):
    """Centers inside the region: ``generic`` (d + 2 to 12 of them), ``many``
    (8 (d + 1) to 8 (d + 1) + 24, where the neighbour table is built at the
    default ratio), ``few`` (1 to d + 1) or ``collinear`` (on one line).
    Snapped centers sit on the 1/8 grid, where every bisector tie is exact."""
    d = region.dim
    if layout == "collinear":
        base = uniform_in_region(region, 1, rng)[0]
        step = rng.uniform(-0.25, 0.25, d)
        if snap:
            base, step = _snap(base), _snap(step) + 0.125 * (_snap(step) == 0)
        X = base + np.arange(-12, 13)[:, None] * step
        return _distinct_centers(region, X[rng.permutation(X.shape[0])],
                                 int(rng.integers(2, 9)))
    low, high = {"generic": (d + 2, 13), "many": (8 * (d + 1), 8 * (d + 1) + 25),
                 "few": (1, d + 2)}[layout]
    m = int(rng.integers(low, high))
    X = uniform_in_region(region, 4 * m, rng)
    if snap:
        X = np.concatenate([_snap(X), X])
    return _distinct_centers(region, X, m)


def _membership_probes(root, levels, rng):
    """Uniform points around the root; at each level the centers, every
    center midpoint, points on every bisector (exactly, for snapped centers)
    and points projected onto bisectors; points on the root's closed faces or
    sphere."""
    d = root.dim
    X = [rng.uniform(-1.3, 1.3, (120, d))]
    for c in levels:
        i, j = np.triu_indices(c.shape[0], k=1)
        mid = 0.5 * (c[i] + c[j])
        n = c[j] - c[i]
        v = _snap(rng.uniform(-0.5, 0.5, (i.size, d)))
        # (x - mid) . n = 0, in dyadic arithmetic that is exact on the grid
        on = mid + (n * n).sum(axis=1, keepdims=True) * v - (v * n).sum(axis=1, keepdims=True) * n
        unit = n / np.linalg.norm(n, axis=1, keepdims=True)
        y = rng.uniform(-1.0, 1.0, (i.size, d))
        X += [c, mid, on, y - ((y - mid) * unit).sum(axis=1, keepdims=True) * unit]
    if isinstance(root, Box):
        faces = rng.uniform(-1.0, 1.0, (40, d))
        axis = rng.integers(d, size=40)
        faces[np.arange(40), axis] = np.where(rng.random(40) < 0.5, root.low[axis],
                                              root.high[axis])
        X.append(faces)
    else:
        X.append(np.concatenate([np.eye(d), -np.eye(d)]))
    return np.concatenate(X)


@given(st.sampled_from(["ball", "box"]), st.sampled_from([1, 2, 3, 5]),
       st.sampled_from(["generic", "many", "few", "collinear"]), st.booleans(),
       st.booleans(), st.sampled_from([1, VoronoiNeighbours.PREFILTER_RATIO]),
       st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_two_stage_membership_equals_full_argmin(kind, d, layout, snap, two_levels, ratio,
                                                 seed):
    # ratio 1 gives every center its columns, so stage 1 runs wherever qhull
    # builds a table; the default ratio is the cost gate membership runs with
    default = VoronoiNeighbours.PREFILTER_RATIO
    VoronoiNeighbours.PREFILTER_RATIO = ratio
    try:
        _check_two_stage_membership(kind, d, layout, snap, two_levels, seed)
    finally:
        VoronoiNeighbours.PREFILTER_RATIO = default


def test_neighbour_table_is_marked_built_after_it_is_whole(monkeypatch):
    # a thread that finds the table built reads its columns and radius
    # without a lock, so the flag must go up only once both are in place
    import scipy.spatial

    centers = np.random.default_rng(6).uniform(-1.0, 1.0, (64, 2))
    table = VoronoiNeighbours(centers)
    seen = []
    delaunay = scipy.spatial.Delaunay

    def observed(points):
        seen.append((table._built, table.radius))
        return delaunay(points)

    monkeypatch.setattr(scipy.spatial, "Delaunay", observed)
    assert any(table.columns(i) is not None for i in range(64))
    assert seen == [(False, math.inf)]
    assert table._built and table.radius == np.linalg.norm(centers, axis=1).max()


def _check_two_stage_membership(kind, d, layout, snap, two_levels, seed):
    rng = np.random.default_rng(seed)
    if kind == "ball":
        root = Ball(np.zeros(d), 1.0)
    else:
        root = Box(-np.ones(d), np.ones(d), closed_high=rng.random(d) < 0.5)
    parent, levels = root, []
    if two_levels:
        outer = _centers_for(root, "generic", snap, rng)
        split = VoronoiSplit(outer)
        parent = split.child_region(root, int(rng.integers(outer.shape[0])))
        levels.append(outer)
    if layout == "collinear" and d != 2:  # the plane is where qhull rejects them
        layout = "generic"
    centers = _centers_for(parent, layout, snap, rng)
    m = centers.shape[0]
    assume(m >= 1)  # a snapped line can miss a small cell
    levels.append(centers)
    X = _membership_probes(root, levels, rng)
    ratio = VoronoiNeighbours.PREFILTER_RATIO
    full_rank = np.linalg.matrix_rank(centers[1:] - centers[0]) == d if m > 1 else False
    split = VoronoiSplit(centers)
    owns = range(m) if m <= 12 else np.sort(rng.choice(m, 12, replace=False))
    scores = center_scores(centers, X)

    def near_tie(own):
        """Rows of X by how close the own score is to the best other one."""
        if m == 1:
            return rng.permutation(X.shape[0])
        others = np.delete(scores, own, axis=1).min(axis=1)
        return np.argsort(np.abs(scores[:, own] - others))

    for own in owns:
        direct = VoronoiClip(centers, own, parent)
        shared = split.child_region(parent, own)
        assert shared.neighbours is split.neighbours
        ref = _full_argmin_membership(direct, X)
        assert np.array_equal(direct.contains_many(X), ref)
        assert np.array_equal(shared.contains_many(X), ref)
        cols = direct.neighbours.columns(own)
        if cols is not None:
            assert 2 <= d <= 4 and full_rank and ratio * cols.size <= m and cols[0] == own
        elif ratio == 1:
            assert not (2 <= d <= 4 and m >= d + 2 and full_rank)
        # one row, and pairs in which often only the first row reaches the
        # full argmin: numpy's product for one row can round differently.
        # A neighbour center as the partner is rejected at stage 1, so the
        # lone-survivor padding runs.
        partner = centers[cols[1] if cols is not None and cols.size > 1 else (own + 1) % m]
        for x in X[np.concatenate([near_tie(own)[:12], rng.choice(X.shape[0], 12)])]:
            for batch in (x[None, :], np.stack([x, partner])):
                assert np.array_equal(shared.contains_many(batch),
                                      _full_argmin_membership(direct, batch))
    assert not direct.contains_many(np.empty((0, d))).size


def _center_scores_three_steps(centers, X):
    """The product, then the -2 scale, then |c|^2: the earlier form of
    ``center_scores``, one row scored as two copies of it."""
    if X.shape[0] == 1:
        return _center_scores_three_steps(centers, np.concatenate([X, X]))[:1]
    scores = X @ centers.T
    scores *= -2.0
    scores += (centers * centers).sum(axis=1)
    return scores


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_center_scores_equal_three_step_form(d, seed):
    # scaling the centers by -2 before the product is exact, so every double
    # must equal scaling the product afterwards
    rng = np.random.default_rng(seed)
    for n, m in [(1, 1), (1, 512), (2, 7), (37, 64), (300, 257)]:
        scale = 10.0 ** rng.integers(-3, 4)
        centers = scale * rng.standard_normal((m, d))
        X = scale * rng.standard_normal((n, d))
        assert np.array_equal(center_scores(centers, X),
                              _center_scores_three_steps(centers, X))


def test_blocked_assignment_equals_unblocked_argmin(monkeypatch):
    # lattice centers and probes on their bisectors: exact ties, which must
    # still go to the lowest index in every block
    centers = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=2)))
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.uniform(-1.5, 1.5, (40, 2)),
                        rng.integers(-4, 5, (21, 2)) / 4.0])
    expected = np.argmin(center_scores(centers, X), axis=1)
    # blocks of 4 rows: 61 rows end in a one-row block
    monkeypatch.setattr(geometry, "_ASSIGN_BLOCK", 4 * centers.shape[0])
    assert np.array_equal(voronoi_assign(centers, X), expected)
    # a block larger than the batch, and one row per block
    for block in (10**6, 1):
        monkeypatch.setattr(geometry, "_ASSIGN_BLOCK", block)
        assert np.array_equal(voronoi_assign(centers, X), expected)
    assert voronoi_assign(centers, np.empty((0, 2))).shape == (0,)


def test_assignment_memory_is_bounded_by_the_block():
    import tracemalloc

    rng = np.random.default_rng(5)
    centers = rng.standard_normal((1000, 4))
    X = rng.standard_normal((20_000, 4))  # 2e7 scores, 160 MB as one matrix
    tracemalloc.start()
    try:
        voronoi_assign(centers, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
