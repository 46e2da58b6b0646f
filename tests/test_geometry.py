import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privhist.errors import DegenerateGeometryError, InputError
from privhist.geometry import (
    Ball,
    Box,
    Dataset,
    VoronoiClip,
    count_in_region,
    distance,
    intersection_volume_ratio,
    region_volume,
    t_radii,
    t_radius,
    uniform_in_region,
)
from privhist.rng import substream

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


class TestRegionVolume:
    def test_box_exact(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        assert region_volume(box) == (2.0, 0.0)

    def test_ball_d2_exact(self):
        assert region_volume(Ball(np.zeros(2), 1.0))[0] == pytest.approx(math.pi)

    def test_voronoi_cell_mc_matches_ball_slice(self):
        # two symmetric centers split the ball in half: MC volume of one cell
        # must match half the ball volume within 3 standard errors
        parent = Ball(np.zeros(3), 1.0)
        centers = np.array([[-0.3, 0.0, 0.0], [0.3, 0.0, 0.0]])
        cell = VoronoiClip(centers, 0, parent)
        est, stderr = region_volume(cell, oracle_samples=400_000, seed=4)
        half = parent.volume() / 2.0
        assert abs(est - half) <= 3 * stderr

    def test_mc_seeded_determinism(self):
        parent = Ball(np.zeros(2), 1.0)
        cell = VoronoiClip(np.array([[0.2, 0.0], [-0.4, 0.1]]), 0, parent)
        a = region_volume(cell, oracle_samples=50_000, seed=99)
        b = region_volume(cell, oracle_samples=50_000, seed=99)
        assert a == b


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


class TestUniformSampling:
    def test_voronoi_cell_samples_are_members(self):
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 30, substream(3, "c"))
        cell = VoronoiClip(centers, 5, parent)
        pts = uniform_in_region(cell, 2_000, substream(4, "s"))
        assert cell.contains_many(pts).all()

    def test_starvation_raises(self):
        parent = Ball(np.zeros(2), 1.0)
        centers = uniform_in_region(parent, 10, substream(5, "c"))
        cell = VoronoiClip(centers, 0, parent)
        with pytest.raises(DegenerateGeometryError):
            # envelope nowhere near the cell: nothing is ever accepted
            uniform_in_region(cell, 100, substream(6, "s"),
                              envelope=(np.array([100.0, 100.0]), 0.1), max_batches=3)
