import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privhist.adversary import (
    STRATEGIES,
    IsolationParams,
    IsolationReport,
    _points_per_leaf,
    _score_queries,
    attack,
    isolates,
)
from privhist.datagen import UniformBall, UniformCube, sample, single
from privhist.documents import encode, histogram_from_doc, histogram_to_doc
from privhist.errors import InputError
from privhist.geometry import Dataset, count_in_region, Ball
from privhist.rng import substream
from privhist.sanitizer import build_recursive_cube, build_shifted_grid, build_voronoi


class TestIsolates:
    def test_single_point_never_isolated_at_t1(self):
        # y itself is inside B(q, c|q-y|) for c >= 1, so the count is never < 1
        data = Dataset([[0.0, 0.0]])
        isolated, victim = isolates([1.0, 0.0], data, IsolationParams(c=4.0, t=1))
        assert not isolated and victim is None

    def test_sparse_neighbourhood_isolates_lowest_index(self):
        data = Dataset([[0, 0], [10, 0], [10, 1], [10, -1]])
        isolated, victim = isolates([0.0, 0.1], data, IsolationParams(c=4.0, t=2))
        assert isolated and victim == 0

    def test_colocated_cluster_never_isolated(self):
        data = Dataset([[1.0, 1.0]] * 3)
        for c in (1.0, 2.0, 10.0):
            isolated, _ = isolates([0.4, 0.9], data, IsolationParams(c=c, t=3))
            assert not isolated

    def test_exact_hit_counts_multiplicity(self):
        # q exactly on a duplicated point: B(q, 0) holds the duplicates
        data = Dataset([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        assert not isolates([1.0, 0.0], data, IsolationParams(c=3.0, t=2))[0]
        assert isolates([1.0, 0.0], data, IsolationParams(c=3.0, t=3))[0]

    @given(st.integers(0, 2_000), st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_isolated_at_t_implies_isolated_at_larger_t(self, seed, t):
        pts = substream(seed, "iso").standard_normal((15, 2))
        data = Dataset(pts)
        q = substream(seed, "q").standard_normal(2)
        if isolates(q, data, IsolationParams(c=2.0, t=t))[0]:
            assert isolates(q, data, IsolationParams(c=2.0, t=t + 1))[0]

    @given(st.integers(0, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_ball_count_nondecreasing_in_c(self, seed):
        pts = substream(seed, "mono").standard_normal((15, 2))
        data = Dataset(pts)
        q = substream(seed, "q2").standard_normal(2)
        y = pts[0]
        delta = float(np.linalg.norm(q - y))
        counts = [
            count_in_region(data, Ball(np.asarray(q), c * delta))
            for c in (1.0, 1.5, 2.0, 4.0)
        ]
        assert counts == sorted(counts)


def _toy_attack_setup(n=200, d=4, seed=0):
    data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), n, seed=seed)
    hist = build_recursive_cube(data, t=2, max_depth=8)
    return data, hist


class TestAttack:
    def test_colocated_dataset_rate_zero(self):
        pts = np.tile(np.array([[0.26, 0.27]]), (20, 1))
        data = Dataset(pts)
        hist = build_recursive_cube(data, t=2, max_depth=4)
        for strategy in ("uniform-in-leaf", "leaf-center-weighted"):
            report = attack(hist, data, IsolationParams(c=4.0, t=2), strategy,
                            queries=500, seed=1)
            assert report.rate == 0.0

    def test_report_is_deterministic(self):
        data, hist = _toy_attack_setup(seed=2)
        a = attack(hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf",
                   queries=2_000, seed=5)
        b = attack(hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf",
                   queries=2_000, seed=5)
        assert a.rate == b.rate
        assert np.array_equal(a.per_point_hits, b.per_point_hits)

    def test_success_accounting(self):
        data, hist = _toy_attack_setup(seed=3)
        report = attack(hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf",
                        queries=3_000, seed=6)
        assert report.successes == int(report.per_point_hits.sum())
        assert report.rate == report.successes / report.queries
        assert 0.0 <= report.rate <= 1.0

    def test_aux_informed_victims_exclude_known_points(self):
        data, hist = _toy_attack_setup(n=50, d=2, seed=4)
        aux = list(range(49))  # adversary knows everything but index 49
        report = attack(hist, data, IsolationParams(c=2.0, t=2), "aux-informed",
                        queries=1_500, seed=7, aux_indices=aux)
        assert report.aux_subset_size == 49
        assert report.rate <= 1.0
        hits = np.flatnonzero(report.per_point_hits)
        assert set(hits.tolist()) <= {49}

    def test_aux_indices_rejected_for_other_strategies(self):
        data, hist = _toy_attack_setup(seed=5)
        with pytest.raises(InputError):
            attack(hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf",
                   queries=10, seed=0, aux_indices=[1, 2])

    def test_unknown_strategy_rejected(self):
        data, hist = _toy_attack_setup(seed=6)
        with pytest.raises(InputError):
            attack(hist, data, IsolationParams(c=4.0, t=2), "clairvoyant",
                   queries=10, seed=0)

    def test_leaf_center_strategy_runs(self):
        data, hist = _toy_attack_setup(seed=7)
        report = attack(hist, data, IsolationParams(c=4.0, t=2),
                        "leaf-center-weighted", queries=500, seed=8)
        assert report.queries == 500

    def test_report_carries_lower_bound_framing(self):
        data, hist = _toy_attack_setup(seed=8)
        report = attack(hist, data, IsolationParams(c=4.0, t=2), "uniform-in-leaf",
                        queries=100, seed=9)
        assert "lower-bound" in report.interpretation
        assert "lower-bound" in report.to_dict()["interpretation"]


def _brute_force_victims(Q, points, params, allowed):
    """Full scan: count every point within c*d_j of q, lowest allowed victim."""
    victims = []
    for q in Q:
        dists = np.linalg.norm(points - q, axis=1)
        counts = np.array([(dists <= params.c * dj).sum() for dj in dists])
        hits = np.flatnonzero((counts < params.t) & allowed)
        victims.append(int(hits[0]) if hits.size else -1)
    return np.array(victims)


# integer lattice points drawn with replacement (duplicates), queried from the
# half-integer lattice, so distances tie often and queries can sit on points;
# sets above 16 points make the kd-tree split below its root
lattice_points = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=40)
half_lattice_queries = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                                min_size=1, max_size=8)
isolation_c = st.sampled_from([1.0, 2.0, 4.0])
isolation_t = st.sampled_from([1, 2, 3, 7])


class TestScoreQueries:
    @given(lattice_points, half_lattice_queries, isolation_c, isolation_t)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_query_isolates(self, pts, qs, c, t):
        data = Dataset(np.array(pts, dtype=float))
        Q = np.array(qs, dtype=float) / 2.0
        params = IsolationParams(c=c, t=t)
        victims = _score_queries(Q, data, params, np.ones(data.n, dtype=bool))
        for q, victim in zip(Q, victims):
            isolated, expected = isolates(q, data, params)
            assert victim == (expected if isolated else -1)

    @given(lattice_points, half_lattice_queries, isolation_c, isolation_t,
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_with_allowed_mask(self, pts, qs, c, t, seed):
        points = np.array(pts, dtype=float)
        Q = np.array(qs, dtype=float) / 2.0
        allowed = np.random.default_rng(seed).random(points.shape[0]) < 0.6
        params = IsolationParams(c=c, t=t)
        victims = _score_queries(Q, Dataset(points), params, allowed)
        assert np.array_equal(victims, _brute_force_victims(Q, points, params, allowed))

    def test_t_above_n_isolates_lowest_allowed_point(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        Q = np.array([[5.0, 5.0], [1.0, 0.0]])
        params = IsolationParams(c=2.0, t=4)
        allowed = np.array([False, True, True])
        assert _score_queries(Q, data, params, allowed).tolist() == [1, 1]
        none_allowed = np.zeros(3, dtype=bool)
        assert _score_queries(Q, data, params, none_allowed).tolist() == [-1, -1]

    def test_t1_never_isolates(self):
        pts = substream(3, "t1").standard_normal((40, 3))
        Q = substream(4, "t1q").standard_normal((25, 3))
        victims = _score_queries(Q, Dataset(pts), IsolationParams(c=1.0, t=1),
                                 np.ones(40, dtype=bool))
        assert (victims == -1).all()

    def test_matches_brute_force_on_continuous_data(self):
        pts = substream(5, "cont").standard_normal((300, 4))
        pts[:30] = pts[30:60]  # exact duplicates
        Q = np.concatenate([substream(6, "contq").standard_normal((200, 4)), pts[:20]])
        allowed = substream(7, "contmask").random(300) < 0.8
        for c, t in ((1.0, 2), (2.0, 3), (4.0, 7)):
            params = IsolationParams(c=c, t=t)
            victims = _score_queries(Q, Dataset(pts), params, allowed)
            assert np.array_equal(victims, _brute_force_victims(Q, pts, params, allowed))


class TestAttackReadsPublishedFields:
    @pytest.mark.parametrize("builder", ["cube", "grid", "voronoi"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_report_equals_report_from_document_round_trip(self, builder, strategy):
        if builder == "voronoi":
            data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 120, seed=14)
            hist = build_voronoi(data, Ball(np.zeros(2), 1.0), t=4, max_depth=2,
                                 method="uniform", override_m=16, seed=15)
        else:
            data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 300, seed=14)
            build = build_recursive_cube if builder == "cube" else build_shifted_grid
            hist = build(data, t=2, max_depth=6)
        again = histogram_from_doc(json.loads(encode(histogram_to_doc(hist))))
        aux = np.arange(0, data.n, 7) if strategy == "aux-informed" else None
        reports = [attack(h, data, IsolationParams(c=4.0, t=2), strategy, queries=400,
                          seed=16, aux_indices=aux).to_dict() for h in (hist, again)]
        assert reports[0] == reports[1]


class TestPointsPerLeaf:
    @pytest.mark.parametrize("builder", ["cube", "grid"])
    def test_equals_per_leaf_membership_counts(self, builder):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 400, seed=11)
        if builder == "cube":
            hist = build_recursive_cube(data, t=2, max_depth=6)
        else:
            hist = build_shifted_grid(data, t=2, max_depth=6, seed=12)
        leaves = hist.root.leaves()
        outside = np.array([[3.0, 0.0, 0.0], [0.0, -1.5, 0.2]])
        X = np.concatenate([data.points[::3], outside, data.points[:5]])
        expected = [int(leaf.region.contains_many(X).sum()) for leaf in leaves]
        assert _points_per_leaf(hist, leaves, X).tolist() == expected

    def test_no_points_counts_zero(self):
        data, hist = _toy_attack_setup(n=50, d=2, seed=13)
        leaves = hist.root.leaves()
        counts = _points_per_leaf(hist, leaves, np.empty((0, 2)))
        assert counts.tolist() == [0] * len(leaves)
