import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privhist import adversary
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
from privhist.geometry import Ball, Dataset, count_in_region, uniform_in_region
from privhist.rng import substream
from privhist.roundness import certify_roundness
from privhist.sanitizer import (LeafTable, build_recursive_cube, build_shifted_grid,
                                build_voronoi)


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
    @pytest.mark.parametrize("builder", ["cube", "grid", "voronoi"])
    def test_equals_per_leaf_membership_counts(self, builder):
        data, _ = sample(single(UniformCube(np.zeros(3), 1.0)), 400, seed=11)
        if builder == "cube":
            hist = build_recursive_cube(data, t=2, max_depth=6)
        elif builder == "grid":
            hist = build_shifted_grid(data, t=2, max_depth=6, seed=12)
        else:
            hist = build_voronoi(data, Ball(np.zeros(3), 2.0), t=8, max_depth=2,
                                 method="uniform", override_m=10, seed=12)
        leaves = hist.root.leaves()
        outside = np.array([[3.0, 0.0, 0.0], [0.0, -2.5, 0.2]])
        X = np.concatenate([data.points[::3], outside, data.points[:5]])
        expected = [int(leaf.region.contains_many(X).sum()) for leaf in leaves]
        assert _points_per_leaf(hist, LeafTable(hist.root), X).tolist() == expected

    def test_no_points_counts_zero(self):
        data, hist = _toy_attack_setup(n=50, d=2, seed=13)
        counts = _points_per_leaf(hist, LeafTable(hist.root), np.empty((0, 2)))
        assert counts.tolist() == [0] * len(hist.root.leaves())


class TestAuxIndices:
    @pytest.mark.parametrize("index", [-1, 50, 51])
    def test_an_index_outside_the_rows_is_an_input_error(self, index):
        data, hist = _toy_attack_setup(n=50, d=2, seed=17)
        with pytest.raises(InputError, match="aux_indices"):
            attack(hist, data, IsolationParams(c=4.0, t=2), "aux-informed", queries=10,
                   seed=0, aux_indices=[3, index])

    def test_the_first_and_last_rows_are_accepted(self):
        data, hist = _toy_attack_setup(n=50, d=2, seed=17)
        report = attack(hist, data, IsolationParams(c=4.0, t=2), "aux-informed", queries=10,
                        seed=0, aux_indices=[0, 49])
        assert report.aux_subset_size == 2


# ---------------------------------------------------------------------------
# The node-path samplers that the leaf table replaced, kept as the reference:
# every leaf is a node from ``walk()``, each sampled leaf is filled by its own
# ``uniform_in_region`` call, leaf sizes come from each leaf's bounding ball,
# and known rows are counted by membership in each leaf.


def _reference_fill(Q, rows, chosen, leaves, rng):
    for li in np.unique(chosen):
        mine = rows[chosen == li]
        Q[mine] = uniform_in_region(leaves[li].region, mine.size, rng)


def _reference_queries(hist, dataset, strategy, queries, seed, aux_indices):
    """The query array the node-path attack scored."""
    rng = substream(seed, "attack", STRATEGIES.index(strategy))
    leaves = hist.root.leaves()
    d = leaves[0].region.dim
    counts = np.array([leaf.count for leaf in leaves], dtype=float)
    Q = np.empty((queries, d))
    if strategy != "aux-informed":
        chosen = rng.choice(len(leaves), size=queries, p=counts / counts.sum())
        if strategy == "uniform-in-leaf":
            _reference_fill(Q, np.arange(queries), chosen, leaves, rng)
        else:
            for li in np.unique(chosen):
                Q[chosen == li] = certify_roundness(leaves[li].region).witness
        return Q
    known = dataset.points[np.fromiter(aux_indices, dtype=int)]
    unknown = counts - np.array([leaf.region.contains_many(known).sum() for leaf in leaves])
    cand = np.flatnonzero(unknown >= 1)
    if cand.size == 0:
        cand = np.flatnonzero(counts > 0)
        weights = counts[cand]
    else:
        weights = 1.0 / unknown[cand]
    probs = weights / weights.sum()
    use_offset = (known.shape[0] > 0) & (rng.random(queries) < 0.25)
    n_off = int(use_offset.sum())
    if n_off:
        picks = rng.choice(known.shape[0], size=n_off)
        leaf_sizes = np.array([2.0 * leaves[i].region.bounding_ball()[1]
                               for i in rng.choice(cand, size=n_off, p=probs)])
        dirs = rng.standard_normal((n_off, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        Q[use_offset] = known[picks] + 0.05 * leaf_sizes[:, None] * dirs
    rest = np.flatnonzero(~use_offset)
    _reference_fill(Q, rest, rng.choice(cand, size=rest.size, p=probs), leaves, rng)
    return Q


def _scored_queries(hist, data, strategy, queries, seed, aux_indices):
    """The report of ``attack`` and the query array it scored."""
    scored = []

    def recording(Q, *args):
        scored.append(Q.copy())
        return _score_queries(Q, *args)

    with patch.object(adversary, "_score_queries", recording):
        report = attack(hist, data, IsolationParams(c=4.0, t=2), strategy, queries=queries,
                        seed=seed, aux_indices=aux_indices)
    return report, scored[0]


def _mesh_attack_setup(method, d, n, depth, seed):
    """A cube or grid build over uniform rows plus a tight cluster, so that
    leaves lie at many depths, with rows on the closed high face (at d = 1
    that is the root's corner, which no row may be)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, (n, d))
    X[: n // 3] = 0.3 + 1e-3 * rng.standard_normal((n // 3, d))
    if d > 1:
        X[n // 3: n // 3 + 2, rng.integers(0, d)] = 1.0
    data = Dataset(X)
    if method == "cube":
        return data, build_recursive_cube(data, t=1, max_depth=depth)
    return data, build_shifted_grid(data, t=1, max_depth=depth, seed=seed)


class TestLeafTableSampling:
    @given(st.sampled_from(["cube", "grid"]), st.sampled_from([1, 2, 3, 4, 8]),
           st.integers(1, 8), st.sampled_from(STRATEGIES), st.integers(0, 10_000),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_reports_equal_the_node_path_reference(self, method, d, depth, strategy, seed,
                                                   round_trip):
        data, hist = _mesh_attack_setup(method, d, 40 if d < 8 else 90, depth, seed)
        if round_trip:
            hist = histogram_from_doc(json.loads(encode(histogram_to_doc(hist))))
        aux = np.arange(seed % 3, data.n, 3) if strategy == "aux-informed" else None
        report, Q = _scored_queries(hist, data, strategy, 300, seed, aux)
        reference = _reference_queries(hist, data, strategy, 300, seed, aux)
        assert Q.tobytes() == reference.tobytes()
        victims = _score_queries(reference, data, IsolationParams(c=4.0, t=2),
                                 np.isin(np.arange(data.n), aux, invert=True))
        assert report.successes == int((victims >= 0).sum())
        assert report.per_point_hits.tolist() == np.bincount(
            victims[victims >= 0], minlength=data.n).tolist()

    def test_a_root_that_never_split_is_one_leaf(self):
        data = Dataset(np.array([[0.1, 0.2], [0.3, -0.4]]))
        hist = build_recursive_cube(data, t=2, max_depth=4)
        assert hist.root.split is None
        for strategy in STRATEGIES:
            aux = [1] if strategy == "aux-informed" else None
            _, Q = _scored_queries(hist, data, strategy, 50, 3, aux)
            assert Q.tobytes() == _reference_queries(hist, data, strategy, 50, 3,
                                                     aux).tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("method", ["cube", "grid"])
    def test_an_attack_makes_no_node_for_a_leaf_it_does_not_pick(self, method, strategy):
        data, hist = _mesh_attack_setup(method, 3, 300, 6, 5)
        divided = [node for node in hist.root.walk() if node.split is not None]
        made = sum(len(node._kids) for node in divided)
        hist = histogram_from_doc(histogram_to_doc(hist))
        divided = _divided_nodes(hist.root)
        assert sum(len(node._kids) for node in divided) == len(divided) - 1 < made
        aux = np.arange(0, data.n, 4) if strategy == "aux-informed" else None
        attack(hist, data, IsolationParams(c=4.0, t=2), strategy, queries=200, seed=6,
               aux_indices=aux)
        leaves_made = sum(len(node._kids) for node in _divided_nodes(hist.root)) - \
            (len(divided) - 1)
        if strategy == "leaf-center-weighted":  # one node per picked leaf
            assert 0 < leaves_made <= 200
        else:
            assert leaves_made == 0


def _divided_nodes(root):
    """The nodes that have a split, reached through made nodes only."""
    out, stack = [], [root] if root.split is not None else []
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.divided_children().values())
    return out
