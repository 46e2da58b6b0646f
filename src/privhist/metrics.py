"""Histogram-induced distance, expected cell diameters, cut probabilities,
and MST cost comparison against sanitized histograms.

The histogram distance between two points is the furthest distance between
their smallest containing cells (sup-sup).  For box pairs that is exact via
per-axis farthest spans; for certified cells we return the certificate upper
bound |p_x - p_y| + R_x + R_y.  Both versions satisfy the two-sided sandwich
|x - y| <= d_H(x, y) <= |x - y| + diam(C_x) + diam(C_y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import (Ball, Box, Dataset, Region, VoronoiClip, as_point, t_radii,
                       uniform_in_region, voronoi_assign)
from .rng import substream
from .roundness import certify_roundness
from .sanitizer import (HistogramNode, MeshSplit, SanitizedHistogram, _partition,
                        build_shifted_grid, build_voronoi, certify_nodes)


# ---------------------------------------------------------------------------
# leaf location and diameters


def locate_leaves(hist: SanitizedHistogram, X: np.ndarray) -> list[HistogramNode]:
    """Leaf per row of X."""
    ids, leaves, _ = _descend(hist, X)
    return [leaves[i] for i in ids.tolist()]


def _descend(hist: SanitizedHistogram, X: np.ndarray):
    """One descent of all rows of X: (ids, leaves, bounds).

    ``leaves`` are the distinct leaves reached, in order of their first row,
    and ``ids[r]`` indexes row r's leaf there.  Each split assigns the rows
    that reached it at once.  When the root is a box and every split crossed
    is a mesh, ``bounds`` holds the (L, d) low and high corner arrays of the
    leaves, filled from the cut arrays as rows descend (no ``Box`` per leaf);
    otherwise it is None.
    """
    X = np.asarray(X, dtype=float)
    root = hist.root
    region = root.region
    if X.ndim != 2 or X.shape[1] != region.dim:
        raise InputError(f"points must form an (n, {region.dim}) array")
    inside = region.contains_many(X)
    if not inside.all():
        raise InputError(f"point index {int(np.flatnonzero(~inside)[0])} is outside the root")
    n = X.shape[0]
    mesh = isinstance(region, Box)
    if mesh:
        lo = np.tile(region.low, (n, 1))
        hi = np.tile(region.high, (n, 1))
    ids = np.empty(n, dtype=int)
    leaves, firsts = [], []
    stack = [(root, np.arange(n))] if n else []
    while stack:
        node, rows = stack.pop()
        split = node.split
        if split is None:
            ids[rows] = len(leaves)
            leaves.append(node)
            firsts.append(rows[0])
            continue
        if mesh and isinstance(split, MeshSplit):
            digits = split.digits(X[rows])
            for j, (c, digit) in enumerate(zip(split.cuts, digits)):
                lo[rows, j] = c[digit]
                hi[rows, j] = c[digit + 1]
            keys = np.ravel_multi_index(digits, split.shape)
        else:
            mesh = False
            keys = split.assign(X[rows])
        parts = _partition(keys, split.size)
        stack.extend((child, rows[part]) for child, part in zip(node.children, parts) if part.size)
    # rows ascend within every part, so a leaf's first row is its smallest
    firsts = np.array(firsts, dtype=int)
    order = np.argsort(firsts)
    rank = np.empty(len(leaves), dtype=int)
    rank[order] = np.arange(len(leaves))
    leaves = [leaves[i] for i in order.tolist()]
    bounds = (lo[firsts[order]], hi[firsts[order]]) if mesh else None
    return rank[ids], leaves, bounds


def _certify_voronoi(leaves: list):
    """Certify the Voronoi leaves, one batch per split; boxes and balls need none."""
    certify_nodes([leaf for leaf in leaves if isinstance(leaf.region, VoronoiClip)])


def leaf_diameter(node: HistogramNode) -> float:
    region = node.region
    if isinstance(region, (Box, Ball)):
        return region.diameter()
    return 2.0 * node.certificate.radius


def _row_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean length of each row as ``sqrt(v @ v)``, the same dot product
    ``np.linalg.norm`` takes of a single vector, so bit for bit equal to it
    (``norm(axis=...)`` and ``einsum`` sum in another order and can differ in
    the last bit)."""
    return np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0, 0]


def _leaf_diameters(leaves: list, bounds) -> np.ndarray:
    """``leaf_diameter`` of each leaf, from the descent's mesh bounds when it
    has them (no ``Box`` per leaf)."""
    if bounds is not None:
        low, high = bounds
        return _row_norms(high - low)
    _certify_voronoi(leaves)
    return np.array([leaf_diameter(leaf) for leaf in leaves])


def _leaf_pair_distance(a: HistogramNode, b: HistogramNode) -> float:
    ra, rb = a.region, b.region
    if isinstance(ra, Box) and isinstance(rb, Box):
        span = np.maximum(ra.high - rb.low, rb.high - ra.low)
        return float(np.linalg.norm(span))
    pa, Ra = _witness_radius(a)
    pb, Rb = _witness_radius(b)
    return float(np.linalg.norm(pa - pb)) + Ra + Rb


def _witness_radius(node: HistogramNode):
    region = node.region
    if isinstance(region, Ball):
        return region.center, region.radius
    if isinstance(region, Box):
        return region.center, 0.5 * region.diameter()
    cert = node.certificate
    return cert.witness, cert.radius


def hist_distance(hist: SanitizedHistogram, x, y) -> float:
    """Distance induced by the smallest containing cells (see module doc)."""
    return hist_distance_with_diameters(hist, x, y)[0]


def hist_distance_with_diameters(hist, x, y):
    """(d_H, diam(C_x), diam(C_y)) with the diameters d_H itself uses."""
    leaf_x, leaf_y = leaves = locate_leaves(hist, np.stack([as_point(x), as_point(y)]))
    _certify_voronoi(leaves)
    return _leaf_pair_distance(leaf_x, leaf_y), leaf_diameter(leaf_x), leaf_diameter(leaf_y)


# ---------------------------------------------------------------------------
# expected diameters vs t-radius bounds


def grid_diameter_bound(d: int, t: int, r: float) -> float:
    """Per-point diameter bound 2 * min(d^1.5, t*d) * r * log2(1/r), with the
    level factor clamped to at least one level."""
    levels = max(math.log2(1.0 / r), 1.0) if r > 0 else 1.0
    return 2.0 * min(d**1.5, t * d) * r * levels


@dataclass
class DiameterStats:
    method: str
    t: int
    trials: int
    per_point: list  # (index, t_radius, mean_diameter, bound)
    fitted_coeff: float | None = None

    def all_within_bound(self) -> bool:
        return all(mean <= bound for _, _, mean, bound in self.per_point)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "t": self.t,
            "trials": self.trials,
            "fitted_coeff": self.fitted_coeff,
            "per_point": [
                {"index": i, "t_radius": r, "mean_diameter": m, "bound": b}
                for i, r, m, b in self.per_point
            ],
        }


def measure_diameters(
    dataset: Dataset,
    t: int,
    trials: int,
    seed: int = 0,
    method: str = "grid",
    max_depth: int = 8,
    support: Region | None = None,
    **builder_kwargs,
) -> DiameterStats:
    """Rebuild a randomized histogram `trials` times and compare each point's
    mean smallest-cell diameter with its t-radius bound.

    Grid bounds are closed-form; Voronoi bounds fit one coefficient kappa to
    mean ~ kappa * (max_depth * d * r + 2^-max_depth) and report it.
    """
    if method not in ("grid", "voronoi-greedy", "voronoi-uniform"):
        raise InputError("measure_diameters needs a randomized builder (grid or voronoi)")
    if trials < 1:
        raise InputError("trials must be positive")
    if dataset.n < 2:
        raise InputError("need at least two points")
    d = dataset.d
    radii = t_radii(dataset, t)

    sums = np.zeros(dataset.n)
    for trial in range(trials):
        tseed = int(substream(seed, "trial", trial).integers(0, 2**62))
        if method == "grid":
            hist = build_shifted_grid(dataset, t, max_depth, seed=tseed)
        else:
            if support is None:
                raise InputError("voronoi diameter measurement needs a support region")
            hist = build_voronoi(dataset, support, t, max_depth,
                                 method=method.split("-")[1], seed=tseed, **builder_kwargs)
        ids, leaves, bounds = _descend(hist, dataset.points)
        sums += _leaf_diameters(leaves, bounds)[ids]
    means = sums / trials

    per_point = []
    fitted = None
    if method == "grid":
        for i in range(dataset.n):
            per_point.append((i, float(radii[i]), float(means[i]),
                              grid_diameter_bound(d, t, float(radii[i]))))
    else:
        basis = max_depth * d * radii + 2.0 ** (-max_depth)
        fitted = float((means @ basis) / (basis @ basis))
        for i in range(dataset.n):
            per_point.append((i, float(radii[i]), float(means[i]),
                              fitted * float(basis[i])))
    return DiameterStats(method=method, t=t, trials=trials, per_point=per_point,
                         fitted_coeff=fitted)


# ---------------------------------------------------------------------------
# cut probability of small balls under random Voronoi partitions


def cut_probability(
    region: Region,
    x,
    r_values,
    m: int,
    trials: int,
    seed: int = 0,
    n_random_probes: int = 100,
) -> list[tuple[float, float, float]]:
    """Empirical probability that a ball around x is cut by a random Voronoi
    partition of the region (m uniform centers), for each radius.

    Probes are cumulative across the sorted radii under common random
    numbers, so the estimates are exactly monotone in r.  Probe-based cut
    detection can only miss cuts, biasing estimates down.
    """
    p = as_point(x)
    if not region.contains(p):
        raise InputError("x must lie inside the region")
    rho = certify_roundness(region).radius
    rs = np.sort(np.asarray(list(r_values), dtype=float))
    if rs.size == 0 or rs[0] <= 0:
        raise InputError("radii must be positive")
    if rs[-1] >= rho:
        raise InputError(f"radius {rs[-1]} is not below the cell radius {rho}")
    d = region.dim
    axis_dirs = np.concatenate([np.eye(d), -np.eye(d)])
    cuts = np.zeros(rs.size, dtype=float)
    for trial in range(trials):
        rng = substream(seed, "cut-trial", trial)
        centers = uniform_in_region(region, m, rng)
        rand = rng.standard_normal((n_random_probes, d))
        rand /= np.maximum(np.linalg.norm(rand, axis=1, keepdims=True), 1e-300)
        dirs = np.concatenate([axis_dirs, rand])
        pts = (p[None, None, :] + rs[:, None, None] * dirs[None, :, :]).reshape(-1, d)
        pts = np.concatenate([p[None, :], pts])
        assign = voronoi_assign(centers, pts)
        base = assign[0]
        per_r = assign[1:].reshape(rs.size, dirs.shape[0])
        cut_here = (per_r != base).any(axis=1)
        cuts += np.maximum.accumulate(cut_here)
    probs = cuts / trials
    return [
        (float(r), float(prob), float(math.sqrt(prob * (1 - prob) / trials)))
        for r, prob in zip(rs, probs)
    ]


# ---------------------------------------------------------------------------
# MST comparison


@dataclass
class MstComparison:
    actual_cost: float
    hist_cost: float
    gap: float
    gap_bound: float

    def to_dict(self) -> dict:
        return {
            "actual_cost": self.actual_cost,
            "hist_cost": self.hist_cost,
            "gap": self.gap,
            "gap_bound": self.gap_bound,
        }


def _prim(W: np.ndarray):
    n = W.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = W[0].copy()
    best_from = np.zeros(n, dtype=int)
    cost = 0.0
    edges = []
    for _ in range(n - 1):
        masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(masked))
        cost += float(masked[j])
        edges.append((int(best_from[j]), j))
        in_tree[j] = True
        upd = W[j] < best
        best = np.minimum(best, W[j])
        best_from[upd] = j
    return cost, edges


def _leaf_pair_matrix(leaf_objs: list) -> np.ndarray:
    """Symmetric matrix of ``_leaf_pair_distance`` over the leaves, pair by
    pair; mesh leaves take ``_box_pair_matrix`` instead."""
    _certify_voronoi(leaf_objs)
    L = len(leaf_objs)
    pair = np.zeros((L, L))
    for a in range(L):
        for b in range(a, L):
            pair[a, b] = pair[b, a] = _leaf_pair_distance(leaf_objs[a], leaf_objs[b])
    return pair


def _box_pair_matrix(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``_leaf_pair_matrix`` of box leaves given by their (L, d) corners, bit
    for bit: one array pass per row over the per-axis farthest spans."""
    L = low.shape[0]
    pair = np.zeros((L, L))
    for a in range(L):
        span = np.maximum(high[a] - low[a:], high[a:] - low[a])
        pair[a, a:] = pair[a:, a] = _row_norms(span)
    return pair


def mst_compare(hist: SanitizedHistogram, dataset: Dataset) -> MstComparison:
    """Exact Euclidean MST cost vs MST cost under the histogram distance.

    gap_bound sums the endpoint leaf diameters over the histogram MST's
    edges (the additive error the distance sandwich allows per edge).
    """
    if dataset.n < 2:
        raise InputError("MST comparison needs at least two points")
    pts = dataset.points
    diff = pts[:, None, :] - pts[None, :, :]
    W = np.linalg.norm(diff, axis=2)
    actual, _ = _prim(W)

    leaf_of, leaves, bounds = _descend(hist, pts)
    pair = _box_pair_matrix(*bounds) if bounds is not None else _leaf_pair_matrix(leaves)
    WH = pair[leaf_of][:, leaf_of]
    hist_cost, edges = _prim(WH)

    diam = _leaf_diameters(leaves, bounds)
    gap_bound = float(sum(diam[leaf_of[a]] + diam[leaf_of[b]] for a, b in edges))
    return MstComparison(
        actual_cost=float(actual),
        hist_cost=float(hist_cost),
        gap=float(hist_cost - actual),
        gap_bound=gap_bound,
    )
