"""Histogram-induced distance, expected cell diameters, cut probabilities,
and MST cost comparison against sanitized histograms.

The histogram distance between two points is the furthest distance between
their smallest containing cells (sup-sup).  One pass of all points through
``LeafTable(hist.root)``, a whole depth at a time, gives each point's
leaf, and the leaves are read as arrays of one of two kinds.  Mesh leaves,
and a box root that never split, are boxes whose corners the table holds;
two boxes are the norm of their per-axis farthest spans apart, which is
exact.  Every other leaf is a ball (p, R) containing it, a ball root's own
or a Voronoi cell's certificate, and two balls are the upper bound
|p_x - p_y| + R_x + R_y apart.  A box's diameter is its diagonal, a ball's
2R.  Both kinds satisfy the two-sided sandwich
|x - y| <= d_H(x, y) <= |x - y| + diam(C_x) + diam(C_y).

Expected grid diameters skip the tree: the grids' arrays (``_shifted_grid``,
which grows a group of trials as one frontier) already hold each dataset
row's leaf corners in each trial, written as the rows are split, and
``measure_diameters`` takes the box diagonals from those; a grid trial
makes no node and no split.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .geometry import (Dataset, Region, as_point, root_support, row_norms, row_norms_dot,
                       t_radii, uniform_in_region, voronoi_assign)
from .rng import child_seed, substream
from .roundness import CellKernel, certify_roundness
from .sanitizer import (HistogramNode, LeafTable, SanitizedHistogram, _shifted_grid,
                        certify_nodes, resolve_method, sanitize)


# ---------------------------------------------------------------------------
# leaf location and leaf geometry


def locate_leaves(hist: SanitizedHistogram, X: np.ndarray) -> list[HistogramNode]:
    """Leaf per row of X; only the leaves that rows reach get a node."""
    table, ids, reached = _descend(hist, X)
    leaves = [table.node(i) for i in reached.tolist()]
    return [leaves[i] for i in ids.tolist()]


def _checked_rows(hist: SanitizedHistogram, X) -> np.ndarray:
    """X as an (n, d) float array of rows inside the root."""
    X = np.asarray(X, dtype=float)
    region = hist.root.region
    if X.ndim != 2 or X.shape[1] != region.dim:
        raise InputError(f"points must form an (n, {region.dim}) array")
    inside = region.contains_many(X)
    if not inside.all():
        raise InputError(f"point index {int(np.flatnonzero(~inside)[0])} is outside the root")
    return X


def _descend(hist: SanitizedHistogram, X: np.ndarray):
    """One location of all rows of X through the histogram's ``LeafTable``:
    (table, ids, reached), making no node.

    ``reached`` lists the walk-order indices of the leaves that rows reach,
    in order of each leaf's first row, and ``ids[r]`` indexes row r's leaf
    there.
    """
    X = _checked_rows(hist, X)
    table = LeafTable(hist.root)
    reached, firsts, ids = np.unique(table.locate(X), return_index=True, return_inverse=True)
    order = np.argsort(firsts)
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    return table, rank[ids], reached[order]


def _leaf_geometry(hist: SanitizedHistogram, X: np.ndarray):
    """(ids, geometry): each row's index among the leaves reached, as
    ``_descend`` numbers them, and those leaves as arrays of one kind:
    ``(True, low, high)``, the (L, d) corners of box leaves, or ``(False, P,
    R)``, the (L, d) centers and (L,) radii of balls containing the leaves.
    A ball root gives its own; a Voronoi cell gives its certificate's
    witness and radius, from one ``certify_nodes`` batch per split."""
    table, ids, reached = _descend(hist, X)
    if table.low is not None:
        return ids, (True, table.low[reached], table.high[reached])
    root = hist.root
    if root.split is None:  # a ball root that never split
        return ids, (False, root.region.center[None], np.array([root.region.radius]))
    certs = certify_nodes([table.node(i) for i in reached.tolist()])
    return ids, (False, np.array([c.witness for c in certs]).reshape(-1, hist.d),
                 np.array([c.radius for c in certs]))


def _diameters(boxes: bool, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Each leaf's diameter: the box diagonal, or twice the ball radius."""
    return row_norms_dot(B - A) if boxes else 2.0 * B


def _pair_distances(boxes: bool, A: np.ndarray, B: np.ndarray, i, j) -> np.ndarray:
    """sup-sup distance from leaves ``i`` to leaves ``j`` (index arrays, or an
    index and a slice, broadcast): the norm of the farthest-corner span of
    two boxes, or ``(|p_i - p_j| + R_i) + R_j`` for two balls."""
    if boxes:
        return row_norms_dot(np.maximum(B[i] - A[j], B[j] - A[i]))
    return row_norms_dot(A[i] - A[j]) + B[i] + B[j]


def _pair_matrix(geometry) -> np.ndarray:
    """Symmetric (L, L) matrix of ``_pair_distances``, one array row at a
    time: entry (a, b) with a <= b is the distance from a to b, mirrored."""
    L = geometry[1].shape[0]
    pair = np.zeros((L, L))
    for a in range(L):
        pair[a, a:] = pair[a:, a] = _pair_distances(*geometry, a, np.s_[a:])
    return pair


def hist_distance(hist: SanitizedHistogram, x, y) -> float:
    """Distance induced by the smallest containing cells (see module doc)."""
    dh, _, _ = hist_distance_with_diameters(hist, as_point(x)[None], as_point(y)[None])
    return float(dh[0])


def hist_distance_with_diameters(hist: SanitizedHistogram, X, Y):
    """(d_H, diam(C_x), diam(C_y)) of each row pair of the (n, d) arrays X
    and Y, with the diameters d_H itself uses; one descent locates all 2n
    points."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        raise InputError(f"point arrays differ in shape: {X.shape} vs {Y.shape}")
    ids, geometry = _leaf_geometry(hist, np.concatenate([X, Y]))
    ix, iy = ids[:len(X)], ids[len(X):]
    diam = _diameters(*geometry)
    return _pair_distances(*geometry, ix, iy), diam[ix], diam[iy]


# ---------------------------------------------------------------------------
# expected diameters vs t-radius bounds

GRID_GROUP_ROWS = 1 << 15  # dataset rows, summed over its trials, that one grid frontier holds


def grid_diameter_bounds(d: int, t: int, radii: np.ndarray) -> np.ndarray:
    """Per-point diameter bound 2 * min(d^1.5, t*d) * r * log2(1/r) of each
    of the radii, with the level factor clamped to at least one level (and
    one level at r = 0).  Each double is that of the one-point formula
    ``2.0 * min(d**1.5, t * d) * r * max(math.log2(1.0 / r), 1.0)``: the
    same operations in the same order, with ``math.log2`` per element
    (numpy's log2 may differ from it in the last bit)."""
    levels = np.ones(radii.size)
    positive = np.flatnonzero(radii > 0)
    with np.errstate(over="ignore"):  # 1 / r is inf below 2^-1024, as in Python
        inverse = 1.0 / radii[positive]
    logs = np.fromiter(map(math.log2, inverse.tolist()), dtype=float, count=positive.size)
    levels[positive] = np.maximum(logs, 1.0)
    return 2.0 * min(d**1.5, t * d) * radii * levels


@dataclass
class DiameterStats:
    method: str
    t: int
    trials: int
    per_point: list  # (index, t_radius, mean_diameter, bound)
    fitted_coeff: float | None = None

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
    max_depth: int | None = None,
    support: Region | None = None,
    **builder_kwargs,
) -> DiameterStats:
    """Rebuild a randomized histogram `trials` times and compare each point's
    mean smallest-cell diameter with its t-radius bound.

    ``max_depth``, ``support`` and ``builder_kwargs`` are checked and
    defaulted once by ``resolve_method``, as ``sanitize`` does.  Grid
    trials are grown together by ``_shifted_grid``, in groups of about
    ``GRID_GROUP_ROWS`` rows summed over a group's trials; a trial reads
    only the corners of each row's leaf, which ``_shifted_grid`` wrote
    while splitting the rows and running the builder's checks and offset
    redraws, so it makes no node and takes no descent.  A
    Voronoi build, made by ``sanitize``, locates the rows once per trial
    through its leaf table and reads its leaves as certificate balls.  Grid
    bounds are closed-form; Voronoi bounds fit one coefficient kappa to
    mean ~ kappa * (max_depth * d * r + 2^-max_depth) and report it.
    """
    if method not in ("grid", "voronoi-greedy", "voronoi-uniform"):
        raise InputError("measure_diameters needs a randomized builder (grid or voronoi)")
    if trials < 1:
        raise InputError("trials must be positive")
    if dataset.n < 2:
        raise InputError("need at least two points")
    max_depth, support = resolve_method(dataset, method, max_depth, support, **builder_kwargs)
    d = dataset.d
    radii = t_radii(dataset, t)

    sums = np.zeros(dataset.n)
    if method == "grid":
        group = max(1, GRID_GROUP_ROWS // dataset.n)
        for first in range(0, trials, group):
            seeds = [child_seed(seed, "trial", i) for i in range(first, min(first + group, trials))]
            # the group's corners are dropped before the next group grows
            diameters = _diameters(True, *_shifted_grid(dataset, t, max_depth, seeds, support)[3:])
            for trial in diameters.reshape(len(seeds), dataset.n):
                sums += trial
    else:
        for trial in range(trials):
            hist = sanitize(dataset, method, t, max_depth, seed=child_seed(seed, "trial", trial),
                            support=support, **builder_kwargs)
            ids, geometry = _leaf_geometry(hist, dataset.points)
            sums += _diameters(*geometry)[ids]
    means = sums / trials

    fitted = None
    if method == "grid":
        bounds = grid_diameter_bounds(d, t, radii).tolist()
    else:
        basis = max_depth * d * radii + 2.0 ** (-max_depth)
        fitted = float((means @ basis) / (basis @ basis))
        bounds = [fitted * b for b in basis.tolist()]
    per_point = list(zip(range(dataset.n), radii.tolist(), means.tolist(), bounds))
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
) -> list[tuple[float, float, float]]:
    """Empirical probability that a ball around x is cut by a random Voronoi
    partition of the region (m uniform centers), for each radius.

    The rule is exact: B(x, r) is cut when x lies closer than r to the
    boundary of its own cell, and that distance is the smallest bisector
    margin (s_j - s_own) / (2 |c_j - c_own|) over j != own, with s the
    ``center_scores`` of x and own their argmin (ties to the lowest index,
    as in ``voronoi_assign``).  A tie, margin exactly r, is not a cut: the
    open ball stays inside the closed cell.  The region's own boundary is
    no constraint, so a ball reaching outside the support is not cut by it.
    One margin per trial answers every radius, so the estimates are
    monotone in r by construction.
    """
    p = as_point(x)
    if not region.contains(p):
        raise InputError("x must lie inside the region")
    if m < 1 or trials < 1:
        raise InputError("m and trials must be at least 1")
    rs = np.sort(np.asarray(list(r_values), dtype=float))
    if not np.all(np.isfinite(rs)):
        raise InputError("radii must be finite")
    if rs.size == 0 or rs[0] <= 0:
        raise InputError("radii must be positive")
    rho = certify_roundness(region).radius
    if rs[-1] >= rho:
        raise InputError(f"radius {rs[-1]} is not below the cell radius {rho}")
    root = root_support(region)
    margins = np.empty(trials)
    for trial in range(trials):
        centers = uniform_in_region(region, m, substream(seed, "cut-trial", trial))
        own = voronoi_assign(centers, p[None, :])
        margins[trial] = CellKernel(root, own, centers).bisector_margin(p[None, :])[0]
    probs = np.searchsorted(np.sort(margins), rs, side="left") / trials
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
        return asdict(self)


def _prim(n: int, weights):
    """Prim's MST over n vertices from ``weights(j)``, the (n,) weight row of
    vertex j, asked for once per vertex as it joins the tree: O(n) memory.

    One key array holds each free vertex's lightest edge to the tree, and
    +inf for a vertex in it, set as the vertex joins; a row lowers the keys
    of the free vertices it beats, so ties keep the earlier vertex's edge
    and ``argmin`` takes the lowest index among equal keys."""
    free = np.ones(n, dtype=bool)
    free[0] = False
    key = np.array(weights(0), dtype=float)
    key[0] = np.inf
    best_from = np.zeros(n, dtype=int)
    lower = np.empty(n, dtype=bool)
    cost = 0.0
    edges = []
    for _ in range(n - 1):
        j = int(np.argmin(key))
        cost += float(key[j])
        edges.append((int(best_from[j]), j))
        free[j] = False
        key[j] = np.inf
        row = weights(j)
        np.less(row, key, out=lower)
        lower &= free
        np.copyto(key, row, where=lower)
        best_from[lower] = j
    return cost, edges


def mst_compare(hist: SanitizedHistogram, dataset: Dataset) -> MstComparison:
    """Exact Euclidean MST cost vs MST cost under the histogram distance.

    gap_bound sums the endpoint leaf diameters over the histogram MST's
    edges (the additive error the distance sandwich allows per edge).
    Both trees take their weights one row at a time, so beyond the (L, L)
    leaf pair matrix the working memory is O(n).
    """
    n = dataset.n
    if n < 2:
        raise InputError("MST comparison needs at least two points")
    pts = dataset.points
    # row_norms is norm(axis=1) bit for bit, and |x - y| = |y - x| exactly
    actual, _ = _prim(n, lambda j: row_norms(pts, pts[j]))

    leaf_of, geometry = _leaf_geometry(hist, pts)
    pair = _pair_matrix(geometry)
    hist_cost, edges = _prim(n, lambda j: pair[leaf_of[j]][leaf_of])

    ends = leaf_of[np.array(edges)]
    diam = _diameters(*geometry)
    # summed one edge at a time in Prim's order (np.sum would add pairwise)
    gap_bound = float(np.cumsum(diam[ends[:, 0]] + diam[ends[:, 1]])[-1])
    return MstComparison(
        actual_cost=float(actual),
        hist_cost=float(hist_cost),
        gap=float(hist_cost - actual),
        gap_bound=gap_bound,
    )
