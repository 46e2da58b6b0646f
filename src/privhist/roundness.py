"""Well-roundedness certification and privacy-condition validation.

A cell's certificate is a witness triple (k, R, p) with a ball of radius R/k
around p inside the cell and the cell inside a ball of radius R around p.
Box and ball cells use their exact centers and directional boundary
distances.  A Voronoi cell is one ``CellKernel``: the bisector halfspaces of
every Voronoi level above it, scored by ``geometry.center_scores`` as
membership is, plus the root's box faces or ball.  Its witness maximizes the
exact minimum margin (a concave subgradient ascent started at the cell's own
center), the inner radius is that margin, and the outer radius is the
largest exact ray exit over one fixed direction set (one seed-free stream
per dimension), with a 1% safety factor.  Certificates are approximate
witnesses and all downstream checks carry explicit slack.

A split's cover radius r1 is exact, read off each child cell's vertices
(``CellKernel.vertices``, by qhull from the same kernel); on a ball root it
can lean high by the Kelley tolerance, never low.

The privacy check takes each leaf and its parent from the tree's
``LeafTable`` in walk order, so it makes a node only for the cells it
checks.  It reads the same kernel once per leaf, for each probe's minimum
margin and a rounding slack (``probe_margins``).  A probe ball that lies
farther from the cell than its radius plus the slack is counted as
degenerate without sampling, because no sample could have landed in the
cell.  Every other probe ball's volume ratio takes the same margin and
slack: a sample nearer to the probe than its margin less the slack is in
the cell, and one nearer than minus the margin less the slack is out of it.
At d <= 4, a Voronoi leaf also gets an outer ball (``_outer_ball``) around
its own center, from the same kernel's vertices (the reach ``cover_check``
reads, ``_cell_reach``) plus a slack: a sample farther than that from the
own center is out of it.  Only the rest take the membership test.  On the
perfbench voronoi workload at seed 1, the margin decides 41% and 28% of the
two privacy steps' samples, the outer ball 44% and 51% more, and 15% and 22%
take the membership test.  These probes run on every usable core.  Every
report is byte-identical to sampling each probe and testing each sample, on
one thread.
"""

from __future__ import annotations

import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .geometry import (
    Ball,
    Box,
    Region,
    VoronoiClip,
    VoronoiNeighbours,
    as_point,
    center_scores,
    intersection_volume_ratio,
    row_norms,
    row_norms_dot,
    uniform_in_ball,
)
from .rng import substream

OUTER_SAFETY = 1.01
INNER_SAFETY = 1.001
CERT_SAMPLES = 128  # ray-exit directions per certificate
SPLIT_BOUND_SLACK = 1.1  # slack on the cover/spread bound of a split's children
KELLEY_TOL = 1e-4  # a ball root's tangent planes leave vertices within radius * (1 + this)


@dataclass(frozen=True)
class RoundnessCertificate:
    """Witness (k, R, p): B(p, R/k) inside the cell inside B(p, R)."""

    k: float
    radius: float
    witness: np.ndarray

    @property
    def inner_radius(self) -> float:
        return self.radius / self.k

    @property
    def envelope(self) -> tuple[np.ndarray, float]:
        """Ball (p, 1.02 R) that rejection sampling inside the cell draws from."""
        return self.witness, self.radius * 1.02


# ---------------------------------------------------------------------------
# the convex-cell kernel

_EXIT_BLOCK = 1 << 21  # elements per (cells, directions, centers) block in exits


class CellKernel:
    """The constraint set of B convex cells that share one ancestry.

    Cell b is the Voronoi cell of ``centers[own[b]]`` clipped to ``parent``;
    with no ``centers``, every cell is ``parent`` itself.
    Every Voronoi level, the new split and each ancestor clip, contributes
    the bisector halfspaces score_j(y) >= score_own(y), with scores from
    ``center_scores``; the root contributes its box faces or its ball.  Row b
    of each point array is read against cell b.  A margin's sign comes from
    the doubles that membership compares: min_margin > 0 implies
    ``contains_many`` and ``contains_many`` implies min_margin >= 0.
    ``tables`` holds each level's Delaunay table: ``neighbours``, then each clip's.
    """

    def __init__(self, parent: Region, own, centers=None, neighbours=None):
        own = np.asarray(own, dtype=np.intp)
        self.rows = np.arange(own.size)
        self.levels = []  # (centers, own, 2|c_own - c_j|), innermost first
        self.tables = []
        if centers is not None:
            self._add_level(np.asarray(centers, dtype=float), own, neighbours)
        node = parent
        while isinstance(node, VoronoiClip):
            self._add_level(node.centers, np.full(own.size, node.own_index), node.neighbours)
            node = node.parent
        if not isinstance(node, (Box, Ball)):
            raise InputError(f"unsupported root region {type(node).__name__}")
        self.root = node

    @classmethod
    def of(cls, region: Region, rows: int) -> CellKernel:
        """``rows`` copies of one region."""
        if isinstance(region, VoronoiClip):
            return cls(region.parent, np.full(rows, region.own_index), region.centers,
                       region.neighbours)
        return cls(region, np.zeros(rows, dtype=np.intp))

    def _add_level(self, centers: np.ndarray, own: np.ndarray, neighbours):
        self.tables.append(VoronoiNeighbours(centers) if neighbours is None else neighbours)
        # squares summed one axis at a time, as scipy's cdist sums them, so
        # span is 2 * cdist(centers[own], centers) bit for bit (.sum is not)
        mine = centers[own]
        square = np.zeros((own.size, centers.shape[0]))
        for k in range(centers.shape[1]):
            diff = np.subtract.outer(mine[:, k], centers[:, k])
            square += diff * diff
        span = 2.0 * np.sqrt(square)
        span[self.rows, own] = np.inf
        self.levels.append((centers, own, span))

    def _bisector_margins(self, Y: np.ndarray):
        """Per Voronoi level: (centers, own, span, margins (B, m))."""
        for centers, own, span in self.levels:
            scores = center_scores(centers, Y)
            margin = (scores - scores[self.rows, own][:, None]) / span
            margin[self.rows, own] = np.inf
            yield centers, own, span, margin

    def _root_margins(self, Y: np.ndarray):
        """Margins (B, K) of the root's box faces or ball, and their unit
        inward normals (B, K, d)."""
        root = self.root
        if isinstance(root, Ball):
            rel = Y - root.center
            dist = np.linalg.norm(rel, axis=1)
            normal = -rel / np.maximum(dist, 1e-300)[:, None]
            return (root.radius - dist)[:, None], normal[:, None, :]
        eye = np.eye(Y.shape[1])
        faces = np.vstack([eye, -eye])
        return (np.hstack([Y - root.low, root.high - Y]),
                np.broadcast_to(faces, (Y.shape[0],) + faces.shape))

    def bisector_margin(self, Y: np.ndarray) -> np.ndarray:
        """Smallest bisector margin at each row of Y over every Voronoi
        level, the root's constraint left out: the distance from a point of
        the unclipped cell to that cell's boundary."""
        best = np.full(Y.shape[0], np.inf)
        for *_, margin in self._bisector_margins(Y):
            np.minimum(best, margin.min(axis=1), out=best)
        return best

    def min_margin(self, Y: np.ndarray):
        """Minimum margin at each row of Y and the unit inward normal of the
        constraint that attains it."""
        best = np.full(Y.shape[0], np.inf)
        normal = np.zeros_like(Y)
        for centers, own, span, margin in self._bisector_margins(Y):
            j = np.argmin(margin, axis=1)
            mm = margin[self.rows, j]
            upd = mm < best
            normal[upd] = ((centers[own[upd]] - centers[j[upd]])
                           / (0.5 * span[upd, j[upd]])[:, None])
            best[upd] = mm[upd]
        margin, normals = self._root_margins(Y)
        j = np.argmin(margin, axis=1)
        mm = margin[self.rows, j]
        upd = mm < best
        normal[upd] = normals[self.rows, j][upd]
        best[upd] = mm[upd]
        return best, normal

    def bundle(self, Y: np.ndarray, cutoff: np.ndarray) -> np.ndarray:
        """Mean inward normal of the constraints with margin <= cutoff.

        Plain subgradient ascent on a min of margins stalls in corners where
        two constraints are active; the averaged normal of the near-active
        set points into the wedge interior and escapes them.
        """
        acc = np.zeros_like(Y)
        for centers, own, span, margin in self._bisector_margins(Y):
            w = (margin <= cutoff[:, None]) / (0.5 * span)
            # sum_j w_j (c_own - c_j), as two products
            acc += centers[own] * w.sum(axis=1)[:, None] - w @ centers
        margin, normals = self._root_margins(Y)
        active = margin <= cutoff[:, None]
        acc += (active[:, :, None] * normals).sum(axis=1)
        return _unit_rows(acc)

    def vertices(self, b: int, around: np.ndarray) -> np.ndarray:
        """Vertices of a polytope that contains cell b, whose farthest vertex
        from ``around`` is as far as the cell's farthest point (up to the
        Kelley tolerance on a ball root).  Its halfspaces are
        2 (c_j - c_own) x + |c_own|^2 - |c_j|^2 <= 0 for each level's Delaunay
        neighbours j (all other centers where the table lists none; any
        subset bounds a superset of the cell) and the root's box faces.  A
        ball root starts from its bounding box and adds a tangent plane at
        each vertex outside radius * (1 + KELLEY_TOL) that is farther from
        ``around`` than all vertices within it, until none is (Kelley 1960).
        """
        root, ball = self.root, isinstance(self.root, Ball)
        rows = []
        for (centers, own, _), table in zip(self.levels, self.tables):
            mine, cols = centers[own[b]], table.columns(own[b])
            others = np.delete(centers, own[b], axis=0) if cols is None else centers[cols[1:]]
            rows.append(np.hstack([2.0 * (others - mine),
                                   (mine @ mine - (others * others).sum(axis=1))[:, None]]))
        low, high = ((root.center - root.radius, root.center + root.radius) if ball
                     else (root.low, root.high))
        eye = np.eye(root.dim)
        rows.append(np.hstack([np.vstack([eye, -eye]), np.concatenate([-high, low])[:, None]]))
        halfspaces = np.vstack(rows)
        inside = self.levels[0][0][self.levels[0][1][b]] if self.levels else root.center
        V = _polytope_vertices(halfspaces, inside)
        while ball:
            rel = V - root.center
            reach = row_norms(rel)
            done = reach <= root.radius * (1.0 + KELLEY_TOL)
            dist = row_norms(V, around)
            far = ~done & (dist > dist[done].max(initial=-np.inf))
            if not far.any():
                break
            normal = rel[far] / reach[far, None]
            halfspaces = np.vstack([halfspaces, np.hstack(
                [normal, -(normal @ root.center + root.radius)[:, None]])])
            V = _polytope_vertices(halfspaces, inside)
        return V

    def exits(self, Y: np.ndarray, U: np.ndarray) -> np.ndarray:
        """Exact exit distance, shape (B, S), from row b of Y along each unit
        direction U[s]: each constraint that the ray runs toward contributes
        slack / rate."""
        B, S = Y.shape[0], U.shape[0]
        t_exit = np.full((B, S), np.inf)
        for centers, own, _ in self.levels:
            scores = center_scores(centers, Y)
            slack = scores - scores[self.rows, own][:, None]  # >= 0 inside the cell
            growth = -2.0 * (U @ centers.T)                   # rate of change of each score
            block = max(1, _EXIT_BLOCK // (S * centers.shape[0]))
            for lo in range(0, B, block):
                cells = slice(lo, lo + block)
                rate = growth[:, own[cells]].T[:, :, None] - growth[None]  # > 0 heading out
                with np.errstate(divide="ignore", invalid="ignore"):
                    t = slack[cells, None, :] / rate
                t[rate <= 0] = np.inf
                np.minimum(t_exit[cells], t.min(axis=2), out=t_exit[cells])
        root = self.root
        if isinstance(root, Ball):
            rel = Y - root.center
            b = (U[None, :, :] * rel[:, None, :]).sum(axis=2)
            disc = b**2 + (root.radius**2 - (rel * rel).sum(axis=1))[:, None]
            t = -b + np.sqrt(np.maximum(disc, 0.0))
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                t_hi = (root.high - Y)[:, None, :] / U
                t_lo = (root.low - Y)[:, None, :] / U
            t = np.where(U > 0, t_hi, np.where(U < 0, t_lo, np.inf)).min(axis=2)
        return np.minimum(t_exit, t)


def _polytope_vertices(halfspaces: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Vertices of {x : A x + c <= 0}, rows [A, c], by qhull (an interval in
    1-D).  qhull starts from ``inside``; where it refuses that point (a
    center on the root's boundary is not strictly inside), it retries once
    from the Chebyshev centre of these halfspaces, the x of largest r with
    A x + r |A_i| <= -c, found by linear programming.  A failure of both, or
    r <= 0, names ``inside``."""
    A, c = halfspaces[:, :-1], halfspaces[:, -1]
    if A.shape[1] == 1:
        ends = -c / A[:, 0]
        return np.array([[ends[A[:, 0] < 0].max()], [ends[A[:, 0] > 0].min()]])
    from scipy.spatial import HalfspaceIntersection, QhullError

    try:
        return HalfspaceIntersection(halfspaces, inside).intersections
    except QhullError as exc:
        reason = str(exc).splitlines()[0]
    from scipy.optimize import linprog

    d = A.shape[1]
    lp = linprog(-np.eye(d + 1)[d], A_ub=np.hstack([A, row_norms(A)[:, None]]), b_ub=-c,
                 bounds=[(None, None)] * d + [(0.0, None)], method="highs")
    if lp.status == 0 and lp.x[d] > 0:
        try:
            return HalfspaceIntersection(halfspaces, lp.x[:d]).intersections
        except QhullError as exc:
            reason = str(exc).splitlines()[0]
    raise DegenerateGeometryError(f"qhull cannot bound the cell of center {inside.tolist()}: "
                                  f"{reason}")


# ---------------------------------------------------------------------------
# witness ascent


def _ascend(kernel: CellKernel, Y0, step0, iters):
    Y = Y0.copy()
    best, grad = kernel.min_margin(Y)
    step = np.asarray(step0, dtype=float) * np.ones(Y.shape[0])
    for _ in range(iters):
        cand1 = Y + step[:, None] * grad
        m1, g1 = kernel.min_margin(cand1)
        cand2 = Y + step[:, None] * kernel.bundle(Y, best + 0.5 * step)
        m2, g2 = kernel.min_margin(cand2)
        use2 = m2 > m1
        cand = np.where(use2[:, None], cand2, cand1)
        m_new = np.where(use2, m2, m1)
        g_new = np.where(use2[:, None], g2, g1)
        improved = m_new > best
        Y[improved] = cand[improved]
        best[improved] = m_new[improved]
        grad[improved] = g_new[improved]
        step[improved] *= 1.2
        step[~improved] *= 0.5
    return Y, best


def _optimize_witnesses(kernel: CellKernel, Y0, step0, iters=36):
    """Concave ascent on the minimum margin; never leaves the cells.

    A second pass restarts from the first result with a margin-scaled step,
    recovering cells where the step collapsed before the corner escape."""
    Y, best = _ascend(kernel, Y0, step0, iters)
    restart = np.maximum(4.0 * best, 1e-12)
    Y2, best2 = _ascend(kernel, Y, restart, max(iters // 2, 16))
    take = best2 > best
    Y[take] = Y2[take]
    best[take] = best2[take]
    return Y, best


def boundary_distances(region: Region, p, dirs: np.ndarray) -> np.ndarray:
    """Distance from interior point p to the region boundary along each unit
    direction; exact ray intersection for every supported region."""
    return CellKernel.of(region, 1).exits(as_point(p)[None, :], dirs)[0]


def _unit_rows(V: np.ndarray) -> np.ndarray:
    return V / np.maximum(np.linalg.norm(V, axis=1, keepdims=True), 1e-300)


def _directions(d: int, samples: int) -> np.ndarray:
    """The first ``samples`` unit directions of the one fixed stream in R^d."""
    if samples < 8:
        raise InputError("certification needs at least 8 directions")
    return _unit_rows(substream(0, "certify-directions", d).standard_normal((samples, d)))


# ---------------------------------------------------------------------------
# certification


def certify_roundness(region: Region, samples: int = CERT_SAMPLES) -> RoundnessCertificate:
    """Compute a witness certificate (k, R, p) for a bounded convex cell."""
    if isinstance(region, (Box, Ball)):
        p = region.center
        t = boundary_distances(region, p, _directions(region.dim, samples))
        outer = float(t.max()) * OUTER_SAFETY
        inner = float(t.min()) / OUTER_SAFETY
        return RoundnessCertificate(k=outer / inner, radius=outer, witness=p)
    if not isinstance(region, VoronoiClip):
        raise InputError(f"cannot certify region type {type(region).__name__}")
    return certify_children(region.parent, region.centers, [region.own_index], samples)[0]


def certify_children(
    parent: Region,
    centers: np.ndarray,
    indices=None,
    samples: int = CERT_SAMPLES,
) -> list[RoundnessCertificate]:
    """Certificates for Voronoi cells of one split, computed jointly.

    All cells share the center list, so the witness ascent and the boundary
    exits run on one ``CellKernel`` for the whole batch.  Rows do not
    interact, but the batched products can round differently in another
    batch, so a cell's last bits depend on which cells share its batch;
    ``certify_nodes`` keeps one batching rule for that reason.
    """
    centers = np.asarray(centers, dtype=float)
    m, d = centers.shape
    idx = np.arange(m) if indices is None else np.asarray(indices, dtype=np.intp)
    kernel = CellKernel(parent, idx, centers)

    _, step0 = parent.bounding_ball()
    Y, inner = _optimize_witnesses(kernel, centers[idx].copy(), step0 * 0.25)
    inner = np.maximum(inner, 1e-14) / INNER_SAFETY
    outer = kernel.exits(Y, _directions(d, samples)).max(axis=1) * OUTER_SAFETY
    return [RoundnessCertificate(k=float(outer[b] / inner[b]), radius=float(outer[b]),
                                 witness=Y[b].copy())
            for b in range(idx.size)]


# ---------------------------------------------------------------------------
# cover / spread predicates


def _min_pair_distance(pts: np.ndarray) -> float:
    from scipy.spatial.distance import pdist

    return float(pdist(pts).min())


def well_spread_check(centers, r2: float) -> bool:
    """Exact pairwise check: every distinct pair at distance >= r2."""
    pts = np.asarray(centers, dtype=float)
    if pts.shape[0] < 2:
        raise InputError("well-spread check needs at least two centers")
    return _min_pair_distance(pts) >= r2


def cover_check(centers, region: Region, r1: float) -> tuple[bool, float]:
    """Exact covering audit: (covering radius <= r1, covering radius).

    The covering radius is the largest distance from a center to a vertex
    of its Voronoi cell in ``region`` (``CellKernel.vertices``), each capped
    at |c - c0| + radius on a ball.  It is exact on a box and high by at
    most the Kelley tolerance on a ball, so a covered verdict is sound.
    A center may lie on the region's boundary: qhull then starts from its
    cell's Chebyshev centre.  Centers outside ``region`` or repeated raise
    ``InputError``.
    """
    pts = np.asarray(centers, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != region.dim:
        raise InputError(f"cover check needs an (m, {region.dim}) array of centers, m >= 1")
    if not region.contains_many(pts).all():
        raise InputError("every center must lie in the region")
    if np.unique(pts, axis=0).shape[0] < pts.shape[0]:
        raise InputError("cover check needs distinct centers")
    worst = _cover_radius(CellKernel(region, np.arange(pts.shape[0]), pts))
    return worst <= r1, worst


def _cover_radius(kernel: CellKernel) -> float:
    """Largest ``_cell_reach`` from a cell's own center over the kernel's cells."""
    centers, own, _ = kernel.levels[0]
    return max(_cell_reach(kernel, b, c) for b, c in enumerate(centers[own]))


def _cell_reach(kernel: CellKernel, b: int, around: np.ndarray) -> float:
    """Largest distance from ``around`` to a vertex of cell b's polytope
    (``CellKernel.vertices``), or on a ball root to the far side of the ball
    when that is nearer: no point of the cell is farther from ``around``."""
    reach = row_norms(kernel.vertices(b, around), around).max()
    if isinstance(kernel.root, Ball):
        reach = min(reach, row_norms(around[None, :], kernel.root.center)[0] + kernel.root.radius)
    return float(reach)


# ---------------------------------------------------------------------------
# privacy condition (volume-ratio / containment dichotomy)


@dataclass
class PrivacyConditionReport:
    cells_checked: int
    probes_per_cell: int
    c: float
    epsilon_observed: float
    containment_count: int
    ratio_count: int
    degenerate_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def probe_margins(kernel: CellKernel, Y: np.ndarray, radii: np.ndarray):
    """Minimum margin m at each row of Y, shape (len(Y),), and the rounding
    slack e of each (row, radius) pair, shape (len(Y), len(radii)); row i of
    Y is read against the kernel's cell i.

    Every constraint is a halfspace or the root ball, so a point at distance
    t from y has margins no lower than m(y) - t and, on the constraint that
    attains m(y), no higher than m(y) + t.  The slack bounds the rounding of
    both sides of such a comparison for any point within a radius of y.
    With L the largest norm of a center, a root point or a point of the
    ball, and u = eps / 2, each ``center_scores`` double is within
    3 (d + 2) u L^2 of exact.  A margin divides a score difference by
    2|c_own - c_j| >= s, the smallest span over the cell's levels, so the
    margin at y and the membership test at a point each move a bisector by
    at most 6 (d + 2) u L^2 / s.  The root's faces and ball, the margin's
    division, a sampled radius, a computed distance |x - y| (the coordinate
    differences and the norm, at most (d + 3) u |x - y|) and the subtraction
    of e itself add less than (6 d + 28) u L.  The slack,
    16 (d + 2) u (L + L^2 / s), covers both.
    """
    margin = kernel.min_margin(Y)[0]
    root = kernel.root
    if isinstance(root, Ball):
        extent = float(np.linalg.norm(root.center)) + root.radius
    else:
        extent = float(np.linalg.norm(np.maximum(np.abs(root.low), np.abs(root.high))))
    span = np.inf
    for centers, _, level_span in kernel.levels:
        extent = max(extent, float(np.linalg.norm(centers, axis=1).max()))
        span = min(span, float(level_span.min()))
    reach = np.maximum(np.linalg.norm(Y, axis=1)[:, None] + radii, extent)
    slack = 8.0 * (Y.shape[1] + 2) * np.finfo(float).eps * (reach + reach * reach / span)
    return margin, slack


def check_privacy_condition(
    root_node,
    c: float,
    q_probes: int = 8,
    r_grid_size: int = 8,
    volume_samples: int = 20_000,
    seed: int = 0,
    max_cells: int | None = None,
) -> PrivacyConditionReport:
    """Probe every leaf cell for the containment-or-small-ratio dichotomy.

    For each leaf C with parent P, probe points q in an inflated ball around
    C's witness (radius 2R, covering exterior q) against a geometric radius
    grid; each (q, r) either satisfies the sufficient containment test
    c*r >= |q - p_P| + R_P or contributes a Monte Carlo volume ratio.  The
    report's epsilon is the worst ratio observed.

    The i-th leaf of ``LeafTable(root_node)`` in walk order, seeded by i,
    is checked for i < ``max_cells``, with P its ``parent(i)`` (a root leaf
    is its own); only these cells get a node.  The probes' margins m and
    rounding slacks e come from one ``CellKernel`` of the leaf
    (``probe_margins``).  Containment is decided for every (q, r) at once,
    |q - p_P| being the single-vector norm (``row_norms_dot``).  A probe
    that fails it and has -m > c*r + e is counted as degenerate without
    sampling: ``intersection_volume_ratio`` would have found no sample in
    the cell and raised ``DegenerateGeometryError``.  Every probe has its
    own pre-drawn seed, so skipping one shifts no other stream.  The rest
    each take one ``intersection_volume_ratio``, passed the same margin and
    slack and, for a Voronoi leaf at d <= ``VoronoiNeighbours.MAX_DIM``,
    the leaf's ``_outer_ball`` from the same kernel; these place most of its
    samples without the membership test.  They run on the usable cores
    (``_volume_ratios``), after the Delaunay tables their membership tests
    read and the outer balls are built, and their results are read back in
    row-major (cell, q, r) order.  The report is byte-identical to sampling
    every probe and testing every sample, one after another.  Leaf and
    parent certificates come from one ``certify_nodes`` call.
    """
    from .sanitizer import LeafTable, certify_nodes  # the sanitizer imports this module

    if not c > 1:
        raise InputError("requires c > 1")
    counts = {"q_probes": q_probes, "r_grid_size": r_grid_size,
              "volume_samples": volume_samples, "max_cells": max_cells}
    for name, value in counts.items():
        if value is not None and value < 1:
            raise InputError(f"{name} must be at least 1")
    leaves = LeafTable(root_node)
    pairs = [(leaves.node(i), leaves.parent(i)) for i in range(leaves.count.size)[:max_cells]]
    certs = certify_nodes([node for pair in pairs for node in pair])

    containment = degenerate = 0
    probes = []  # (region, q, r, seed, (m, e, outer)), row-major (cell, q, r)
    for cell_id, (leaf, _) in enumerate(pairs):
        cert_c, cert_p = certs[2 * cell_id], certs[2 * cell_id + 1]
        rng = substream(seed, "privacy-q", cell_id)
        qs = uniform_in_ball(cert_c.witness, 2.0 * cert_c.radius, q_probes, rng)
        rs = np.geomspace(cert_c.radius / 1e4, 2.0 * cert_c.radius, r_grid_size)
        sub_seeds = rng.integers(0, 2**62, size=(q_probes, r_grid_size))
        kernel = CellKernel.of(leaf.region, q_probes)
        margin, slack = probe_margins(kernel, qs, c * rs)
        contained = c * rs >= row_norms_dot(qs - cert_p.witness)[:, None] + cert_p.radius
        missed = ~contained & (-margin[:, None] > c * rs + slack)
        containment += int(contained.sum())
        degenerate += int(missed.sum())
        sampled = np.nonzero(~(contained | missed))
        outer = None
        if sampled[0].size:
            _build_tables(leaf.region)
            if (isinstance(leaf.region, VoronoiClip)
                    and leaf.region.dim <= VoronoiNeighbours.MAX_DIM):
                outer = _outer_ball(kernel, cert_c.witness, float(slack.max()))
        probes += [(leaf.region, qs[qi], float(rs[ri]), int(sub_seeds[qi, ri]),
                    (margin[qi], slack[qi, ri], outer)) for qi, ri in zip(*sampled)]
    ratios = [ratio for ratio in _volume_ratios(probes, c, volume_samples) if ratio is not None]
    return PrivacyConditionReport(
        cells_checked=len(pairs),
        probes_per_cell=q_probes * r_grid_size,
        c=c,
        epsilon_observed=max([0.0, *ratios]),
        containment_count=containment,
        ratio_count=len(ratios),
        degenerate_count=degenerate + len(probes) - len(ratios),
    )


def _outer_ball(kernel: CellKernel, witness: np.ndarray, slack: float):
    """(o, R) for cell 0 of ``kernel``, its own center o and a radius R such
    that membership rejects every point at a computed distance above R from
    o; None when qhull cannot bound the cell or the witness lies within the
    slack of its boundary.

    Let e be ``slack``, the largest of the cell's probe slacks, which bounds
    how far membership's doubles blur a constraint, and the rounding of a
    computed margin or distance, anywhere a probe samples.  The polytope
    P of ``_cell_reach`` holds the cell, and its vertices by qhull are taken
    as the exact vertices of a polytope P' whose halfspaces are P's moved by
    at most e (each is formed from the centers as a score is).  So every
    point that membership accepts violates no halfspace of P' by more than
    2e.  The witness z has margin m' >= m - 2e in P', for m its computed
    minimum margin, so a point x that violates every halfspace of P' by at
    most 2e lies within 2e |x - z| / m' of P' (the segment from x toward z
    enters P' there), hence within R' + 2e (R' + |o - z|) / (m' - 2e) of o,
    for R' the reach of P' from o.  R adds to the computed reach the slack of
    R', of that bound and of the computed distance.  On a ball root the
    reach may be capped at |o - c0| + radius, which membership's norm
    overshoots by at most e.
    """
    centers, own, _ = kernel.levels[0]
    o = centers[own[0]]
    try:
        reach = _cell_reach(kernel, 0, o)
    except DegenerateGeometryError:
        return None
    inner = kernel.min_margin(np.tile(witness, (own.size, 1)))[0][0] - 4.0 * slack
    if not inner > 0:
        return None
    spread = reach + slack + float(np.linalg.norm(o - witness))
    return o, reach + 2.0 * slack * (1.0 + spread / inner)


def _build_tables(region: Region):
    """Build the Delaunay table of a Voronoi cell and of every clip above
    it, which membership builds on first use, so that threads only read them."""
    while isinstance(region, VoronoiClip):
        region.neighbours.columns(region.own_index)
        region = region.parent


def _volume_ratios(probes, c: float, samples: int) -> list:
    """Each probe's ``intersection_volume_ratio``, None where it is degenerate,
    in the order given.

    The caller and a pool of w - 1 threads, for w the usable cores (at most
    one per probe), each take the next probe that no thread has taken, so a
    thread whose core is busy elsewhere holds up no other; one core or one
    probe starts no thread.  Each probe draws from its own seed and only
    reads shared state, so the results depend neither on w nor on the
    schedule; numpy releases the GIL in the sampling, the scoring and the
    argmin, which lets the threads overlap.  A thread's exception,
    ``MemoryError`` included, stops every thread at its next probe and is
    raised here.
    """
    ratios = [None] * len(probes)
    todo, taking = iter(range(len(probes))), threading.Lock()
    failed = threading.Event()

    def work():
        try:
            while not failed.is_set():
                with taking:
                    j = next(todo, None)
                if j is None:
                    break
                region, q, r, seed, margin = probes[j]
                try:
                    ratios[j] = intersection_volume_ratio(q, r, c, region, samples, seed=seed,
                                                          margin=margin)[0]
                except DegenerateGeometryError:
                    pass
        except BaseException:
            failed.set()
            raise

    try:
        w = min(len(os.sched_getaffinity(0)), len(probes))
    except AttributeError:  # no CPU affinity on this platform
        w = min(os.cpu_count() or 1, len(probes))
    if w <= 1:
        work()
        return ratios
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(w - 1) as pool:
        futures = [pool.submit(work) for _ in range(w - 1)]
        work()
        for future in futures:
            future.result()
    return ratios


# ---------------------------------------------------------------------------
# per-split audits of built Voronoi histograms


@dataclass
class SplitAudit:
    """One Voronoi split: its centers' exact cover radius r1 (high only by the
    Kelley tolerance on ball roots) and spread r2, and its cells' roundness."""

    level: int
    r1: float
    r2: float
    parent_k: float
    child_ks: list

    def cover_spread_bound(self) -> float:
        return 4.0 * self.r1 * self.parent_k / self.r2 * SPLIT_BOUND_SLACK


def audit_voronoi_splits(root_node) -> list[SplitAudit]:
    """Audit every split of a Voronoi-built tree, in walk order.

    For each subdivided cell: take the parent's and every child's
    certificate from one ``certify_nodes`` call, and measure the emitted
    centers' exact spread radius r2 and exact cover radius r1, from the
    children's polytopes and the split's shared Delaunay table.  No sample
    is drawn.  Consumers check the roundness recurrences against these
    records.
    """
    from .sanitizer import VoronoiSplit, certify_nodes  # the sanitizer imports this module

    split_nodes = [node for node in root_node.walk() if isinstance(node.split, VoronoiSplit)]
    certs = certify_nodes(split_nodes + [ch for node in split_nodes for ch in node.children])
    child_ks = iter([cert.k for cert in certs[len(split_nodes):]])
    return [SplitAudit(level=node.level,
                       r1=_cover_radius(CellKernel(node.region, np.arange(node.split.size),
                                                   node.split.centers, node.split.neighbours)),
                       r2=_min_pair_distance(node.split.centers), parent_k=cert.k,
                       child_ks=[next(child_ks) for _ in range(node.split.size)])
            for node, cert in zip(split_nodes, certs)]
