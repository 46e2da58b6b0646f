"""Points, datasets, regions, distances, volumes and t-radii.

Conventions
-----------
* Points are 1-D float64 arrays; a Dataset wraps an (n, d) array.
* Boxes are closed on low faces and open on high faces, except faces flagged
  in ``closed_high`` (the global root box is closed on all faces), so every
  subdivision produced by the sanitizers is a true partition.
* Balls are closed.
* Voronoi ties break toward the lowest center index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InputError
from .rng import substream


# ---------------------------------------------------------------------------
# points and datasets


def as_point(coords) -> np.ndarray:
    p = np.asarray(coords, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1 or p.size < 1:
        raise InputError("a point must be a 1-D sequence with at least one coordinate")
    if not np.all(np.isfinite(p)):
        raise InputError("point coordinates must be finite")
    return p


class Dataset:
    """Ordered collection of n points in d-dimensional Euclidean space."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise InputError("dataset points must form an (n, d) array")
        if pts.shape[0] > 0 and pts.shape[1] < 1:
            raise InputError("dataset dimension must be >= 1")
        if not np.all(np.isfinite(pts)):
            raise InputError("dataset coordinates must be finite")
        self._points = pts
        self._points.setflags(write=False)

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def d(self) -> int:
        return self._points.shape[1]


def row_norms(X: np.ndarray, center=None) -> np.ndarray:
    """``np.linalg.norm(X - center, axis=1)`` of an (n, d) array, bit for
    bit; no center is the origin.  ``row_norms_dot`` matches the norm of a
    single vector instead, and the two can differ in the last bit.

    numpy adds a row's squares one after another while the row has fewer
    than 8 entries and pairwise from 8 on.  Below d = 8 the squares are
    added here one column at a time, in the same order, and the differences
    are taken a column at a time too: numpy's per-row loops over a few
    columns cost several times the arithmetic.  From d = 8 numpy computes
    the norms.
    """
    d = X.shape[1]
    if d >= 8:
        return np.linalg.norm(X if center is None else X - center, axis=1)
    total = np.zeros(X.shape[0])
    for k in range(d):
        col = X[:, k] if center is None else X[:, k] - center[k]
        total += col * col
    return np.sqrt(total, out=total)


def row_norms_dot(V: np.ndarray) -> np.ndarray:
    """Euclidean length of each row as ``sqrt(v @ v)``, the same dot product
    ``np.linalg.norm`` takes of a single vector, so bit for bit equal to it.
    ``row_norms`` matches ``norm(axis=1)`` instead, which (like ``einsum``)
    sums in another order and can differ in the last bit."""
    return np.sqrt(V[:, None, :] @ V[:, :, None])[:, 0, 0]


def distance(x, y) -> float:
    """Euclidean distance; raises InputError on dimension mismatch."""
    a, b = as_point(x), as_point(y)
    if a.shape != b.shape:
        raise InputError(f"dimension mismatch: {a.size} vs {b.size}")
    return float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# regions


class Region:
    """Base class for membership-decidable bounded convex regions."""

    dim: int

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x) -> bool:
        p = as_point(x)
        if p.size != self.dim:
            raise InputError(f"dimension mismatch: region is {self.dim}-d, point is {p.size}-d")
        return bool(self.contains_many(p.reshape(1, -1))[0])

    def bounding_ball(self) -> tuple[np.ndarray, float]:
        """(center, radius) of a ball guaranteed to contain the region."""
        raise NotImplementedError


@dataclass(frozen=True)
class Box(Region):
    low: np.ndarray
    high: np.ndarray
    closed_high: np.ndarray = None  # per-axis bool; None means open everywhere

    def __post_init__(self):
        lo = np.asarray(self.low, dtype=float)
        hi = np.asarray(self.high, dtype=float)
        object.__setattr__(self, "low", lo)
        object.__setattr__(self, "high", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("box low/high must be 1-D arrays of equal length")
        if not np.all(lo < hi):
            raise InputError("box requires low[i] < high[i] on every axis")
        ch = self.closed_high
        if ch is None:
            ch = np.zeros(lo.size, dtype=bool)
        else:
            ch = np.asarray(ch, dtype=bool)
            if ch.shape != lo.shape:
                raise InputError("closed_high must match box dimension")
        object.__setattr__(self, "closed_high", ch)

    @property
    def dim(self) -> int:
        return self.low.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.low + self.high)

    @property
    def sides(self) -> np.ndarray:
        return self.high - self.low

    def diameter(self) -> float:
        return float(np.linalg.norm(self.sides))

    def volume(self) -> float:
        return float(np.prod(self.sides))

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        below = np.where(self.closed_high, X <= self.high, X < self.high)
        return np.logical_and(X >= self.low, below).all(axis=1)

    def bounding_ball(self):
        return self.center, 0.5 * self.diameter()


@dataclass(frozen=True)
class Ball(Region):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_point(self.center)
        object.__setattr__(self, "center", c)
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InputError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def diameter(self) -> float:
        return 2.0 * self.radius

    def volume(self) -> float:
        return unit_ball_volume(self.dim) * self.radius**self.dim

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return row_norms(X, self.center) <= self.radius

    def bounding_ball(self):
        return self.center, self.radius


class VoronoiNeighbours:
    """Delaunay neighbours of each center of one (m, d) array, built on first use.

    Two Voronoi cells that share a facet are joined by a Delaunay edge
    (qhull, through ``scipy.spatial.Delaunay``), so only a center's
    neighbours can bound its cell.  ``columns(i)`` lists i first, then its
    neighbours, when they are at most ``m / PREFILTER_RATIO`` columns, and
    is None otherwise: where the two-stage membership test of
    ``VoronoiClip`` would score nearly as many columns as the full argmin,
    it costs more than it saves.  Every vertex of a full-dimensional
    triangulation has at least d neighbours, so no table is built when
    m < PREFILTER_RATIO (d + 1), nor at d = 1 or d > MAX_DIM, nor when qhull
    raises, as on collinear centers in the plane.  ``radius`` is the
    largest center norm.

    On the perfbench voronoi workload (seed 1, one BLAS thread), the
    two-stage test took 0.23 to 0.41 of the full argmin's time on the
    256-center split, whose cells have 4 to 10 columns, and 0.92 to 1.45
    times it on the 40-center split, with 6 to 8.  Past d = 4 the
    triangulation is slow to build (0.66 s at d = 5 and 5.3 s at d = 6
    for 512 centers), and at 128 centers its mean degree is already m / 3
    (d = 5) to m / 2 (d = 6), far past the gate.
    """

    PREFILTER_RATIO = 8
    MAX_DIM = 4

    __slots__ = ("centers", "radius", "_columns", "_built")

    def __init__(self, centers: np.ndarray):
        self.centers = centers
        self.radius = math.inf
        self._columns = None
        self._built = False

    def columns(self, i: int) -> np.ndarray | None:
        if not self._built:
            self._build()
        return None if self._columns is None else self._columns[i]

    def _build(self):
        columns = self._delaunay_columns()
        if columns is not None:
            self.radius = float(np.linalg.norm(self.centers, axis=1).max())
            self._columns = columns
        # set last, so a thread that reads it set finds the whole table
        self._built = True

    def _delaunay_columns(self):
        m, d = self.centers.shape
        if d == 1 or d > self.MAX_DIM or m < self.PREFILTER_RATIO * (d + 1):
            return None
        from scipy.spatial import Delaunay, QhullError

        try:
            indptr, indices = Delaunay(self.centers).vertex_neighbor_vertices
        except QhullError:
            return None
        limit = m // self.PREFILTER_RATIO
        return [np.concatenate(([i], indices[lo:hi])) if hi - lo + 1 <= limit else None
                for i, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:]))]


class VoronoiClip(Region):
    """Voronoi cell of one center among siblings, clipped to a parent region.

    ``centers`` holds the full ordered center list (own + siblings); ties in
    the nearest-center assignment break toward the lowest index, which makes
    sibling cells disjoint and exhaustive on the parent.

    Membership runs in two stages.  Stage 1 scores each row against the own
    center and its Delaunay ``neighbours`` only, and rejects the row when a
    neighbour's score is below the own score by more than ``tau``, a bound
    on the rounding of two ``center_scores`` evaluations.  Such a row's full
    argmin certainly goes elsewhere, and any subset of centers would make a
    sound stage 1.  Stage 2 decides the surviving rows as membership always
    has: the full argmin over every center, then the parent.  So the result
    is byte-identical to the full argmin over all rows, given a BLAS that
    computes each row of a matrix product the same way in any batch of two
    or more rows.  Where ``VoronoiNeighbours`` gives no columns, only stage
    2 runs.  ``neighbours`` is the Delaunay table given at construction,
    or a new one over ``centers``; ``VoronoiSplit.child_region`` hands every
    child the split's.  A table computes nothing until ``columns()``.
    """

    __slots__ = ("centers", "own_index", "parent", "neighbours")

    def __init__(self, centers, own_index: int, parent: Region,
                 neighbours: VoronoiNeighbours | None = None):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[0] < 1:
            raise InputError("centers must form an (m, d) array")
        if not (0 <= own_index < centers.shape[0]):
            raise InputError("own_index out of range")
        own = centers[own_index]
        dup = np.all(centers == own, axis=1)
        if int(dup.sum()) != 1:
            raise InputError("own center must appear exactly once among the centers")
        if not parent.contains(own):
            raise InputError("own center must be a member of the parent region")
        self.centers = centers
        self.centers.setflags(write=False)
        self.own_index = int(own_index)
        self.parent = parent
        self.neighbours = VoronoiNeighbours(self.centers) if neighbours is None else neighbours

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def own_center(self) -> np.ndarray:
        return self.centers[self.own_index]

    def contains_many(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        cols = self.neighbours.columns(self.own_index)
        if cols is None or X.shape[0] < 2:
            return self._full_test(X)
        # Each score is within (d + 2) u S of exact, with u = eps / 2 and
        # S = |c|^2 + 2 |x| |c| <= c_max^2 + 2 x_max c_max, where x_max is
        # the norm of the per-axis largest |x_k|.  Stage 1 and the full
        # argmin evaluate the two scores separately, so a neighbour's lead
        # of more than 4 times that is conclusive; tau doubles it for the
        # rounding of tau itself.  Both reductions run one column at a
        # time, as row_norms does and for its reason.
        c_max = self.neighbours.radius
        x_max = float(np.linalg.norm([np.abs(X[:, k]).max() for k in range(X.shape[1])]))
        tau = 4.0 * (X.shape[1] + 2) * np.finfo(float).eps * (
            c_max * c_max + 2.0 * c_max * x_max)
        scores = center_scores(self.centers[cols], X)
        own = scores[:, 0] - tau
        rejected = np.zeros(X.shape[0], dtype=bool)
        for j in range(1, scores.shape[1]):
            rejected |= scores[:, j] < own
        keep = np.flatnonzero(~rejected)
        inside = np.zeros(X.shape[0], dtype=bool)
        if keep.size:
            inside[keep] = self._full_test(X[keep])
        return inside

    def _full_test(self, X: np.ndarray) -> np.ndarray:
        assigned = voronoi_assign(self.centers, X) == self.own_index
        return assigned & self.parent.contains_many(X)

    def bounding_ball(self):
        # Any cell point is in the parent, hence within parent_radius of the
        # parent ball center; from the own center that is at most
        # parent_radius + |own - parent_center|.
        pc, pr = self.parent.bounding_ball()
        return self.own_center, pr + float(np.linalg.norm(self.own_center - pc))


def center_scores(centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Bisector scores |c|^2 - 2 x.c, shape (n, m): |x - c|^2 less |x|^2.

    The one place the score is formed: membership, certificate margins and
    nearest-center distances all compare these doubles.  The factor -2 goes
    on the (m, d) centers before the product rather than on the (n, m)
    result, and |c|^2 is added in place in the product's buffer.  Scaling
    by -2 is exact in IEEE arithmetic, so away from subnormals every double
    equals that of scaling the product afterwards.
    One row is scored as two copies of it: numpy's matrix-vector product
    can round differently from the batched product membership must match.
    """
    if X.shape[0] == 1:
        return center_scores(centers, np.concatenate([X, X]))[:1]
    scores = X @ (-2.0 * centers).T
    scores += (centers * centers).sum(axis=1)
    return scores


_ASSIGN_BLOCK = 1 << 16  # scores (512 KB) per block of rows in voronoi_assign


def voronoi_assign(centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Index of the nearest center for each row of X (ties -> lowest index).

    The |x|^2 term of |x-c|^2 is constant per row, so the argmin runs on
    ``center_scores``.  Rows are scored in blocks of at most
    ``_ASSIGN_BLOCK`` scores (one row per block when m is larger), so the
    memory of a call does not grow with the number of rows.
    """
    rows = max(1, _ASSIGN_BLOCK // centers.shape[0])
    out = np.empty(X.shape[0], dtype=np.intp)
    for a in range(0, X.shape[0], rows):
        out[a:a + rows] = np.argmin(center_scores(centers, X[a:a + rows]), axis=1)
    return out


def root_support(region: Region) -> Region:
    while isinstance(region, VoronoiClip):
        region = region.parent
    return region


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# counting and t-radii


def count_in_region(dataset: Dataset, region: Region) -> int:
    """Exact number of dataset points inside the region."""
    if dataset.n == 0:
        return 0
    if dataset.d != region.dim:
        raise InputError("dataset and region dimensions differ")
    return int(region.contains_many(dataset.points).sum())


def t_radius(dataset: Dataset, x, t: int) -> float:
    """Distance from x to its t-th nearest dataset point.

    When x coincides exactly with a dataset point, one copy of itself is
    excluded before ranking neighbours.
    """
    p = as_point(x)
    if p.size != dataset.d:
        raise InputError("dimension mismatch")
    if t < 1:
        raise InputError("t must be a positive integer")
    dists = np.linalg.norm(dataset.points - p, axis=1)
    exact = np.all(dataset.points == p, axis=1)
    if exact.any():
        drop = int(np.flatnonzero(exact)[0])
        dists = np.delete(dists, drop)
    if t > dists.size:
        raise InputError(f"t={t} exceeds the {dists.size} available neighbours")
    return float(np.partition(dists, t - 1)[t - 1])


def t_radii(dataset: Dataset, t: int) -> np.ndarray:
    """``t_radius`` of every dataset point at its own coordinates, in one pass.

    The point itself is always at distance 0, the least of all, so dropping
    one exact copy and taking the t-th nearest is the (t+1)-th nearest.
    """
    if t < 1:
        raise InputError("t must be a positive integer")
    if t > dataset.n - 1:
        raise InputError(f"t={t} exceeds the {dataset.n - 1} available neighbours")
    return _knn_candidates(dataset.points, dataset.points, t + 1)[0]


def _knn_candidates(points: np.ndarray, Q: np.ndarray, k: int):
    """Exact k-th nearest distance from each query, with a candidate superset.

    Returns (kth, rows, idx, dists).  kth[i] is the k-th smallest of
    ``np.linalg.norm(points - Q[i], axis=1)``, bit for bit.  The flat arrays
    list, for query ``rows[m]`` (ascending), point ``idx[m]`` at distance
    ``dists[m]``; they hold every point no farther than kth[i],
    plus possibly a few more.  A kd-tree proposes the candidates, then their
    distances are recomputed with the brute-force arithmetic, so callers
    compare the same doubles as a full scan would.  Needs 1 <= k <= n.

    The candidates of a query are its k + 2 nearest by one array-shaped
    tree query, unless the last of them is no farther than the k-th by the
    tree's distance with a margin of 1e-9 (ties, duplicate rows): then the
    ball of that radius may hold more points, and ``query_ball_point``
    lists them all.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    m, wanted = Q.shape[0], min(points.shape[0], k + 2)
    near, idx = (a.reshape(m, wanted) for a in tree.query(Q, k=wanted))
    # the tree's distances may differ from norm() in the last bits
    radius = near[:, k - 1] * (1.0 + 1e-9)
    tied = np.flatnonzero((near[:, -1] <= radius) & (wanted < points.shape[0]))
    sizes = np.full(m, wanted, dtype=np.intp)
    if tied.size:
        ball = tree.query_ball_point(Q[tied], radius[tied])
        sizes[tied] = np.fromiter(map(len, ball), dtype=np.intp, count=len(ball))
        queried = np.ones(m, dtype=bool)
        queried[tied] = False
        listed = np.repeat(queried, sizes)
        flat = np.empty(int(sizes.sum()), dtype=np.intp)
        flat[listed] = idx[queried].ravel()
        flat[~listed] = np.concatenate(ball)
        idx = flat
    idx = idx.ravel()
    rows = np.repeat(np.arange(m), sizes)
    dists = np.linalg.norm(points[idx] - Q[rows], axis=1)
    order = np.lexsort((dists, rows))
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    kth = dists[order][starts + (k - 1)]
    return kth, rows, idx, dists


# ---------------------------------------------------------------------------
# uniform sampling inside regions


def uniform_in_box(low, high, n: int, rng: np.random.Generator) -> np.ndarray:
    low = np.asarray(low, float)
    high = np.asarray(high, float)
    return low + (high - low) * rng.random((n, low.size))


def uniform_in_ball(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    center = np.asarray(center, float)
    d = center.size
    g = rng.standard_normal((n, d))
    norms = row_norms(g)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / d)
    # center + g / norms * radii, each double as broadcasting gives it, one
    # column at a time for the reason row_norms gives
    for k in range(d):
        col = g[:, k]
        col /= norms
        col *= radii
        col += center[k]
    return g


MAX_BATCHES = 1000  # rejection batches before uniform_in_region gives up


def uniform_in_region(
    region: Region,
    n: int,
    rng: np.random.Generator,
    *,
    envelope: tuple[np.ndarray, float] | None = None,
) -> np.ndarray:
    """n points uniform in the region.

    Boxes and balls are sampled exactly.  VoronoiClip cells are sampled by
    rejection from ``envelope`` (a (center, radius) ball) when given, else
    from the root support region, which is exact.  Raises
    DegenerateGeometryError on rejection starvation, after ``MAX_BATCHES``
    batches.
    """
    if isinstance(region, Box):
        return uniform_in_box(region.low, region.high, n, rng)
    if isinstance(region, Ball):
        return uniform_in_ball(region.center, region.radius, n, rng)
    if n == 0:
        return np.empty((0, region.dim))

    root = root_support(region)
    out = []
    got = 0
    batch = max(2048, 2 * n)
    for _ in range(MAX_BATCHES):
        if envelope is not None:
            cand = uniform_in_ball(envelope[0], envelope[1], batch, rng)
        else:
            cand = uniform_in_region(root, batch, rng)
        keep = cand[region.contains_many(cand)]
        if keep.shape[0]:
            out.append(keep)
            got += keep.shape[0]
        if got >= n:
            return np.concatenate(out)[:n]
    raise DegenerateGeometryError(
        f"rejection starvation: {got}/{n} samples after {MAX_BATCHES} batches"
    )


# ---------------------------------------------------------------------------
# volumes


def intersection_volume_ratio(
    q,
    r: float,
    c: float,
    region: Region,
    samples: int = 200_000,
    seed: int = 0,
    *,
    margin: tuple | None = None,
) -> tuple[float, float]:
    """Monte Carlo estimate of Vol(B(q,r) n C) / Vol(B(q,cr) n C).

    Samples uniformly in the enclosing ball B(q, c*r); the estimate is the
    fraction of in-C samples that also fall in B(q, r).  Deterministic given
    seed.  Raises DegenerateGeometryError when no sample lands in C.

    ``margin`` is (m, e, outer): q's minimum margin over C's constraints,
    its rounding slack at radius c*r, as ``roundness.probe_margins`` gives
    them, and an outer ball (o, R) of C or None (the privacy check passes
    each probe its row of the leaf's batch and the leaf's
    ``roundness._outer_ball``); when it is None, m and e come from a one-row
    ``CellKernel`` of C and there is no outer ball.  A sample at computed
    distance D from q (one ``row_norms`` double, which also decides the hit)
    is in C when D < m - e and out of C when D < -m - e; of the rest, one
    whose computed distance from o exceeds R is out of C, and only the
    others take ``region.contains_many``.  These rules are sound in both
    directions, for the (m, e) of any batch and any sound outer ball, so the
    result does not depend on them.  On the perfbench voronoi workload at
    seed 1, the margin decides 41% and 28% of the two privacy steps'
    samples, the outer ball 44% and 51% more, and 15% and 22% take the
    membership test.
    Each margin is a signed distance to a bisector hyperplane or a root
    face, or the root radius less the distance to the root center, so it is
    1-Lipschitz: at a sample s, every constraint's exact margin is at least
    m - |s - q|, and the constraint that attains m has at most m + |s - q|.
    The slack covers the rounding of m, of D (the differences s - q and
    their norm) and of m - e, plus how far from zero an exact margin must be
    for membership's doubles to read its sign.  Inside, every other
    center's computed score then exceeds the own center's strictly, so the
    own center is the argmin alone and the tie rule toward the lowest index
    never applies; the root's comparisons pass, closed faces or not.
    Outside, some other center's score is strictly below the own one, or a
    root face or the ball is strictly violated.  Samples within the slack of
    a boundary, ties and closed faces included, go to the membership test,
    which reads each row as in any batch (see ``VoronoiClip``), so both
    counts, and the estimate, are those of testing every sample.
    """
    qp = as_point(q)
    if qp.size != region.dim:
        raise InputError("dimension mismatch")
    if not (r > 0 and c > 1 and math.isfinite(c * r)):
        raise InputError("requires r > 0, c > 1 and a finite c*r")
    if samples < 1:
        raise InputError("samples must be at least 1")
    if margin is None:
        from .roundness import CellKernel, probe_margins  # roundness imports this module

        m, e = probe_margins(CellKernel.of(region, 1), qp[None, :], np.array([c * r]))
        margin = m[0], e[0, 0], None
    margin, slack, outer = margin
    rng = substream(seed, "volume-ratio")
    pts = uniform_in_ball(qp, c * r, samples, rng)
    dist = row_norms(pts, qp)
    in_c = dist < margin - slack
    test = np.flatnonzero(~(in_c | (dist < -margin - slack)))
    if outer is not None and test.size:
        test = test[row_norms(pts[test], outer[0]) <= outer[1]]
    if test.size:
        in_c[test] = region.contains_many(pts[test])
    denom = int(in_c.sum())
    if denom == 0:
        raise DegenerateGeometryError("no samples of B(q, c*r) fell inside the cell")
    hits = int(np.count_nonzero(dist[in_c] <= r))
    ratio = hits / denom
    stderr = math.sqrt(ratio * (1.0 - ratio) / denom)
    return ratio, stderr
