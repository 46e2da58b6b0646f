"""Histogram tree builders and sanitized (counts-only) output.

Three constructions:

* recursive cube: deterministic dyadic subdivision of a root cube, splitting
  every cell holding at least 2t points into its 2^d half-side subcubes;
* shifted grid: nested meshes over a doubled, randomly centered cube sharing
  one offset across levels, refined where at least 2t points remain, with
  every cell that straddles the domain surface disbanded and absorbed into
  its adjacent interior cell per axis;
* Voronoi: cells holding more than t points are subdivided by the Voronoi
  partition of centers chosen greedily (well-spread) or uniformly at random.

Each split is stored once, on the node it divides: per-axis cut arrays for
the cube and the grid, one center array for Voronoi, and the children's
counts as one integer array.  Child nodes are made on demand, and child
regions are derived from the split on first use.  All published geometry is
construction artifacts (mesh lines, centers); a final scan aborts if any
dataset coordinate vector appears in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError, ResourceError
from .geometry import (
    Ball,
    Box,
    Dataset,
    Region,
    VoronoiClip,
    VoronoiNeighbours,
    row_norms,
    uniform_in_region,
    voronoi_assign,
)
from .rng import child_seed, seed_commitment, substream
from .roundness import CERT_SAMPLES, RoundnessCertificate, certify_children, certify_roundness

NODE_BUDGET = 2_000_000  # nodes per build, root included, read as each build starts
DEFAULT_PROBE_SAMPLES = 100_000
DEFAULT_DEPTH = {"cube": 8, "grid": 8, "voronoi-greedy": 3, "voronoi-uniform": 3}
# the parameters each published method reads beyond t, max_depth, seed and support
PARAMETERS = {"cube": (), "grid": (), "voronoi-greedy": ("probe_samples",),
              "voronoi-uniform": ("override_m",)}


class MeshSplit:
    """Axis-aligned split of a box by per-axis cut arrays, both ends included.

    Child k has digits ``np.unravel_index(k, shape)`` (C order) and spans
    ``[cuts[j][digit_j], cuts[j][digit_j + 1])`` on axis j; its high face is
    closed where the parent's is and the two coincide.
    """

    __slots__ = ("cuts", "shape", "size", "_source")

    def __init__(self, cuts):
        self.cuts = tuple(np.asarray(c, dtype=float) for c in cuts)
        self.shape = tuple(c.size - 1 for c in self.cuts)
        self.size = math.prod(self.shape)

    def digits(self, X: np.ndarray) -> list[np.ndarray]:
        """Per-axis child digit of each row of X, for rows inside the parent
        box.  Searching the interior cuts alone puts rows on the closed high
        face in the last strip, with no clipping."""
        return [np.searchsorted(c[1:-1], X[:, j], side="right")
                for j, c in enumerate(self.cuts)]

    def assign(self, X: np.ndarray) -> np.ndarray:
        """Child index of each row of X, for rows inside the parent box."""
        return np.ravel_multi_index(self.digits(X), self.shape)

    def route(self, X: np.ndarray, rows: np.ndarray, low: np.ndarray,
              high: np.ndarray) -> np.ndarray:
        """Child index of each row ``X[rows]``, for rows inside the parent
        box; writes that child's corners into ``low[rows]`` and ``high[rows]``."""
        digits = self.digits(X[rows])
        for j, (c, digit) in enumerate(zip(self.cuts, digits)):
            low[rows, j] = c[digit]
            high[rows, j] = c[digit + 1]
        return np.ravel_multi_index(digits, self.shape)

    def child_bounds(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(low, high) corners of child k."""
        digit = np.unravel_index(k, self.shape)
        return (np.array([c[i] for c, i in zip(self.cuts, digit)]),
                np.array([c[i + 1] for c, i in zip(self.cuts, digit)]))

    def child_region(self, parent: Box, k: int) -> Box:
        low, high = self.child_bounds(k)
        return Box(low, high, closed_high=parent.closed_high & (high == parent.high))


class VoronoiSplit:
    """Split of a region by the Voronoi cells of one (m, d) center array;
    child i is ``VoronoiClip(centers, i, parent)``, and the children share
    the split's Delaunay neighbour table."""

    __slots__ = ("centers", "size", "neighbours", "_source")

    def __init__(self, centers):
        self.centers = np.asarray(centers, dtype=float)
        self.centers.setflags(write=False)
        self.size = self.centers.shape[0]
        self.neighbours = VoronoiNeighbours(self.centers)

    def assign(self, X: np.ndarray) -> np.ndarray:
        return voronoi_assign(self.centers, X)

    def child_region(self, parent: Region, k: int) -> VoronoiClip:
        clip = VoronoiClip(self.centers, k, parent)
        clip.neighbours = self.neighbours
        return clip


Split = MeshSplit | VoronoiSplit


def _parent_region(split: Split) -> Region:
    """Region of the node a split divides: stored, or derived from the split
    above it.  Splits point up and nodes point down, so trees hold no cycles."""
    source = split._source
    if not isinstance(source, Region):
        above, k = source
        source = split._source = above.child_region(_parent_region(above), k)
    return source


class HistogramNode:
    """One cell of a histogram tree.

    The root holds its region; every other node holds the split it came from
    and its index there, and derives its region on first use.  A divided
    node keeps its children's counts as one integer array and makes a child
    node only when asked for it (``child``, ``children``), so a build makes
    nodes only where a split continues.  Its roundness certificate is
    computed once, by ``certify_nodes``, and kept.
    """

    __slots__ = ("count", "level", "split", "counts", "child_level", "_kids", "_region",
                 "_source", "_certificate")

    def __init__(self, region: Region | None = None, count: int = 0, level: int = 0):
        self.count = count
        self.level = level
        self.split: Split | None = None
        self.counts: np.ndarray | None = None  # child counts, once divided
        self.child_level: int | None = None
        self._kids: dict[int, HistogramNode] = {}  # the children made so far
        self._region = region
        self._source = None  # (split, child index) for non-root nodes
        self._certificate = None

    @property
    def region(self) -> Region:
        if self._region is None:
            if self.split is not None:
                self._region = _parent_region(self.split)
            else:
                split, k = self._source
                self._region = split.child_region(_parent_region(split), k)
        return self._region

    @property
    def certificate(self) -> RoundnessCertificate:
        """This cell's certificate; ``certify_nodes`` certifies many at once."""
        if self._certificate is None:
            certify_nodes([self])
        return self._certificate

    def divide(self, split: Split, counts, level: int | None = None):
        """Split this node; child k holds counts[k] points at the given level
        (default: one below this node).  No child node is made here."""
        split._source = self._region if self._region is not None else self._source
        self.split = split
        self.counts = np.asarray(counts, dtype=np.int64)
        self.child_level = self.level + 1 if level is None else level

    def child(self, k: int) -> HistogramNode:
        """Child k of this node's split, made on first use and kept."""
        node = self._kids.get(k)
        if node is None:
            node = self._kids[k] = HistogramNode(count=int(self.counts[k]), level=self.child_level)
            node._source = (self.split, k)
        return node

    @property
    def children(self) -> list[HistogramNode]:
        """Every child in split order, each made once; none for a leaf."""
        return [] if self.split is None else [self.child(k) for k in range(self.split.size)]

    def divided_children(self) -> dict[int, HistogramNode]:
        """The children that have a split of their own, by index.  A child
        that was never made has none."""
        return {k: node for k, node in self._kids.items() if node.split is not None}

    def is_leaf(self) -> bool:
        return self.split is None

    def walk(self):
        """Nodes in depth-first pre-order, children in split order.  This is
        the one walk order: the privacy check seeds its i-th leaf by
        position in it, and the split audits list their splits in it."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        return [n for n in self.walk() if n.is_leaf()]


def certify_nodes(nodes, samples: int = CERT_SAMPLES) -> list[RoundnessCertificate]:
    """The roundness certificate of each node, in order.

    The uncached children of one Voronoi split are certified in one
    ``certify_children`` batch; a root or a mesh child (a box or a ball)
    goes through ``certify_roundness``.  At the default ``samples`` each
    certificate is stored on its node, so every node is certified once; any
    other count gives fresh certificates and stores none.
    """
    stored = samples == CERT_SAMPLES
    certs = {id(node): node._certificate for node in nodes
             if stored and node._certificate is not None}
    todo = {id(node): node for node in nodes if id(node) not in certs}
    batches = {}
    for key, node in todo.items():
        split, k = node._source or (None, None)
        if isinstance(split, VoronoiSplit):
            batches.setdefault(split, []).append((key, k))
        else:
            certs[key] = certify_roundness(node.region, samples)
    for split, members in batches.items():
        keys, indices = zip(*members)
        certs.update(zip(keys, certify_children(_parent_region(split), split.centers,
                                                indices, samples)))
    if stored:
        for key, node in todo.items():
            node._certificate = certs[key]
    return [certs[id(node)] for node in nodes]


def _partition(keys: np.ndarray, size: int) -> list[np.ndarray]:
    """Positions of each key 0..size-1 in ``keys``, ascending, from one
    stable sort."""
    ends = np.cumsum(np.bincount(keys, minlength=size)).tolist()
    order = np.argsort(keys, kind="stable")
    return [order[a:b] for a, b in zip([0] + ends[:-1], ends)]


@dataclass
class SanitizedHistogram:
    """Counts-only histogram: regions, per-cell counts, and parameters."""

    root: HistogramNode
    method: str
    t: int
    max_depth: int
    seed_commitment: str
    component_index: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.root.region.dim

    def leaf_count_sum(self) -> int:
        return _splits_and_leaf_total(self.root)[1]


def _splits_and_leaf_total(tree: HistogramNode) -> tuple[list, int]:
    """The tree's splits and the sum of its leaf counts, visiting only the
    nodes that have a split: the leaf counts sum to every split's counts,
    less those of its children that split again."""
    if tree.split is None:
        return [], tree.count
    splits, total, stack = [], 0, [tree]
    while stack:
        node = stack.pop()
        splits.append(node.split)
        total += int(node.counts.sum())
        for k, kid in node.divided_children().items():
            total -= int(node.counts[k])
            stack.append(kid)
    return splits, total


class _Budget:
    """The nodes of one build against ``NODE_BUDGET``: the root and every
    child of a split, made into a node or not, since documents publish each
    child's count."""

    def __init__(self):
        self.limit, self.used = NODE_BUDGET, 1

    def charge(self, n: int, why: str = ""):
        self.used += n
        if self.used > self.limit:
            raise ResourceError(
                f"node budget exceeded: {self.used} nodes requested{why}, limit {self.limit}")


def _require_inside(dataset: Dataset, region: Region, what: str):
    if dataset.n == 0:
        return
    if dataset.d != region.dim:
        raise InputError(f"dataset dimension {dataset.d} does not match {what}")
    ok = region.contains_many(dataset.points)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        raise InputError(f"point index {bad} lies outside the {what}")


def default_root_box(d: int) -> Box:
    return Box(-np.ones(d), np.ones(d), closed_high=np.ones(d, dtype=bool))


def _mesh_root(dataset: Dataset, t: int, max_depth: int, root: Box | None) -> Box:
    """The root box of a mesh build, ``[-1, 1]^d`` by default, once the
    arguments are checked."""
    if t < 1 or max_depth < 1:
        raise InputError("t and max_depth must be positive")
    if root is None:
        root = default_root_box(dataset.d)
    _require_inside(dataset, root, "root box")
    return root


# ---------------------------------------------------------------------------
# recursive cube


def build_recursive_cube(
    dataset: Dataset,
    t: int,
    max_depth: int = 8,
    root: Box | None = None,
) -> SanitizedHistogram:
    """Deterministic dyadic histogram: split every cell with count >= 2t."""
    root = _mesh_root(dataset, t, max_depth, root)

    def halves(low, high, level):
        if level >= max_depth:
            return None
        mid = 0.5 * (low + high)
        return [np.array([lo, m, hi]) for lo, m, hi in zip(low, mid, high)], level + 1

    tree, _, _ = _grow_mesh(dataset, root, t, _Budget(), halves)
    return strip_to_sanitized(tree, dataset, method="cube", t=t, max_depth=max_depth,
                              seed=None)


def _grow_mesh(dataset: Dataset, root: Box, t: int, budget: _Budget,
               next_cuts) -> tuple[HistogramNode, np.ndarray, np.ndarray]:
    """Mesh-split every cell holding at least 2t points while
    ``next_cuts(low, high, level)`` returns (per-axis cuts, child level).

    Returns ``(tree, low, high)``: the tree, and the (n, d) low and high
    corners of each dataset row's leaf, written by ``MeshSplit.route`` as the
    rows are split, so ``measure_diameters`` reads grid leaf diameters from
    them without a second descent.  Every child gets its count; only a child
    holding at least 2t rows that ``next_cuts`` divides gets a node and its
    rows, and is split in turn.
    """
    n = dataset.n
    tree = HistogramNode(region=root, count=n, level=0)
    low, high = np.tile(root.low, (n, 1)), np.tile(root.high, (n, 1))
    step = next_cuts(root.low, root.high, 0) if n >= 2 * t else None
    stack = [(tree, step, np.arange(n))] if step is not None else []
    while stack:
        node, (cuts, level), idx = stack.pop()
        split = MeshSplit(cuts)
        budget.charge(split.size)
        keys = split.route(dataset.points, idx, low, high)
        counts = np.bincount(keys, minlength=split.size)
        node.divide(split, counts, level)
        big = np.flatnonzero(counts >= 2 * t)
        if not big.size:
            continue
        order = np.argsort(keys, kind="stable")
        ends = np.cumsum(counts)
        for k, a, b in zip(big.tolist(), (ends - counts)[big].tolist(), ends[big].tolist()):
            rows = idx[order[a:b]]
            step = next_cuts(low[rows[0]], high[rows[0]], level)
            if step is not None:
                stack.append((node.child(k), step, rows))
    return tree, low, high


# ---------------------------------------------------------------------------
# randomized shifted grid


def _kept_lines(base: float, w: float, lo: float, hi: float) -> tuple[int, int] | None:
    """Index range (a, b) of the kept mesh lines base + k*w, a <= k <= b, on
    one axis of the root (lo, hi), or None when the axis stays whole.

    The lines strictly inside (lo, hi) run from index a - 1 to b + 1.  The
    cells straddling the domain surface are disbanded: those first and last
    lines are dropped, which absorbs the cells into their adjacent interior
    strips and keeps boundary strip widths in (w, 2w].  With fewer than
    three interior lines no interior strip survives and the axis stays
    unrefined at this level.
    """
    first = math.floor((lo - base) / w)
    while base + first * w <= lo:
        first += 1
    last = math.ceil((hi - base) / w)
    while base + last * w >= hi:
        last -= 1
    return (first + 1, last - 1) if last - first >= 2 else None


def _box_cuts(box, w: float, kept) -> list[list[float]] | None:
    """Per-axis cuts of a cell by one level's kept lines, or None when no
    kept line falls inside it.  ``box`` holds (base, lo, hi) per axis and
    ``kept`` the level's ``_kept_lines`` per axis; an axis is cut at lo, the
    kept lines strictly inside (lo, hi), and hi."""
    cuts, split = [], False
    for (base, lo, hi), ks in zip(box, kept):
        axis = [lo]
        if ks is not None:
            ka = math.floor((lo - base) / w)
            kb = math.ceil((hi - base) / w)
            # conditional expressions: max() and min() cost more per cell
            for k in range(ka if ka > ks[0] else ks[0], (kb if kb < ks[1] else ks[1]) + 1):
                v = base + k * w
                if lo < v < hi:
                    axis.append(v)
                    split = True
        axis.append(hi)
        cuts.append(axis)
    return cuts if split else None


def build_shifted_grid(
    dataset: Dataset,
    t: int,
    max_depth: int = 8,
    seed: int = 0,
    root: Box | None = None,
) -> SanitizedHistogram:
    """Randomized nested-mesh histogram with boundary-cell disbanding.

    One center is drawn uniformly in the root cube; the inflated cube has
    twice the root's side and the level-i mesh has edge side * 2^(1-i) at a
    fixed offset, so raw cells nest across levels.  Cells refine while they
    hold at least 2t points and mesh levels remain; levels end at max_depth
    or where mesh lines would no longer be distinct doubles (about level 50
    on [-1, 1]^d), whichever comes first.
    """
    return _shifted_grid(dataset, t, max_depth, seed, root)[0]


def _shifted_grid(
    dataset: Dataset,
    t: int,
    max_depth: int = 8,
    seed: int = 0,
    root: Box | None = None,
) -> tuple[SanitizedHistogram, np.ndarray, np.ndarray]:
    """``build_shifted_grid``, plus the (n, d) low and high corners of each
    dataset row's leaf from ``_grow_mesh``; the corners are never published."""
    root = _mesh_root(dataset, t, max_depth, root)
    sides = root.sides
    if not np.allclose(sides, sides[0]):
        raise InputError("shifted grid requires a cubical root region")
    side = float(sides[0])
    center = uniform_in_region(root, 1, substream(seed, "grid-offset"))[0]
    bases = center - side  # low corner of the inflated cube, fixed across levels

    # (level, w, per-axis kept line index ranges) down to the finest level whose
    # spacing w is at least 4 ulps of |root| + 2*side, the largest magnitude
    # the line arithmetic reaches, so that lines land on distinct increasing
    # doubles (about level 50 on [-1, 1]^d, where each axis holds 2^49 lines)
    finest = 4.0 * float(np.spacing(float(np.abs([root.low, root.high]).max()) + 2.0 * side))
    base_list = bases.tolist()
    levels = []
    for level in range(1, max_depth + 1):
        w = side * 2.0 ** (1 - level)
        if w < finest:
            break
        levels.append((level, w, [_kept_lines(b, w, lo, hi) for b, lo, hi in
                                  zip(base_list, root.low.tolist(), root.high.tolist())]))

    def next_mesh(low, high, level):
        """Per-axis cuts of the first finer level that subdivides the box."""
        box = list(zip(base_list, low.tolist(), high.tolist()))
        for lvl, w, kept in levels[level:]:
            cuts = _box_cuts(box, w, kept)
            if cuts is not None:
                return cuts, lvl
        return None

    tree, low, high = _grow_mesh(dataset, root, t, _Budget(), next_mesh)
    hist = strip_to_sanitized(tree, dataset, method="grid", t=t, max_depth=max_depth,
                              seed=seed, extra={"offset_center": center.tolist()})
    return hist, low, high


# ---------------------------------------------------------------------------
# Voronoi subdivision


def method2_center_count(d: int) -> int:
    """Default number of uniform centers per split: 4 * d * 8^d."""
    return 4 * d * 8**d


def pick_centers_greedy(
    region: Region,
    cert: RoundnessCertificate,
    probe_samples: int | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Well-spread centers: scan a uniform probe stream, keeping the first
    probe at distance >= R/4 from everything kept so far.

    After one pass every probe is within R/4 of a kept center, so the kept
    set is R/4-well-spread and R/4-covers the cell up to probe resolution.
    """
    if probe_samples is None:
        probe_samples = DEFAULT_PROBE_SAMPLES
    if probe_samples < 1:
        raise InputError("probe_samples must be positive")
    rng = substream(seed, "greedy-centers")
    probes = uniform_in_region(region, probe_samples, rng, envelope=cert.envelope)
    threshold = cert.radius / 4.0
    selected = [0]
    mind = row_norms(probes, probes[0])
    ptr = 1
    while ptr < probe_samples:
        ahead = np.flatnonzero(mind[ptr:] >= threshold)
        if ahead.size == 0:
            break
        i = ptr + int(ahead[0])
        selected.append(i)
        np.minimum(mind, row_norms(probes, probes[i]), out=mind)
        ptr = i + 1
    return probes[np.array(selected)]


def pick_centers_uniform(
    region: Region,
    override_m: int | None = None,
    seed: int = 0,
    envelope=None,
) -> np.ndarray:
    """m i.i.d. uniform centers from the cell; m defaults to 4*d*8^d."""
    m = override_m if override_m is not None else method2_center_count(region.dim)
    if m < 1:
        raise InputError("center count must be positive")
    rng = substream(seed, "uniform-centers")
    return uniform_in_region(region, m, rng, envelope=envelope)


def build_voronoi(
    dataset: Dataset,
    support: Region,
    t: int,
    max_depth: int = 3,
    method: str = "greedy",
    override_m: int | None = None,
    probe_samples: int | None = None,
    seed: int = 0,
) -> SanitizedHistogram:
    """Voronoi histogram: cells holding more than t points subdivide.  The
    children of a split that divide again are certified in one batch.  A
    split of m centers charges m nodes, a uniform one before drawing them."""
    if t < 1 or max_depth < 1:
        raise InputError("t and max_depth must be positive")
    if method not in ("greedy", "uniform"):
        raise InputError("method must be 'greedy' or 'uniform'")
    _require_inside(dataset, support, "support region")
    m = override_m if override_m is not None else method2_center_count(support.dim)
    budget = _Budget()

    def grow(node: HistogramNode, idx: np.ndarray, path: tuple):
        region = node.region
        cert = node.certificate
        if method == "greedy":
            centers = pick_centers_greedy(region, cert, probe_samples,
                                          seed=child_seed(seed, "centers", *path))
            budget.charge(len(centers))
        else:
            budget.charge(m, f" for m={m} uniform centers per split in d={support.dim}")
            centers = pick_centers_uniform(region, m, seed=child_seed(seed, "centers", *path),
                                           envelope=cert.envelope)
        split = VoronoiSplit(centers)
        parts = _partition(split.assign(dataset.points[idx]), split.size)
        node.divide(split, [part.size for part in parts])
        if node.level + 1 >= max_depth:
            return
        growing = [i for i, part in enumerate(parts) if part.size > t]
        certify_nodes([node.child(i) for i in growing])
        for i in growing:
            grow(node.child(i), idx[parts[i]], path + (i,))

    tree = HistogramNode(region=support, count=dataset.n, level=0)
    if dataset.n > t:
        grow(tree, np.arange(dataset.n), ())
    extra = {"center_method": method}
    if method == "uniform":
        extra["default_center_formula_used"] = override_m is None
        if override_m is not None:
            extra["uniform_center_guarantee_voided"] = True
    return strip_to_sanitized(tree, dataset, method=f"voronoi-{method}", t=t,
                              max_depth=max_depth, seed=seed, extra=extra)


# ---------------------------------------------------------------------------
# sanitized output


def _on_published(points: np.ndarray, vectors: list, meshes: list) -> np.ndarray:
    """Which rows of ``points`` equal one of ``vectors`` or the low or high
    corner of a child of a mesh split (given by its cuts).  A row can only
    be a corner of a mesh split when each of its coordinates is a cut value
    on that axis."""
    hits = np.zeros(len(points), dtype=bool)
    # + 0.0 maps -0.0 to 0.0, so byte equality is value equality
    rows = {row.tobytes() for row in points + 0.0} if vectors else set()
    for vec in vectors:
        if (vec + 0.0).tobytes() in rows:
            hits |= (points == vec).all(axis=1)
    if not meshes:
        return hits
    on_cuts = [np.isin(points[:, j], np.concatenate([cuts[j] for cuts in meshes]))
               for j in range(points.shape[1])]
    suspects = np.flatnonzero(np.logical_and.reduce(on_cuts))
    if not suspects.size:
        return hits
    for cuts in meshes:
        for ends in (slice(None, -1), slice(1, None)):  # low, then high corners
            corner = np.logical_and.reduce([np.isin(points[suspects, j], c[ends])
                                            for j, c in enumerate(cuts)])
            hits[suspects[corner]] = True
    return hits


def strip_to_sanitized(
    tree: HistogramNode,
    dataset: Dataset,
    method: str,
    t: int,
    max_depth: int,
    seed: int | None,
    extra: dict | None = None,
) -> SanitizedHistogram:
    """Publish a built tree (regions, splits, counts and levels only) after
    asserting that no dataset coordinate vector appears in its geometry.  A
    row on a vector that every seed publishes (a root region's, or a cube
    mesh corner) is an input error; a row on a random one is an internal
    error.  Only the nodes that have a split are visited."""
    splits, total = _splits_and_leaf_total(tree)
    if dataset.n:
        root = tree.region
        fixed = [root.low, root.high] if isinstance(root, Box) else [root.center]
        centers = [c for split in splits if isinstance(split, VoronoiSplit) for c in split.centers]
        meshes = [split.cuts for split in splits if isinstance(split, MeshSplit)]
        cube = method == "cube"  # the one build whose mesh corners are fixed
        if (hits := _on_published(dataset.points, fixed, meshes if cube else [])).any():
            raise InputError(
                f"sanitization aborted: dataset row {int(np.argmax(hits))} equals a coordinate "
                "vector the output publishes at every seed; the model assumes no atoms, so no "
                "row may lie on a support corner or center or on a cube mesh corner")
        if (hits := _on_published(dataset.points, centers, [] if cube else meshes)).any():
            raise InternalError(
                f"sanitization aborted: dataset row {int(np.argmax(hits))}'s coordinate "
                "vector appeared in the output geometry")
    if total != dataset.n:
        raise InternalError("leaf counts do not sum to the dataset size")
    return SanitizedHistogram(
        root=tree,
        method=method,
        t=t,
        max_depth=max_depth,
        seed_commitment=seed_commitment(seed) if seed is not None else "deterministic",
        extra=dict(extra or {}),
    )


# ---------------------------------------------------------------------------
# mixtures


def component_seed(seed: int, index: int) -> int:
    """Seed used for one mixture component; exposed so that single-component
    sanitizations can be reproduced exactly."""
    return child_seed(seed, "mixture", index)


def resolve_method(dataset: Dataset, method: str, max_depth: int | None = None,
                   support: Region | None = None, **params) -> tuple[int, Region]:
    """(max_depth, support) of a published method name (a ``DEFAULT_DEPTH``
    key), None giving the method's default, once ``params`` hold no value
    but None for a parameter it does not read (``PARAMETERS``).  A mesh
    support is a box, ``[-1, 1]^d`` by default; a Voronoi support is a ball
    or a box, by default the origin-centred ball of the smallest radius 2^j
    (j >= 0) that holds every row (``_enclosing_ball``)."""
    if method not in DEFAULT_DEPTH:
        raise InputError(f"unknown sanitizer method {method!r}")
    for name, value in params.items():
        if value is not None and name not in PARAMETERS[method]:
            raise InputError(f"{method} does not read {name}")
    mesh = method in ("cube", "grid")
    if support is None:
        support = default_root_box(dataset.d) if mesh else _enclosing_ball(dataset)
    if mesh and not isinstance(support, Box):
        raise InputError(f"{method} sanitizer needs a box support; use voronoi for balls")
    if not isinstance(support, (Ball, Box)):
        raise InputError(f"{method} sanitizer needs a ball or box support")
    return DEFAULT_DEPTH[method] if max_depth is None else max_depth, support


def _enclosing_ball(dataset: Dataset) -> Ball:
    """The ball centred at the origin whose radius is the smallest 2^j,
    j >= 0, that holds every row (the row norms ``Ball.contains_many``
    compares), so the data's extent is revealed only to a factor of 2."""
    reach = float(np.linalg.norm(dataset.points, axis=1).max(initial=0.0))
    radius = 1.0
    while radius < reach:
        radius *= 2.0
    return Ball(np.zeros(dataset.d), radius)


def method_name(family: str, centers: str | None = None) -> str:
    """The published method name of a builder family and its center rule,
    which only ``voronoi`` reads (greedy by default)."""
    if family == "voronoi":
        return f"voronoi-{centers or 'greedy'}"
    if centers is not None:
        raise InputError(f"{family} does not read centers")
    return family


def sanitize(
    dataset: Dataset,
    method: str,
    t: int,
    max_depth: int | None = None,
    seed: int = 0,
    support: Region | None = None,
    override_m: int | None = None,
    probe_samples: int | None = None,
) -> SanitizedHistogram:
    """The histogram of a published method name from its builder, at the
    depth and over the support of ``resolve_method``.  Uniform centers at
    their default count are refused where that count alone exceeds
    ``NODE_BUDGET``."""
    max_depth, support = resolve_method(dataset, method, max_depth, support,
                                        override_m=override_m, probe_samples=probe_samples)
    if method == "cube":
        return build_recursive_cube(dataset, t, max_depth, root=support)
    if method == "grid":
        return build_shifted_grid(dataset, t, max_depth, seed=seed, root=support)
    m = method2_center_count(support.dim)
    if method == "voronoi-uniform" and override_m is None and m > NODE_BUDGET:
        raise InputError(f"the default uniform center count 4*d*8^d = {m} at d={support.dim} "
                         f"exceeds the node budget {NODE_BUDGET}; give an explicit count "
                         "(--override-m)")
    return build_voronoi(dataset, support, t, max_depth, method=method[8:],
                         override_m=override_m, probe_samples=probe_samples, seed=seed)


def sanitize_mixture(
    dataset: Dataset,
    labels: np.ndarray,
    supports: list[Region],
    t: int,
    max_depth: int | None = None,
    method: str = "voronoi-greedy",
    seed: int = 0,
    **kwargs,
) -> list[SanitizedHistogram]:
    """``sanitize`` each component over its own support at its
    ``component_seed``.  Component membership (generator labels) is assumed
    known to the sanitizer; labels never appear in the output."""
    labels = np.asarray(labels)
    if labels.shape != (dataset.n,):
        raise InputError("labels must align with the dataset")
    out = []
    for index, support in enumerate(supports):
        hist = sanitize(Dataset(dataset.points[labels == index].copy()), method, t, max_depth,
                        seed=component_seed(seed, index), support=support, **kwargs)
        hist.component_index = index
        out.append(hist)
    return out
