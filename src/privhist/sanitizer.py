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
counts as one integer array.  Every split of a tree is of one kind.  The
mesh builders grow as per-depth arrays (``MeshDepth``), from which
``_mesh_tree`` makes a node for the root and for each child that splits
again; other child nodes are made on demand, and child regions are derived
from the split on first use.  The attacks, the metrics and the privacy
check take every leaf from ``LeafTable(root)`` instead, read from one walk
over the divided nodes (``_layers``).  All published geometry is
construction artifacts (mesh lines, centers); a final scan over the same
walk aborts if any dataset coordinate vector appears in it, except that a
grid whose mesh has a row on a cell corner draws its offset again instead
(a scan of each draw's arrays, before any node is made), and a Voronoi
split whose centers hit one of its node's rows draws them again.  Mesh
corners are checked split by split (``_mesh_corners``), and only for the
rows each of whose coordinates is a cut value.

No node keeps a roundness certificate.  ``certify_nodes`` computes them on
request, one ``certify_children`` batch per Voronoi split, and the Voronoi
builder hands each cell's certificate down with the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CollisionError, InputError, InternalError, ResourceError
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


def _mesh_digits(tables, ncuts, owner, X: np.ndarray,
                 rows: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-axis child digits and child index (C order) of rows ``rows`` of
    X in their nodes' splits, for rows inside their node's box: the one
    routing rule of mesh splits.

    ``tables[j]`` holds each node's cuts on axis j as one row, both ends
    included, padded with +inf; ``ncuts`` is the (F, d) count of each node's
    cuts, and ``owner`` each row's node.  A row's digit on axis j is the
    number of its node's cuts at positions 1... that are <= x, capped at
    ``ncuts - 2``: that is ``searchsorted(cuts[1:-1], x, "right")``, so a
    row on the closed high face falls in the last strip, with no clipping.
    """
    digits, keys = [], 0
    for j, table in enumerate(tables):
        x = X[:, j].take(rows)
        n = ncuts[:, j].take(owner)
        digit = np.zeros(x.shape, dtype=np.intp)
        for column in table.T[1:].copy():  # each cut position's column, contiguous
            digit += column.take(owner) <= x
        np.minimum(digit, n - 2, out=digit)
        digits.append(digit)
        keys = keys * (n - 1) + digit
    return digits, keys


class MeshSplit:
    """Axis-aligned split of a box by per-axis cut arrays, both ends included.

    Child k has digits ``np.unravel_index(k, shape)`` (C order) and spans
    ``[cuts[j][digit_j], cuts[j][digit_j + 1])`` on axis j; its high face is
    closed where the parent's is and the two coincide.  Rows are routed by
    ``_mesh_digits``, a whole depth of splits at a time.
    """

    __slots__ = ("cuts", "shape", "size", "_source")

    def __init__(self, cuts):
        self.cuts = tuple(np.asarray(c, dtype=float) for c in cuts)
        self.shape = tuple(c.size - 1 for c in self.cuts)
        self.size = math.prod(self.shape)

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
        return VoronoiClip(self.centers, k, parent, self.neighbours)


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
    nodes only where a split continues.  A node keeps no certificate:
    ``certify_nodes`` computes one on request.
    """

    __slots__ = ("count", "level", "split", "counts", "child_level", "_kids", "_region",
                 "_source")

    def __init__(self, region: Region | None = None, count: int = 0, level: int = 0):
        self.count = count
        self.level = level
        self.split: Split | None = None
        self.counts: np.ndarray | None = None  # child counts, once divided
        self.child_level: int | None = None
        self._kids: dict[int, HistogramNode] = {}  # the children made so far
        self._region = region
        self._source = None  # (split, child index) for non-root nodes

    @property
    def region(self) -> Region:
        if self._region is None:
            if self.split is not None:
                self._region = _parent_region(self.split)
            else:
                split, k = self._source
                self._region = split.child_region(_parent_region(split), k)
        return self._region

    def divide(self, split: Split, counts, level: int | None = None):
        """Split this node; child k holds counts[k] points at the given level
        (default: one below this node).  No child node is made here.  A
        split of another kind than the one this node came from is refused."""
        if self._source is not None and type(self._source[0]) is not type(split):
            raise InputError(f"a {type(split).__name__} cannot divide a cell of a "
                             f"{type(self._source[0]).__name__}")
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
        """Nodes in depth-first pre-order, children in split order, making
        every child node.  This is the one walk order: ``LeafTable`` lists
        its leaves in it (so the privacy check seeds its i-th leaf by
        position in it), and the split audits list their splits in it."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        return [n for n in self.walk() if n.is_leaf()]


def certify_nodes(nodes, samples: int = CERT_SAMPLES) -> list[RoundnessCertificate]:
    """The roundness certificate of each node, in order; no node keeps one.

    The requested children of one Voronoi split are certified in one
    ``certify_children`` batch, in the order first requested, and a node
    requested twice is certified once; a root or a mesh child (a box or a
    ball) goes through ``certify_roundness``.  A batch's members can move
    the last bits of each other's certificates, so equal requests give
    equal certificates, whatever ran before.
    """
    certs, batches = {}, {}
    for key, node in {id(node): node for node in nodes}.items():
        split, k = node._source or (None, None)
        if isinstance(split, VoronoiSplit):
            batches.setdefault(split, []).append((key, k))
        else:
            certs[key] = certify_roundness(node.region, samples)
    for split, members in batches.items():
        keys, indices = zip(*members)
        certs.update(zip(keys, certify_children(_parent_region(split), split.centers,
                                                indices, samples)))
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
    extra: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return self.root.region.dim

    def leaf_count_sum(self) -> int:
        return _leaf_total(self.root, _layers(self.root))


def _layers(root: HistogramNode) -> list:
    """The nodes that have a split, one depth at a time, each depth as
    (nodes, kids): kids are (node index, child index, child) of the children
    that divide again, in walk order.  No other node is visited."""
    layers, nodes = [], [root] if root.split is not None else []
    while nodes:
        kids = [(f, k, kid) for f, node in enumerate(nodes)
                for k, kid in sorted(node.divided_children().items())]
        layers.append((nodes, kids))
        nodes = [kid for _, _, kid in kids]
    return layers


def _leaf_total(tree: HistogramNode, layers: list) -> int:
    """The sum of the tree's leaf counts, read from its ``_layers``: the
    leaf counts sum to every split's counts, less those of its children that
    split again."""
    total = tree.count if tree.split is None else 0
    for nodes, kids in layers:
        total += sum(int(node.counts.sum()) for node in nodes)
        total -= sum(int(nodes[f].counts[k]) for f, k, _ in kids)
    return total


def _mesh_tables(splits: list) -> tuple[list[np.ndarray], np.ndarray]:
    """The ``(tables, ncuts)`` of one depth's ``MeshSplit``s, as
    ``_mesh_digits`` reads them: per axis j an (F, W_j) table whose row f
    holds split f's cuts, then +inf padding, and the (F, d) cut counts."""
    ncuts = np.array([[c.size for c in split.cuts] for split in splits], dtype=np.intp)
    tables = []
    for j in range(ncuts.shape[1]):
        table = np.full((len(splits), int(ncuts[:, j].max())), np.inf)
        row = np.repeat(np.arange(len(splits)), ncuts[:, j])
        ends = np.cumsum(ncuts[:, j])
        table[row, np.arange(row.size) - (ends - ncuts[:, j])[row]] = \
            np.concatenate([split.cuts[j] for split in splits])
        tables.append(table)
    return tables, ncuts


class LeafTable:
    """Every leaf of a built tree as arrays, read from its splits
    (``_layers``) without making a leaf node.

    ``count`` lists the leaves in ``walk()`` order, zero-count leaves
    included.  When the leaves are boxes (a tree of ``MeshSplit``s, or a
    box root that never split), ``low`` and ``high`` are their (L, d)
    corners; otherwise both are None.  ``depths`` holds one routing table
    per depth of the tree, for the F nodes divided there: ``(route, offset,
    target)``, where ``offset[f]`` is the position of node f's first child
    and ``target`` holds, per child, its frontier index at the next depth or
    ``~leaf`` (negative) for a leaf.  A mesh depth's ``route`` is the tuple
    ``(tables, ncuts)`` of +inf-padded per-axis cut tables that
    ``_mesh_digits`` reads; a Voronoi depth's is the list of its
    ``VoronoiSplit``s.  ``locate`` routes rows through these one depth at a
    time; ``node`` makes the node of one leaf on demand, and ``parent``
    returns the node whose split holds it.
    """

    def __init__(self, root: HistogramNode):
        layers = _layers(root)
        region, d = root.region, root.region.dim
        self._root, self._divided = root, [node for nodes, _ in layers for node in nodes]
        self.depths, self.low, self.high = [], None, None
        if not layers:  # a root that never split is the one leaf
            self.count = np.array([root.count], dtype=np.int64)
            if isinstance(region, Box):
                self.low, self.high = region.low[None], region.high[None]
            self._owner, self._key = np.full(1, -1), np.zeros(1, dtype=np.intp)
            return
        mesh = isinstance(root.split, MeshSplit)
        depths = []  # (route, sizes, offset, inner: kids' positions, child counts)
        for nodes, kids in layers:
            splits = [node.split for node in nodes]
            sizes = np.array([split.size for split in splits], dtype=np.intp)
            route = _mesh_tables(splits) if mesh else splits
            offset = np.cumsum(sizes) - sizes
            inner = np.array([offset[f] + k for f, k, _ in kids], dtype=np.intp)
            depths.append((route, sizes, offset, inner,
                           np.concatenate([node.counts for node in nodes])))
        # deepest first, the leaves below each divided node, and the leaves
        # beyond its own one that each child holds (nonzero for the kids)
        below, extras = [None] * len(depths), [None] * len(depths)
        for t in range(len(depths) - 1, -1, -1):
            _, sizes, offset, inner, _ = depths[t]
            extras[t] = np.zeros(int(sizes.sum()), dtype=np.int64)
            extras[t][inner] = below[t + 1] - 1 if inner.size else 0
            below[t] = sizes + np.add.reduceat(extras[t], offset)
        # each child's walk position from its node's, one depth at a time:
        # its node's first, plus one per earlier sibling, plus the extra
        # leaves of the earlier siblings
        L = int(below[0][0])
        self.count = np.empty(L, dtype=np.int64)
        if mesh:
            self.low, self.high = np.empty((L, d)), np.empty((L, d))
        self._owner, self._key = np.empty(L, dtype=np.intp), np.empty(L, dtype=np.intp)
        start, base = np.zeros(1, dtype=np.int64), 0
        for (route, sizes, offset, inner, counts), extra in zip(depths, extras):
            owner = np.repeat(np.arange(sizes.size), sizes)
            key = np.arange(owner.size) - offset[owner]
            skipped = np.cumsum(extra) - extra
            position = start[owner] + key + skipped - skipped[offset][owner]
            target = ~position
            target[inner] = np.arange(inner.size)
            leaf = target < 0
            at, owner, key = position[leaf], owner[leaf], key[leaf]
            self.count[at] = counts[leaf]
            self._owner[at], self._key[at] = base + owner, key
            if mesh:
                tables, ncuts = route
                for j in range(d - 1, -1, -1):  # the C-order digits of each leaf's key
                    radix = ncuts[owner, j] - 1
                    digit = key % radix
                    key = key // radix
                    self.low[at, j] = tables[j][owner, digit]
                    self.high[at, j] = tables[j][owner, digit + 1]
            self.depths.append((route, offset, target))
            start, base = position[inner], base + sizes.size

    def locate(self, X: np.ndarray) -> np.ndarray:
        """Walk-order leaf index of each row of X, for rows inside the root.
        The rows still above a leaf are routed one depth at a time: through
        a mesh depth's tables by ``_mesh_digits``, or by each Voronoi split's
        ``assign`` on the rows that reached it, in ascending order."""
        out = np.zeros(X.shape[0], dtype=np.intp)
        rows, owner = np.arange(X.shape[0]), np.zeros(X.shape[0], dtype=np.intp)
        for route, offset, target in self.depths:
            if not rows.size:
                break
            if isinstance(route, list):
                keys = np.empty(rows.size, dtype=np.intp)
                for split, part in zip(route, _partition(owner, len(route))):
                    if part.size:
                        keys[part] = split.assign(X[rows[part]])
            else:
                keys = _mesh_digits(*route, owner, X, rows)[1]
            to = target[offset[owner] + keys]
            leaf = to < 0
            out[rows[leaf]] = ~to[leaf]
            rows, owner = rows[~leaf], to[~leaf]
        return out

    def parent(self, i: int) -> HistogramNode:
        """The node whose split holds leaf i; the root for a root that never
        split, which is its own leaf."""
        f = int(self._owner[i])
        return self._root if f < 0 else self._divided[f]

    def node(self, i: int) -> HistogramNode:
        """The node of leaf i, made by its parent on first use."""
        return self._root if self._owner[i] < 0 else self.parent(i).child(int(self._key[i]))


class _Budget:
    """The nodes of each of a build's trials against ``NODE_BUDGET``: the
    root and every child of a split, made into a node or not, since
    documents publish each child's count.  A trial that a charge takes over
    the limit keeps its error in ``errors`` and is charged no more."""

    def __init__(self, trials: int = 1):
        self.limit, self.used = NODE_BUDGET, np.ones(trials, dtype=np.int64)
        self.errors: list[ResourceError | None] = [None] * trials

    def charge(self, n, why: str = "") -> np.ndarray:
        """Add n nodes (one count, or one per trial) to each trial still
        within the limit; which trials this took over it."""
        live = np.array([error is None for error in self.errors])
        self.used[live] += np.broadcast_to(n, live.shape)[live]
        over = live & (self.used > self.limit)
        for i in np.flatnonzero(over).tolist():
            self.errors[i] = ResourceError(f"node budget exceeded: {int(self.used[i])} nodes "
                                           f"requested{why}, limit {self.limit}")
        return over

    def check(self):
        """Raise the first trial's error, if one went over."""
        for error in self.errors:
            if error is not None:
                raise error


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


def _finest(magnitude: float) -> float:
    """The narrowest mesh spacing a build cuts at: 4 ulps of ``magnitude``,
    the largest coordinate its cut arithmetic reaches, so that every cut
    lands on a distinct increasing double."""
    return 4.0 * float(np.spacing(magnitude))


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
    """Deterministic dyadic histogram: split every cell with count >= 2t.
    Its ``next_cuts`` (see ``_grow_mesh``) halves every box of a frontier
    below ``max_depth`` that is at least ``_finest`` of the root's largest
    coordinate wide on every axis (about level 51 on [-1, 1]^d): each table
    row is [low, midpoint, high]."""
    root = _mesh_root(dataset, t, max_depth, root)
    finest = _finest(float(np.abs([root.low, root.high]).max()))

    def halves(low, high, levels, trial):
        table = np.stack([low, 0.5 * (low + high), high], axis=2)
        return ([table[:, j] for j in range(root.dim)], np.full(low.shape, 3), levels + 1,
                (levels < max_depth) & ((high - low).min(axis=1) >= finest))

    budget = _Budget()
    depths, _, _ = _grow_mesh(dataset, root, t, budget, halves)
    budget.check()
    return strip_to_sanitized(_mesh_tree(root, dataset.n, depths), dataset, method="cube", t=t,
                              max_depth=max_depth, seed=None)


class MeshDepth(NamedTuple):
    """One depth of a mesh build, for the F frontier boxes that split there.

    ``tables`` and ``ncuts`` are the split cut tables that ``_mesh_digits``
    reads; ``counts`` holds every child's count, box f's children at its
    offset (the sum of the child counts ``prod(ncuts - 1)`` before it) in C
    order; ``levels`` is each box's child level, and ``kids`` the positions
    in ``counts`` of the children that split again, ascending, so that kid i
    is frontier box i of the next depth; ``trial`` is each box's trial,
    ascending.
    """

    tables: list
    ncuts: np.ndarray
    counts: np.ndarray
    levels: np.ndarray
    kids: np.ndarray
    trial: np.ndarray


def _offsets(ncuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The child count of each split of one depth, and its first child's
    position among the depth's children."""
    sizes = np.prod(ncuts - 1, axis=1)
    return sizes, np.cumsum(sizes) - sizes


def _grow_mesh(dataset: Dataset, root: Box, t: int, budget: _Budget,
               next_cuts) -> tuple[list[MeshDepth], np.ndarray, np.ndarray]:
    """Mesh-split every cell holding at least 2t points while ``next_cuts``
    divides it, one depth of the tree at a time and for each of the
    budget's T trials at once, making no node.

    Each trial grows from its own root over its own copy of the rows:
    stacked row r is dataset row r % n of trial r // n.  The frontier is
    the F boxes that split next, each with its trial, ascending: the
    stacked rows they hold (``rows``, with ``owner[i]`` the frontier index
    of row ``rows[i]``) and their cut tables.  ``next_cuts(low, high,
    levels, trial)`` takes F boxes as (F, d) corner arrays with their (F,)
    levels and trials and returns ``(tables, ncuts, child_levels, splits)``:
    per axis j an (F, W_j) table whose row f holds box f's cuts, both ends
    included, then +inf padding; the (F, d) cut counts; each box's child
    level; and which boxes split.

    The boxes that split charge their children's count to their trial's
    budget, and a trial that this takes over the limit stops growing.  The
    other boxes' rows are routed at once by ``_mesh_digits``: a row's key is
    its box's offset plus its child index there.  One ``bincount`` gives
    every child's count, and ``next_cuts`` runs once on the boxes of all
    the children holding at least 2t rows.  Those that it divides keep
    their rows and make the next frontier.

    Returns ``(depths, low, high)``: one ``MeshDepth`` per depth, which only
    ``_mesh_tree`` turns into nodes, and the (T * n, d) low and high corners
    of each stacked row's leaf, written as the rows are routed, so
    ``measure_diameters`` reads grid leaf diameters from them without a
    tree.
    """
    n, X, trials = dataset.n, dataset.points, budget.used.size
    depths, low, high = [], np.tile(root.low, (trials * n, 1)), np.tile(root.high, (trials * n, 1))
    if n < 2 * t:
        return depths, low, high

    def split(low, high, levels, trial):
        tables, ncuts, levels, splits = next_cuts(low, high, levels, trial)
        sizes, _ = _offsets(ncuts[splits])
        totals = np.bincount(trial[splits], weights=sizes, minlength=trials)
        splits &= ~budget.charge(totals.astype(np.int64))[trial]
        keep = np.flatnonzero(splits)
        return [table[keep] for table in tables], ncuts[keep], levels[keep], trial[keep], keep

    def route(tables, ncuts, owner, rows):
        # each row's child index in its box, whose corners become the row's
        # leaf corners; the per-axis digits are dropped on return
        digits, keys = _mesh_digits(tables, ncuts, owner, X, rows % n)
        first = rows * root.dim  # each row's first coordinate in the flat corner arrays
        for j, (table, digit) in enumerate(zip(tables, digits)):
            at = owner * table.shape[1] + digit
            low.reshape(-1)[first + j] = table.take(at)
            high.reshape(-1)[first + j] = table.take(at + 1)
        return keys

    # each trial's root is its frontier box 0, and holds that trial's rows
    rows, big, total = np.arange(trials * n), np.arange(trials), trials
    keys, frontier = rows // n, (np.tile(root.low, (trials, 1)), np.tile(root.high, (trials, 1)),
                                 np.zeros(trials, dtype=np.intp), big)
    while True:
        tables, ncuts, levels, trial, keep = split(*frontier)
        if depths:  # the children that split again are known once they split
            depths[-1] = depths[-1]._replace(kids=big[keep])
        if not keep.size:
            return depths, low, high
        slot = np.full(total, -1)
        slot[big[keep]] = np.arange(keep.size)
        owner = slot[keys]
        mine = owner >= 0
        rows, owner = rows[mine], owner[mine]
        sizes, offset = _offsets(ncuts)
        total = int(sizes.sum())
        keys = route(tables, ncuts, owner, rows) + offset[owner]
        counts = np.bincount(keys, minlength=total)
        depths.append(MeshDepth(tables, ncuts, counts, levels, keep[:0], trial))
        big = np.flatnonzero(counts >= 2 * t)
        if not big.size:
            return depths, low, high
        # each big child's box from any of its rows, at its parent's child level
        held = np.empty(total, dtype=np.intp)
        held[keys] = rows
        parent = np.searchsorted(offset, big, side="right") - 1
        frontier = (low[held[big]], high[held[big]], levels[parent], trial[parent])


def _mesh_tree(root: Box, n: int, depths: list[MeshDepth]) -> HistogramNode:
    """The tree of a one-trial mesh build's ``depths`` over a root box
    holding n rows: each frontier box gets a node with a ``MeshSplit`` of
    views of its own table rows and a view of its child counts, and a child
    gets a node only when it splits again."""
    tree = HistogramNode(region=root, count=n, level=0)
    nodes = [tree]
    for tables, ncuts, counts, levels, kids, _ in depths:
        sizes, offset = _offsets(ncuts)
        for f, (node, m, a, b, level) in enumerate(zip(
                nodes, ncuts.tolist(), offset.tolist(), (offset + sizes).tolist(),
                levels.tolist())):
            node.divide(MeshSplit([table[f, :c] for table, c in zip(tables, m)]),
                        counts[a:b], level)
        parent = np.searchsorted(offset, kids, side="right") - 1
        nodes = [nodes[f].child(k) for f, k in zip(parent.tolist(),
                                                    (kids - offset[parent]).tolist())]
    return tree


# ---------------------------------------------------------------------------
# randomized shifted grid

GRID_OFFSET_DRAWS = 8  # offset centers a grid build draws before a mesh-corner row aborts it


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


def _grid_cuts(bases: np.ndarray, levels, low: np.ndarray, high: np.ndarray, lv: np.ndarray,
               trial: np.ndarray):
    """The ``next_cuts`` of shifted grids (see ``_grow_mesh``): each of F
    boxes, at levels ``lv``, is cut by the first mesh level below its own
    that puts a kept line of its trial's mesh strictly inside it.

    ``bases`` holds each trial's per-axis mesh offset as one (T, d) array,
    and ``levels`` each mesh level as (level, w, kept), in order from level
    1: ``kept`` is the (T, d, 2) array of each trial's ``_kept_lines`` index
    range (a, b) per axis, (1, 0) where the axis stays whole.  ``trial`` is
    each box's trial.  Level by level, for the boxes not yet resolved, an
    axis from lo to hi is cut at lo, at the kept lines base + k*w with k
    from max(floor((lo - base) / w), a) to min(ceil((hi - base) / w), b)
    that lie strictly inside (lo, hi), and at hi.  A box is resolved at the
    first level that cuts one of its axes; a box that no level cuts does not
    split.
    """
    F, d = low.shape
    ncuts = np.zeros((F, d), dtype=np.intp)
    child = np.zeros(F, dtype=np.intp)
    splits = np.zeros(F, dtype=bool)
    found = []  # (boxes, per-axis interior cuts, +inf padded) per resolving level
    for level, w, kept in levels[int(lv.min(initial=len(levels))):]:
        todo = np.flatnonzero(~splits & (lv < level))
        if not todo.size:
            continue
        inner, mesh = [], trial[todo]
        for j in range(d):
            lo, hi, base = low[todo, j, None], high[todo, j, None], bases[mesh, j, None]
            first = np.maximum(np.floor((lo - base) / w), kept[mesh, j, 0, None])
            last = np.minimum(np.ceil((hi - base) / w), kept[mesh, j, 1, None])
            k = first + np.arange(max(int((last - first).max()) + 1, 0))
            v = base + k * w
            v[(k > last) | (v <= lo) | (v >= hi)] = np.inf
            v.sort(axis=1)  # the kept lines, ascending, then the padding
            inner.append(v)
        got = np.stack([np.isfinite(v).sum(axis=1) for v in inner], axis=1)
        cut = got.any(axis=1)
        boxes = todo[cut]
        ncuts[boxes] = got[cut] + 2
        child[boxes] = level
        splits[boxes] = True
        found.append((boxes, [v[cut] for v in inner]))
        if splits.all():
            break
    tables = []
    for j in range(d):
        table = np.full((F, int(ncuts[:, j].max(initial=2))), np.inf)
        table[:, 0] = low[:, j]
        for boxes, inner in found:
            width = min(inner[j].shape[1], table.shape[1] - 2)
            table[boxes, 1:1 + width] = inner[j][:, :width]
        table[splits, ncuts[splits, j] - 1] = high[splits, j]
        tables.append(table)
    return tables, ncuts, child, splits


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
    on [-1, 1]^d), whichever comes first.  A dataset row on a corner of a
    mesh cell makes the build draw its center again (``_shifted_grid``).
    The nodes are made from the last draw's arrays, one for the root and
    one for each child that splits again.
    """
    root, centers, depths, _, _ = _shifted_grid(dataset, t, max_depth, [seed], root)
    return strip_to_sanitized(_mesh_tree(root, dataset.n, depths), dataset, method="grid", t=t,
                              max_depth=max_depth, seed=seed,
                              extra={"offset_center": centers[0].tolist()})


def _shifted_grid(
    dataset: Dataset,
    t: int,
    max_depth: int,
    seeds: list[int],
    root: Box | None = None,
) -> tuple[Box, np.ndarray, list[MeshDepth], np.ndarray, np.ndarray]:
    """The arrays of one shifted grid per seed, grown together as one
    ``_grow_mesh`` frontier and checked as ``strip_to_sanitized`` checks a
    tree, with no node made: ``(root, centers, depths, low, high)``, the
    checked root box, the (T, d) offset centers drawn, the ``MeshDepth``s
    of the last round of draws (with one seed, its grid), and the (T * n,
    d) low and high corners of each trial's rows' leaves, trial i's at rows
    i*n to (i+1)*n, which are never published.

    Draw 0 of a seed's offset center comes from ``substream(seed,
    "grid-offset")`` and draw i > 0 from ``substream(seed, "grid-offset",
    i)``.  Each round of draws grows the trials still drawing, charging
    each trial's budget per depth, and checks them with one scan of the
    round's arrays: a row on a root corner is an ``InputError``; a row on a
    corner of a cell of a trial's mesh (a ``CollisionError``) makes that
    trial draw again in the next round, and is raised once
    ``GRID_OFFSET_DRAWS`` draws have collided; leaf counts that do not sum
    to the rows are an ``InternalError`` and are not drawn again.  Once the
    rounds end, the error of the first trial that has one is raised, as a
    loop over the seeds, each grown then checked, would raise it.
    """
    root = _mesh_root(dataset, t, max_depth, root)
    sides = root.sides
    if not np.allclose(sides, sides[0]):
        raise InputError("shifted grid requires a cubical root region")
    side = float(sides[0])
    # mesh levels end at the finest spacing w at or above _finest of
    # |root| + 2*side, the largest magnitude the line arithmetic reaches
    # (about level 50 on [-1, 1]^d, where each axis holds 2^49 lines)
    finest = _finest(float(np.abs([root.low, root.high]).max()) + 2.0 * side)
    n, X, bounds = dataset.n, dataset.points, (root.low.tolist(), root.high.tolist())
    fixed = _on_published(X, [root.low, root.high])
    centers, errors = np.empty((len(seeds), root.dim)), [None] * len(seeds)
    drawing = list(range(len(seeds)))
    for draw in range(GRID_OFFSET_DRAWS):
        centers[drawing] = [uniform_in_region(root, 1, substream(seeds[i], "grid-offset",
                                                                 *([draw] if draw else [])))[0]
                            for i in drawing]
        bases = centers[drawing] - side  # low corners of the inflated cubes, fixed across levels
        levels = []
        for level in range(1, max_depth + 1):
            w = side * 2.0 ** (1 - level)
            if w < finest:
                break
            levels.append((level, w, np.array([[_kept_lines(b, w, lo, hi) or (1, 0)
                                                 for b, lo, hi in zip(base, *bounds)]
                                                for base in bases.tolist()])))

        def next_mesh(low, high, lv, trial):
            return _grid_cuts(bases, levels, low, high, lv, trial)

        budget = _Budget(len(drawing))
        depths, grown_low, grown_high = _grow_mesh(dataset, root, t, budget, next_mesh)
        hits = _mesh_corners(X, [(depth.tables, depth.ncuts, depth.trial) for depth in depths],
                             len(drawing))
        totals = _leaf_totals(depths, n, len(drawing))
        if not draw:  # every trial, in order: a later round writes its trials in
            low, high = grown_low, grown_high
        again = []
        for k, i in enumerate(drawing):
            errors[i] = budget.errors[k] or _published_error(fixed, hits[k], int(totals[k]))
            if isinstance(errors[i], CollisionError) and draw + 1 < GRID_OFFSET_DRAWS:
                again.append(i)
            elif draw:
                low[i * n:(i + 1) * n] = grown_low[k * n:(k + 1) * n]
                high[i * n:(i + 1) * n] = grown_high[k * n:(k + 1) * n]
        drawing = again
        if not drawing:
            break
    for error in errors:
        if error is not None:
            raise error
    return root, centers, depths, low, high


def _leaf_totals(depths: list[MeshDepth], n: int, trials: int) -> np.ndarray:
    """The sum of each trial's leaf counts, read from a frontier's
    ``depths``: a trial's split counts less those of its children that
    split again, or n for a trial whose root never split."""
    totals = np.zeros(trials, dtype=np.int64)
    for depth in depths:
        leaves = depth.counts.copy()
        leaves[depth.kids] = 0
        child_trial = np.repeat(depth.trial, _offsets(depth.ncuts)[0])
        totals += np.bincount(child_trial, weights=leaves, minlength=trials).astype(np.int64)
    split = np.zeros(trials, dtype=bool)
    if depths:
        split[depths[0].trial] = True
    return np.where(split, totals, n)


# ---------------------------------------------------------------------------
# Voronoi subdivision


VORONOI_CENTER_DRAWS = 8  # center sets a Voronoi split draws before a row on a center aborts it


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
    children of a split that divide again are certified in one batch, and
    each takes its certificate down with it.  A split of m centers charges
    m nodes once, a uniform one before drawing them.

    Draw 0 of a split's centers takes ``child_seed(seed, "centers", *path)``
    and draw i > 0 ``child_seed(seed, "centers", *path, "redraw", i)``.  A
    split whose centers hit one of its node's rows draws them again, up to
    ``VORONOI_CENTER_DRAWS`` draws; the last draw stands, and a row still on
    a center then aborts the build in ``strip_to_sanitized``."""
    if t < 1 or max_depth < 1:
        raise InputError("t and max_depth must be positive")
    if method not in ("greedy", "uniform"):
        raise InputError("method must be 'greedy' or 'uniform'")
    _require_inside(dataset, support, "support region")
    m = override_m if override_m is not None else method2_center_count(support.dim)
    budget = _Budget()

    def grow(node: HistogramNode, cert: RoundnessCertificate, idx: np.ndarray, path: tuple):
        region, rows = node.region, dataset.points[idx]
        if method == "uniform":
            budget.charge(m, f" for m={m} uniform centers per split in d={support.dim}")
            budget.check()
        for draw in range(VORONOI_CENTER_DRAWS):
            draw_seed = child_seed(seed, "centers", *path, *(["redraw", draw] if draw else []))
            if method == "greedy":
                centers = pick_centers_greedy(region, cert, probe_samples, seed=draw_seed)
            else:
                centers = pick_centers_uniform(region, m, seed=draw_seed, envelope=cert.envelope)
            if not _on_published(rows, centers).any():
                break
        if method == "greedy":
            budget.charge(len(centers))
            budget.check()
        split = VoronoiSplit(centers)
        parts = _partition(split.assign(rows), split.size)
        node.divide(split, [part.size for part in parts])
        if node.level + 1 >= max_depth:
            return
        growing = [i for i, part in enumerate(parts) if part.size > t]
        certs = certify_nodes([node.child(i) for i in growing])
        for i, child_cert in zip(growing, certs):
            grow(node.child(i), child_cert, idx[parts[i]], path + (i,))

    tree = HistogramNode(region=support, count=dataset.n, level=0)
    if dataset.n > t:
        grow(tree, certify_nodes([tree])[0], np.arange(dataset.n), ())
    extra = {"center_method": method}
    if method == "uniform":
        extra["default_center_formula_used"] = override_m is None
        if override_m is not None:
            extra["uniform_center_guarantee_voided"] = True
    return strip_to_sanitized(tree, dataset, method=f"voronoi-{method}", t=t,
                              max_depth=max_depth, seed=seed, extra=extra)


# ---------------------------------------------------------------------------
# sanitized output


def _on_published(points: np.ndarray, vectors: list | np.ndarray) -> np.ndarray:
    """Which rows of ``points`` equal one of ``vectors``."""
    if not len(vectors):
        return np.zeros(len(points), dtype=bool)
    # + 0.0 maps -0.0 to 0.0, so equality of the rows' bytes is value equality
    row = np.dtype((np.void, 8 * points.shape[1]))
    return np.isin((points + 0.0).view(row).ravel(),
                   (np.array(vectors, dtype=float) + 0.0).view(row).ravel())


def _mesh_corners(points: np.ndarray, meshes: list, trials: int) -> np.ndarray:
    """(trials, n): which rows of ``points`` are the low or high corner of a
    child of a mesh split of each trial.  ``meshes`` holds one ``(tables,
    ncuts, trial)`` per depth: the cut tables as ``_mesh_digits`` reads
    them and each split's trial.  A row is a low corner of a child of split
    f when each of its coordinates is one of f's cuts on that axis but the
    last, and a high corner when each is one of them but the first.

    Only suspects are compared: rows each of whose coordinates is a cut
    value on that axis in some split of any depth.  The benchmark's mesh
    builds (the box-query and grid-rebuild inputs at seeds 1-3) hold none,
    so there the scan ends at the prefilter."""
    hits = np.zeros((trials, len(points)), dtype=bool)
    if not meshes:
        return hits
    on_cuts = [np.isin(points[:, j], np.concatenate([tables[j].ravel() for tables, _, _ in meshes]))
               for j in range(points.shape[1])]
    suspects = np.flatnonzero(np.logical_and.reduce(on_cuts))
    if not suspects.size:
        return hits
    rows = points[suspects]
    for tables, ncuts, trial in meshes:
        for f, counts in enumerate(ncuts):
            cuts = [table[f, :count] for table, count in zip(tables, counts)]
            low = np.logical_and.reduce([np.isin(rows[:, j], c[:-1]) for j, c in enumerate(cuts)])
            high = np.logical_and.reduce([np.isin(rows[:, j], c[1:]) for j, c in enumerate(cuts)])
            hits[trial[f], suspects[low | high]] = True
    return hits


def _published_error(fixed: np.ndarray, drawn: np.ndarray, total: int):
    """The first check that a tree's publication fails, or None: that no
    row lies on a vector that every seed publishes (``fixed`` marks those
    that do: a root region's corners or center, and a cube's mesh corners),
    an input error; that none lies on a random one (``drawn``: a Voronoi
    center, a grid mesh corner), a ``CollisionError``; and that its leaf
    counts, summing to ``total``, sum to the rows."""
    if fixed.any():
        return InputError(
            f"sanitization aborted: dataset row {int(np.argmax(fixed))} equals a coordinate "
            "vector the output publishes at every seed; the model assumes no atoms, so no "
            "row may lie on a support corner or center or on a cube mesh corner")
    if drawn.any():
        return CollisionError(
            f"sanitization aborted: dataset row {int(np.argmax(drawn))}'s coordinate "
            "vector appeared in the output geometry")
    if total != fixed.size:
        return InternalError("leaf counts do not sum to the dataset size")
    return None


def strip_to_sanitized(
    tree: HistogramNode,
    dataset: Dataset,
    method: str,
    t: int,
    max_depth: int,
    seed: int | None,
    extra: dict | None = None,
) -> SanitizedHistogram:
    """Publish a built tree (regions, splits, counts and levels only) once
    its publication checks (``_published_error``) have passed it.  No row
    may lie on the root's corners or center, a Voronoi center or a mesh
    corner (``_mesh_corners``); a cube's mesh corners are published at
    every seed, a grid's are drawn.  Only the nodes that have a split are
    visited, one depth at a time; a mesh depth's cuts are read as its
    ``_mesh_tables``."""
    layers = _layers(tree)
    root, points = tree.region, dataset.points
    splits = [[node.split for node in nodes] for nodes, _ in layers]
    fixed = _on_published(points, [root.low, root.high] if isinstance(root, Box)
                          else [root.center])
    if isinstance(tree.split, MeshSplit):
        corners = _mesh_corners(points, [(*_mesh_tables(depth), np.zeros(len(depth), dtype=np.intp))
                                         for depth in splits], 1)[0]
        drawn = np.zeros(len(points), dtype=bool)
        if method == "cube":
            fixed |= corners
        else:
            drawn = corners
    else:
        drawn = _on_published(points, [c for depth in splits for split in depth
                                       for c in split.centers])
    error = _published_error(fixed, drawn, _leaf_total(tree, layers))
    if error is not None:
        raise error
    return SanitizedHistogram(
        root=tree,
        method=method,
        t=t,
        max_depth=max_depth,
        seed_commitment=seed_commitment(seed) if seed is not None else "deterministic",
        extra=dict(extra or {}),
    )


# ---------------------------------------------------------------------------
# published methods


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
