"""Isolation predicate and Monte Carlo attack strategies on sanitized output.

An observed attack success rate is a lower-bound probe of isolation risk:
it is evidence of weakness when high, and is not proof of privacy when low.
Every report carries that framing.  Attacks read only the published fields
of a sanitized histogram; the raw dataset is held by the harness purely to
score candidate points.

Every histogram is read through ``LeafTable(hist.root)``: leaves are
picked by count from its arrays in walk order, and a node is made only for
a leaf whose certificate or Voronoi region is asked for.  Box leaves take all
their uniform-in-leaf queries from one block of random numbers
(``_fill_uniform``), the same doubles as one draw per leaf.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError
from .geometry import Dataset, _knn_candidates, as_point, row_norms_dot, uniform_in_region
from .rng import substream
from .sanitizer import LeafTable, certify_nodes

RATE_INTERPRETATION = (
    "observed success rate is a lower-bound probe over sampled adversary "
    "strategies; a low rate is not a proof of privacy"
)

STRATEGIES = ("uniform-in-leaf", "leaf-center-weighted", "aux-informed")


@dataclass(frozen=True)
class IsolationParams:
    c: float
    t: int

    def __post_init__(self):
        if not (self.c >= 1.0):
            raise InputError("isolation requires c >= 1")
        if self.t < 1:
            raise InputError("isolation requires t >= 1")


@dataclass
class IsolationReport:
    strategy: str
    queries: int
    successes: int
    rate: float
    per_point_hits: np.ndarray
    aux_subset_size: int
    interpretation: str = RATE_INTERPRETATION

    def to_dict(self) -> dict:
        return {**asdict(self), "per_point_hits": self.per_point_hits.tolist()}


def isolates(q, dataset: Dataset, params: IsolationParams):
    """Does q (c,t)-isolate some dataset point?

    q isolates y when the closed ball of radius c*|q-y| around q holds fewer
    than t dataset points (y itself always counts, being inside that ball).
    Returns (isolated, victim index or None); ties resolve to the lowest
    index.
    """
    qp = as_point(q)
    if dataset.n == 0:
        raise InputError("isolation needs a non-empty dataset")
    if qp.size != dataset.d:
        raise InputError("dimension mismatch")
    dists = np.linalg.norm(dataset.points - qp, axis=1)
    order = np.sort(dists)
    counts = np.searchsorted(order, params.c * dists, side="right")
    hits = np.flatnonzero(counts < params.t)
    if hits.size:
        return True, int(hits[0])
    return False, None


def _score_queries(Q: np.ndarray, dataset: Dataset, params: IsolationParams,
                   allowed_victims: np.ndarray) -> np.ndarray:
    """Victim index per query (-1 when none), the lowest allowed index that
    ``isolates`` would accept.

    With d_(t) the t-th smallest distance from q, point j is isolated iff
    c*d_j < d_(t); for c >= 1 only points nearer than d_(t) qualify, so a
    k-nearest-neighbour query with k = t finds every candidate.  With fewer
    than t points, every point is isolated.
    """
    n = dataset.n
    if n < params.t:
        allowed = np.flatnonzero(allowed_victims)
        return np.full(Q.shape[0], allowed[0] if allowed.size else -1, dtype=int)
    kth, rows, idx, dists = _knn_candidates(dataset.points, Q, params.t)
    hit = allowed_victims[idx] & (params.c * dists < kth[rows])
    first = np.full(Q.shape[0], n, dtype=int)
    np.minimum.at(first, rows[hit], idx[hit])
    return np.where(first < n, first, -1)


def attack(
    hist,
    dataset: Dataset,
    params: IsolationParams,
    strategy: str,
    queries: int,
    seed: int = 0,
    aux_indices=None,
) -> IsolationReport:
    """Generate candidate isolation points from the sanitized histogram and
    score them against the raw dataset.

    Strategies: 'uniform-in-leaf' samples a count-weighted leaf then a point
    uniform in it; 'leaf-center-weighted' emits certified leaf centers;
    'aux-informed' additionally knows the exact coordinates of aux_indices
    points and aims at leaves with few unknown points (known points are
    excluded as victims).  A SanitizedHistogram holds only published fields
    (root region, splits, counts, levels), so that is all an attack reads.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if strategy != "aux-informed" and aux_indices is not None:
        raise InputError("aux_indices is only valid for the aux-informed strategy")
    if queries < 1:
        raise InputError("queries must be positive")
    aux = np.zeros(dataset.n, dtype=bool)
    if strategy == "aux-informed" and aux_indices is not None:
        known = np.fromiter(aux_indices, dtype=int)
        if known.size and not (0 <= known.min() and known.max() < dataset.n):
            raise InputError(f"aux_indices must lie in 0..{dataset.n - 1}")
        aux[known] = True
    allowed = ~aux

    rng = substream(seed, "attack", STRATEGIES.index(strategy))
    leaves = LeafTable(hist.root)
    counts = leaves.count.astype(float)
    if counts.sum() <= 0:
        raise InputError("histogram has no populated leaves to attack")

    if strategy == "uniform-in-leaf":
        chosen = rng.choice(counts.size, size=queries, p=counts / counts.sum())
        Q = np.empty((queries, hist.d))
        _fill_uniform(Q, np.arange(queries), chosen, leaves, rng)
    elif strategy == "leaf-center-weighted":
        Q = _sample_leaf_centers(hist.d, leaves, counts, queries, rng)
    else:
        Q = _sample_aux_informed(hist, leaves, counts, dataset, aux, queries, rng)

    victims = _score_queries(Q, dataset, params, allowed)
    hits = np.bincount(victims[victims >= 0], minlength=dataset.n)
    successes = int((victims >= 0).sum())
    return IsolationReport(
        strategy=strategy,
        queries=queries,
        successes=successes,
        rate=successes / queries,
        per_point_hits=hits,
        aux_subset_size=int(aux.sum()),
    )


def _fill_uniform(Q, rows, chosen, leaves, rng):
    """Write a point uniform in leaf ``chosen[i]`` of the ``LeafTable``
    ``leaves`` into ``Q[rows[i]]``, leaf by leaf in ascending order and row
    by row within a leaf.  Box leaves take one ``rng.random`` block for all
    rows, sorted stably by leaf: that consumes the generator exactly as one
    ``uniform_in_region`` call per leaf does, so every double is the same."""
    if leaves.low is None:
        for li in np.unique(chosen):
            mine = rows[chosen == li]
            Q[mine] = uniform_in_region(leaves.node(li).region, mine.size, rng)
        return
    order = np.argsort(chosen, kind="stable")
    picked = chosen[order]
    low = leaves.low[picked]
    Q[rows[order]] = low + (leaves.high[picked] - low) * rng.random((rows.size, Q.shape[1]))


def _sample_leaf_centers(d, leaves, counts, queries, rng):
    """Certified centers of count-weighted leaves; only the picked leaves
    get a node."""
    probs = counts / counts.sum()
    chosen = rng.choice(counts.size, size=queries, p=probs)
    picked = np.unique(chosen).tolist()
    Q = np.empty((queries, d))
    for li, cert in zip(picked, certify_nodes([leaves.node(li) for li in picked])):
        Q[chosen == li] = cert.witness
    return Q


def _sample_aux_informed(hist, leaves, counts, dataset, aux, queries, rng):
    """Aim at leaves holding the fewest unknown points; occasionally emit
    small offsets from known points to probe their neighbourhoods."""
    d = hist.d
    known = dataset.points[aux]
    unknown = counts - _points_per_leaf(hist, leaves, known)
    cand = np.flatnonzero(unknown >= 1)
    if cand.size == 0:
        cand = np.flatnonzero(counts > 0)
        weights = counts[cand]
    else:
        weights = 1.0 / unknown[cand]
    probs = weights / weights.sum()

    Q = np.empty((queries, d))
    use_offset = (known.shape[0] > 0) & (rng.random(queries) < 0.25)
    n_off = int(use_offset.sum())
    if n_off:
        picks = rng.choice(known.shape[0], size=n_off)
        leaf_sizes = _leaf_scales(leaves, rng.choice(cand, size=n_off, p=probs))
        dirs = rng.standard_normal((n_off, d))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-300)
        Q[use_offset] = known[picks] + 0.05 * leaf_sizes[:, None] * dirs
    rest = np.flatnonzero(~use_offset)
    _fill_uniform(Q, rest, rng.choice(cand, size=rest.size, p=probs), leaves, rng)
    return Q


def _points_per_leaf(hist, leaves, X: np.ndarray) -> np.ndarray:
    """Rows of X inside each leaf of the ``LeafTable`` ``leaves``.  The
    leaves partition the root, so one ``locate`` counts them; rows outside
    the root count in no leaf."""
    inside = X[hist.root.region.contains_many(X)]
    return np.bincount(leaves.locate(inside), minlength=leaves.count.size)


def _leaf_scales(leaves, ids: np.ndarray) -> np.ndarray:
    """Diameter of the bounding ball of each leaf ``ids[i]``: a box's
    diagonal, else twice its region's bounding radius."""
    if leaves.low is not None:
        return row_norms_dot(leaves.high[ids] - leaves.low[ids])
    return np.array([2.0 * leaves.node(i).region.bounding_ball()[1] for i in ids])
