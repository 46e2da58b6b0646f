"""Well-roundedness certification and privacy-condition validation.

A cell's certificate is a witness triple (k, R, p) with a ball of radius R/k
around p inside the cell and the cell inside a ball of radius R around p.
Box and ball cells use their exact centers and closed-form directional
boundary distances.  Voronoi cells have implicit boundaries: the witness is
found by maximizing the exact minimum halfspace/support margin (a concave
subgradient ascent started at the cell's own center), the inner radius is
that exact margin, and the outer radius comes from directional boundary
probing with a 1% safety factor.  Certificates are approximate witnesses and
all downstream checks carry explicit slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InputError, InternalError
from .geometry import (
    Ball,
    Box,
    Region,
    VoronoiClip,
    as_point,
    intersection_volume_ratio,
    uniform_in_ball,
    uniform_in_region,
)
from .rng import substream

OUTER_SAFETY = 1.01
INNER_SAFETY = 1.001


@dataclass(frozen=True)
class RoundnessCertificate:
    """Witness (k, R, p): B(p, R/k) inside the cell inside B(p, R)."""

    k: float
    radius: float
    witness: np.ndarray

    @property
    def inner_radius(self) -> float:
        return self.radius / self.k


# ---------------------------------------------------------------------------
# exact margins for Voronoi chains


def _chain(region: VoronoiClip):
    levels = []
    node: Region = region
    while isinstance(node, VoronoiClip):
        levels.append((node.centers, node.own_index))
        node = node.parent
    return levels, node


def _min_margin_grad(levels, root, Y, own_override=None):
    """Minimum signed boundary margin and its (sub)gradient at each row of Y.

    ``own_override`` replaces the own-index of the *first* level with a
    per-row array so sibling cells of one split can be processed jointly.
    """
    B = Y.shape[0]
    best = np.full(B, np.inf)
    grad = np.zeros_like(Y)
    rows = np.arange(B)
    for lvl, (centers, own) in enumerate(levels):
        own_arr = own_override if (lvl == 0 and own_override is not None) else np.full(B, own)
        cn = (centers * centers).sum(axis=1)
        d2 = (Y * Y).sum(axis=1)[:, None] - 2.0 * (Y @ centers.T) + cn[None, :]
        d2_own = d2[rows, own_arr]
        own_pts = centers[own_arr]
        cdist2 = (
            (own_pts * own_pts).sum(axis=1)[:, None]
            - 2.0 * (own_pts @ centers.T)
            + cn[None, :]
        )
        cdist = np.sqrt(np.maximum(cdist2, 0.0))
        cdist[rows, own_arr] = np.inf
        marg = (d2 - d2_own[:, None]) / (2.0 * cdist)
        marg[rows, own_arr] = np.inf
        j = np.argmin(marg, axis=1)
        mm = marg[rows, j]
        upd = mm < best
        if upd.any():
            g = (centers[own_arr] - centers[j]) / cdist[rows, j][:, None]
            grad[upd] = g[upd]
            best[upd] = mm[upd]
    if isinstance(root, Ball):
        rv = Y - root.center
        dist = np.linalg.norm(rv, axis=1)
        mm = root.radius - dist
        g = -rv / np.maximum(dist, 1e-300)[:, None]
        upd = mm < best
        grad[upd] = g[upd]
        best[upd] = mm[upd]
    elif isinstance(root, Box):
        low_m = Y - root.low
        high_m = root.high - Y
        axis_min = np.minimum(low_m, high_m)
        j = np.argmin(axis_min, axis=1)
        mm = axis_min[rows, j]
        upd = mm < best
        if upd.any():
            sign = np.where(low_m[rows, j] <= high_m[rows, j], 1.0, -1.0)
            g = np.zeros_like(Y)
            g[rows, j] = sign
            grad[upd] = g[upd]
            best[upd] = mm[upd]
    else:  # pragma: no cover - roots are always balls or boxes
        raise InternalError(f"unsupported root region {type(root).__name__}")
    return best, grad


def _bundle_direction(levels, root, Y, own_override, eps, mins):
    """Mean inward normal of all constraints within eps of the active margin.

    Plain subgradient ascent on a min of margins stalls in corners where two
    constraints are active; the averaged normal of the near-active set points
    into the wedge interior and escapes them.
    """
    B = Y.shape[0]
    rows = np.arange(B)
    cutoff = mins + eps
    acc = np.zeros_like(Y)
    for lvl, (centers, own) in enumerate(levels):
        own_arr = own_override if (lvl == 0 and own_override is not None) else np.full(B, own)
        cn = (centers * centers).sum(axis=1)
        d2 = (Y * Y).sum(axis=1)[:, None] - 2.0 * (Y @ centers.T) + cn[None, :]
        d2_own = d2[rows, own_arr]
        own_pts = centers[own_arr]
        cdist2 = (
            (own_pts * own_pts).sum(axis=1)[:, None]
            - 2.0 * (own_pts @ centers.T)
            + cn[None, :]
        )
        cdist = np.sqrt(np.maximum(cdist2, 1e-300))
        marg = (d2 - d2_own[:, None]) / (2.0 * cdist)
        marg[rows, own_arr] = np.inf
        w = (marg <= cutoff[:, None]) / cdist
        # sum_j w_j * (own - c_j) / |own - c_j| accumulated via two products
        acc += own_pts * w.sum(axis=1)[:, None] - w @ centers
    if isinstance(root, Ball):
        rv = Y - root.center
        dist = np.linalg.norm(rv, axis=1)
        active = (root.radius - dist) <= cutoff
        acc[active] -= rv[active] / np.maximum(dist[active], 1e-300)[:, None]
    elif isinstance(root, Box):
        low_m = Y - root.low
        high_m = root.high - Y
        acc += (low_m <= cutoff[:, None]).astype(float)
        acc -= (high_m <= cutoff[:, None]).astype(float)
    norms = np.linalg.norm(acc, axis=1, keepdims=True)
    return acc / np.maximum(norms, 1e-300)


def _ascend(levels, root, Y0, step0, iters, own_override):
    Y = Y0.copy()
    best, grad = _min_margin_grad(levels, root, Y, own_override)
    step = np.asarray(step0, dtype=float) * np.ones(Y.shape[0])
    for _ in range(iters):
        cand1 = Y + step[:, None] * grad
        m1, g1 = _min_margin_grad(levels, root, cand1, own_override)
        bundle = _bundle_direction(levels, root, Y, own_override, 0.5 * step, best)
        cand2 = Y + step[:, None] * bundle
        m2, g2 = _min_margin_grad(levels, root, cand2, own_override)
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


def _optimize_witnesses(levels, root, Y0, step0, iters=36, own_override=None):
    """Concave ascent on the minimum margin; never leaves the cells.

    A second pass restarts from the first result with a margin-scaled step,
    recovering cells where the step collapsed before the corner escape."""
    Y, best = _ascend(levels, root, Y0, step0, iters, own_override)
    restart = np.maximum(4.0 * best, 1e-12)
    Y2, best2 = _ascend(levels, root, Y, restart, max(iters // 2, 16), own_override)
    take = best2 > best
    Y[take] = Y2[take]
    best[take] = best2[take]
    return Y, best


# ---------------------------------------------------------------------------
# directional boundary distances


def _ray_exit_box(low, high, P: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hi = (high - P) / dirs
        t_lo = (low - P) / dirs
    t = np.where(dirs > 0, t_hi, np.where(dirs < 0, t_lo, np.inf))
    return t.min(axis=1)


def _ray_exit_ball(ball: Ball, P: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    rel = P - ball.center
    b = (dirs * rel).sum(axis=1)
    disc = b**2 + (ball.radius**2 - (rel * rel).sum(axis=1))
    return -b + np.sqrt(np.maximum(disc, 0.0))


def _ray_exit_chain(levels, root, own_arr, Y: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Exact exit distance along each ray (Y[i] + t * dirs[i]) from a Voronoi
    cell chain: the cell is an intersection of bisector halfspaces and the
    root region, so each constraint contributes slack/rate when the ray runs
    toward it."""
    n = Y.shape[0]
    rows = np.arange(n)
    t_exit = np.full(n, np.inf)
    for lvl, (centers, own) in enumerate(levels):
        o = own_arr if (lvl == 0 and own_arr is not None) else np.full(n, own)
        cn = (centers * centers).sum(axis=1)
        score_y = cn[None, :] - 2.0 * (Y @ centers.T)       # |y-c|^2 - |y|^2
        score_u = -2.0 * (dirs @ centers.T)                 # growth rate of score
        slack = score_y - score_y[rows, o][:, None]          # >= 0 inside the cell
        rate = score_u[rows, o][:, None] - score_u           # positive when heading out
        with np.errstate(divide="ignore", invalid="ignore"):
            t = slack / rate
        t[rate <= 0] = np.inf
        t[rows, o] = np.inf
        t_exit = np.minimum(t_exit, t.min(axis=1))
    if isinstance(root, Ball):
        t_exit = np.minimum(t_exit, _ray_exit_ball(root, Y, dirs))
    elif isinstance(root, Box):
        t_exit = np.minimum(t_exit, _ray_exit_box(root.low, root.high, Y, dirs))
    else:  # pragma: no cover
        raise InternalError(f"unsupported root region {type(root).__name__}")
    return t_exit


def boundary_distances(region: Region, p, dirs: np.ndarray) -> np.ndarray:
    """Distance from interior point p to the region boundary along each unit
    direction; exact ray intersection for every supported region."""
    p = as_point(p)
    P = np.broadcast_to(p, (dirs.shape[0], p.size))
    if isinstance(region, Box):
        return _ray_exit_box(region.low, region.high, P, dirs)
    if isinstance(region, Ball):
        return _ray_exit_ball(region, P, dirs)
    levels, root = _chain(region)
    return _ray_exit_chain(levels, root, None, np.ascontiguousarray(P), dirs)


def _random_directions(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms


# ---------------------------------------------------------------------------
# certification


def certify_roundness(region: Region, samples: int = 256, seed: int = 0) -> RoundnessCertificate:
    """Compute a witness certificate (k, R, p) for a bounded convex cell."""
    if samples < 8:
        raise InputError("certification needs at least 8 directions")
    rng = substream(seed, "certify")
    dirs = _random_directions(region.dim, samples, rng)
    if isinstance(region, (Box, Ball)):
        p = region.center
        t = boundary_distances(region, p, dirs)
        outer = float(t.max()) * OUTER_SAFETY
        inner = float(t.min()) / OUTER_SAFETY
        return RoundnessCertificate(k=outer / inner, radius=outer, witness=p)
    if not isinstance(region, VoronoiClip):
        raise InputError(f"cannot certify region type {type(region).__name__}")
    return certify_children(region.parent, region.centers, samples=samples, seed=seed,
                            indices=[region.own_index])[0]


def certify_children(
    parent: Region,
    centers: np.ndarray,
    samples: int = 128,
    seed: int = 0,
    indices=None,
) -> list[RoundnessCertificate]:
    """Certificates for Voronoi cells of one split, computed jointly.

    All cells share the center list, so witness optimization, membership and
    boundary bisection are batched across cells.
    """
    centers = np.asarray(centers, dtype=float)
    m, d = centers.shape
    if indices is None:
        indices = list(range(m))
    idx = np.asarray(indices, dtype=int)
    B = idx.size
    proto = VoronoiClip(centers, int(idx[0]), parent)
    levels, root = _chain(proto)

    rng = substream(seed, "certify-children")
    _, step0 = parent.bounding_ball()
    Y, inner = _optimize_witnesses(levels, root, centers[idx].copy(), step0 * 0.25,
                                   own_override=idx)
    inner = np.maximum(inner, 1e-14) / INNER_SAFETY

    dirs = _random_directions(d, samples, rng)
    pts_start = np.repeat(Y, samples, axis=0)
    pts_dirs = np.tile(dirs, (B, 1))
    own_rep = np.repeat(idx, samples)
    t = _ray_exit_chain(levels, root, own_rep, pts_start, pts_dirs).reshape(B, samples)
    outer = t.max(axis=1) * OUTER_SAFETY
    certs = []
    for b in range(B):
        certs.append(
            RoundnessCertificate(k=float(outer[b] / inner[b]), radius=float(outer[b]),
                                 witness=Y[b].copy())
        )
    return certs


# ---------------------------------------------------------------------------
# cover / spread predicates


def well_spread_check(centers, r2: float) -> bool:
    """Exact pairwise check: every distinct pair at distance >= r2."""
    pts = np.asarray(centers, dtype=float)
    if pts.shape[0] < 2:
        raise InputError("well-spread check needs at least two centers")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    iu = np.triu_indices(pts.shape[0], k=1)
    return bool(np.all(dist[iu] >= r2))


def cover_check(
    centers,
    region: Region,
    r1: float,
    probes: int = 10_000,
    seed: int = 0,
    envelope=None,
    polish: bool = False,
) -> tuple[bool, float]:
    """Probe-based covering audit: (covered, worst nearest-center gap).

    With ``polish`` the worst probes are refined by feasible local ascent on
    the distance to the nearest center, sharpening the gap estimate (plain
    probing converges slowly because the deepest uncovered pocket has tiny
    volume).  Every evaluated point stays inside the region, so the result
    remains a sound lower bound on the true covering radius.
    """
    pts = np.asarray(centers, dtype=float)
    if pts.shape[0] < 1:
        raise InputError("cover check needs at least one center")
    rng = substream(seed, "cover")
    sample = uniform_in_region(region, probes, rng, envelope=envelope)
    worst = 0.0
    leaders = []
    for lo in range(0, probes, 65536):
        block = sample[lo : lo + 65536]
        dmin = _nearest_center_distance(pts, block)
        worst = max(worst, float(dmin.max()))
        if polish:
            take = np.argsort(dmin)[-32:]
            leaders.append(block[take])
    if polish and leaders:
        starts = np.concatenate(leaders)
        # pockets concentrate near the region boundary: push starts outward
        # along the away-from-nearest-center direction to seed the ascent there
        away = starts - pts[np.argmin(
            ((starts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2), axis=1)]
        away /= np.maximum(np.linalg.norm(away, axis=1, keepdims=True), 1e-300)
        shifted = []
        for frac in (0.5, 1.0, 2.0):
            cand = starts + frac * worst * away
            keep = region.contains_many(cand)
            if keep.any():
                shifted.append(cand[keep])
        if shifted:
            starts = np.concatenate([starts] + shifted)
        worst = max(worst, _polish_cover_gap(pts, region, starts, worst))
    return worst <= r1, worst


def _nearest_center_distance(centers: np.ndarray, X: np.ndarray) -> np.ndarray:
    d2 = (
        (X * X).sum(axis=1)[:, None]
        - 2.0 * (X @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.sqrt(np.maximum(d2.min(axis=1), 0.0))


def _region_inward_normal(region: Region, Y: np.ndarray) -> np.ndarray:
    """Inward normal of the region constraint nearest to each row of Y."""
    if isinstance(region, VoronoiClip):
        levels, root = _chain(region)
        _, grad = _min_margin_grad(levels, root, Y)
        return grad
    _, grad = _min_margin_grad([], region, Y)
    return grad


def _polish_cover_gap(centers, region: Region, starts: np.ndarray, scale: float,
                      iters: int = 60) -> float:
    """Feasible ascent of min-distance-to-centers from the given starts.

    The worst pocket usually sits on the region boundary, where the plain
    away-from-center step exits the region; a second candidate slides along
    the boundary (the away direction projected onto the active constraint's
    tangent plane).
    """
    Y = starts.copy()
    best = _nearest_center_distance(centers, Y)
    step = np.full(Y.shape[0], 0.5 * scale)
    for _ in range(iters):
        d2 = (
            (Y * Y).sum(axis=1)[:, None]
            - 2.0 * (Y @ centers.T)
            + (centers * centers).sum(axis=1)[None, :]
        )
        near = np.argmin(d2, axis=1)
        away = Y - centers[near]
        away /= np.maximum(np.linalg.norm(away, axis=1, keepdims=True), 1e-300)
        normal = _region_inward_normal(region, Y)
        tang = away - (away * normal).sum(axis=1, keepdims=True) * normal
        tang /= np.maximum(np.linalg.norm(tang, axis=1, keepdims=True), 1e-300)
        improved_any = np.zeros(Y.shape[0], dtype=bool)
        for direction in (away, tang):
            cand = Y + step[:, None] * direction
            ok = region.contains_many(cand)
            gain = np.where(ok, _nearest_center_distance(centers, cand), -np.inf)
            improved = gain > best
            Y[improved] = cand[improved]
            best[improved] = gain[improved]
            improved_any |= improved
        step[improved_any] *= 1.2
        step[~improved_any] *= 0.5
    return float(best.max())


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
    failures: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "cells_checked": self.cells_checked,
            "probes_per_cell": self.probes_per_cell,
            "c": self.c,
            "epsilon_observed": self.epsilon_observed,
            "containment_count": self.containment_count,
            "ratio_count": self.ratio_count,
            "degenerate_count": self.degenerate_count,
            "failures": self.failures,
        }


def _leaf_parent_pairs(root_node):
    """DFS (leaf, parent) pairs; a root leaf is its own parent."""
    out = []

    def walk(node, parent):
        if node.children:
            for ch in node.children:
                walk(ch, node)
        else:
            out.append((node, parent if parent is not None else node))

    walk(root_node, None)
    return out


def check_privacy_condition(
    root_node,
    c: float,
    q_probes: int = 8,
    r_grid_size: int = 8,
    volume_samples: int = 20_000,
    seed: int = 0,
    epsilon_threshold: float = math.inf,
    cert_samples: int = 128,
    max_cells: int | None = None,
) -> PrivacyConditionReport:
    """Probe every leaf cell for the containment-or-small-ratio dichotomy.

    For each leaf C with parent P, probe points q in an inflated ball around
    C's witness (radius 2R, covering exterior q) against a geometric radius
    grid; each (q, r) either satisfies the sufficient containment test
    c*r >= |q - p_P| + R_P or contributes a Monte Carlo volume ratio.  The
    report's epsilon is the worst ratio observed.
    """
    if not c > 1:
        raise InputError("requires c > 1")
    pairs = _leaf_parent_pairs(root_node)
    if max_cells is not None:
        pairs = pairs[:max_cells]
    cert_cache: dict[int, RoundnessCertificate] = {}

    def cert_of(node, cell_id):
        key = id(node)
        if key not in cert_cache:
            cert_cache[key] = certify_roundness(node.region, samples=cert_samples,
                                                seed=(seed * 1_000_003 + cell_id))
        return cert_cache[key]

    eps = 0.0
    containment = ratio_n = degenerate = 0
    failures = []
    for cell_id, (leaf, parent) in enumerate(pairs):
        cert_c = cert_of(leaf, cell_id)
        cert_p = cert_of(parent, cell_id + len(pairs))
        rng = substream(seed, "privacy-q", cell_id)
        qs = uniform_in_ball(cert_c.witness, 2.0 * cert_c.radius, q_probes, rng)
        rs = np.geomspace(cert_c.radius / 1e4, 2.0 * cert_c.radius, r_grid_size)
        sub_seeds = rng.integers(0, 2**62, size=(q_probes, r_grid_size))
        for qi in range(q_probes):
            dist_qp = float(np.linalg.norm(qs[qi] - cert_p.witness))
            for ri in range(r_grid_size):
                r = float(rs[ri])
                if c * r >= dist_qp + cert_p.radius:
                    containment += 1
                    continue
                try:
                    ratio, _ = intersection_volume_ratio(
                        qs[qi], r, c, leaf.region, volume_samples,
                        seed=int(sub_seeds[qi, ri]),
                    )
                except DegenerateGeometryError:
                    degenerate += 1
                    continue
                ratio_n += 1
                if ratio > eps:
                    eps = ratio
                if ratio >= epsilon_threshold:
                    failures.append(
                        {"cell": cell_id, "q": qs[qi].tolist(), "r": r, "ratio": ratio}
                    )
    return PrivacyConditionReport(
        cells_checked=len(pairs),
        probes_per_cell=q_probes * r_grid_size,
        c=c,
        epsilon_observed=eps,
        containment_count=containment,
        ratio_count=ratio_n,
        degenerate_count=degenerate,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# per-split audits of built Voronoi histograms


@dataclass
class SplitAudit:
    path: tuple
    level: int
    r1: float
    r2: float
    parent_k: float
    parent_radius: float
    child_ks: list
    child_radii: list

    def cover_spread_bound(self, slack: float = 1.1) -> float:
        return 4.0 * self.r1 * self.parent_k / self.r2 * slack

    def children_within_bound(self, slack: float = 1.1) -> bool:
        bound = self.cover_spread_bound(slack)
        return all(k <= bound for k in self.child_ks)


def audit_voronoi_splits(
    root_node,
    probes: int = 20_000,
    samples: int = 128,
    seed: int = 0,
) -> list[SplitAudit]:
    """Audit every split of a Voronoi-built tree.

    For each subdivided cell: certify the parent, measure the emitted
    centers' exact spread radius r2 and probe-audited cover radius r1, and
    certify every child.  Consumers check the roundness recurrences against
    these records.
    """
    from .sanitizer import VoronoiSplit  # the sanitizer imports this module

    audits = []

    def walk(node, path):
        if not node.children:
            return
        if isinstance(node.split, VoronoiSplit):
            centers = node.split.centers
            parent_cert = certify_roundness(node.region, samples=samples,
                                            seed=seed + 7919 * len(audits))
            diff = centers[:, None, :] - centers[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
            iu = np.triu_indices(centers.shape[0], k=1)
            r2 = float(dist[iu].min())
            envelope = (parent_cert.witness, parent_cert.radius * 1.02)
            _, r1 = cover_check(centers, node.region, math.inf, probes=probes,
                                seed=seed + 104729 * len(audits), envelope=envelope,
                                polish=True)
            certs = certify_children(node.region, centers, samples=samples,
                                     seed=seed + 15485863 * len(audits))
            audits.append(
                SplitAudit(
                    path=tuple(path),
                    level=node.level,
                    r1=r1,
                    r2=r2,
                    parent_k=parent_cert.k,
                    parent_radius=parent_cert.radius,
                    child_ks=[c.k for c in certs],
                    child_radii=[c.radius for c in certs],
                )
            )
        for i, ch in enumerate(node.children):
            walk(ch, path + [i])

    walk(root_node, [])
    return audits
