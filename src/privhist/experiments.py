"""Repro suites: parameter-pinned experiments shared by the CLI `repro`
subcommand and the acceptance test suite.

Each suite returns a JSON-ready dict with a boolean "pass" plus the raw
measurements it was judged on.  Statistical suites run at fixed seeds; their
tolerances are part of the suite definition (see each docstring).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .adversary import IsolationParams, attack
from .datagen import UniformBall, UniformCube, sample, single
from .errors import InputError
from .geometry import Ball, Dataset, intersection_volume_ratio, unit_ball_volume
from .metrics import (
    _row_norms,
    cut_probability,
    hist_distance_with_diameters,
    measure_diameters,
    mst_compare,
)
from .roundness import audit_voronoi_splits, certify_roundness
from .rng import substream
from .sanitizer import build_recursive_cube, build_shifted_grid, build_voronoi

# constant for the uniform-centers roundness audit: children must certify
# k <= UNIFORM_SPLIT_K_FACTOR * k_parent^2 with radius <= R/2 * 1.1
UNIFORM_SPLIT_K_FACTOR = 32.0
RADIUS_SLACK = 1.1
SPLIT_BOUND_SLACK = 1.1


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITE_FUNCTIONS:
        raise InputError(f"unknown suite {name!r}; choose from {SUITES}")
    return SUITE_FUNCTIONS[name](seed)


# ---------------------------------------------------------------------------


def suite_distance_sandwich(seed: int = 0, configs: int = 20, pairs: int = 500) -> dict:
    """Two-sided histogram-distance sandwich on random configurations.

    |x-y| <= d_H(x,y) <= |x-y| + diam(C_x) + diam(C_y) must hold for every
    sampled pair, with 8-ulp floating slack.
    """
    rng = substream(seed, "sandwich-config")
    checked = violations = 0
    details = []
    for cfg in range(configs):
        builder = ("cube", "grid", "voronoi-greedy")[cfg % 3]
        d = int(rng.integers(1, 5)) if builder != "voronoi-greedy" else int(rng.integers(2, 4))
        n = int(rng.integers(60, 260))
        t = int(rng.choice([2, 3, 5]))
        dseed = int(rng.integers(0, 2**62))
        bseed = int(rng.integers(0, 2**62))
        if builder == "voronoi-greedy":
            data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), n, seed=dseed)
            hist = build_voronoi(data, Ball(np.zeros(d), 1.0), t=t, max_depth=2,
                                 method="greedy", probe_samples=20_000, seed=bseed)
        else:
            data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), n, seed=dseed)
            if builder == "cube":
                hist = build_recursive_cube(data, t=t, max_depth=6)
            else:
                hist = build_shifted_grid(data, t=t, max_depth=6, seed=bseed)
        idx = rng.integers(0, n, size=(pairs, 2))
        X, Y = data.points[idx[:, 0]], data.points[idx[:, 1]]
        dh, dx, dy = hist_distance_with_diameters(hist, X, Y)
        base = _row_norms(X - Y)
        slack = 8 * np.spacing(np.maximum(base + dx + dy, 1.0))
        bad = int(np.count_nonzero(~((base - slack <= dh) & (dh <= base + dx + dy + slack))))
        checked += pairs
        violations += bad
        details.append({"config": cfg, "builder": builder, "d": d, "n": n, "t": t,
                        "violations": bad})
    return {
        "suite": "eq2-sandwich",
        "pairs_checked": checked,
        "violations": violations,
        "configs": details,
        "pass": violations == 0,
    }


def suite_ratio_decay(seed: int = 0, samples: int = 1_000_000) -> dict:
    """Volume-ratio decay with dimension for ball cells.

    Fixed interior q and (r, c') with the probe balls nested in the cell, so
    the true ratio is c'^-d; requires a log-linear fit with slope alpha >= 1
    and R^2 >= 0.95 over d in {2,4,6,8}.
    """
    cprime = 2.0 * math.sqrt(2.0)
    r = 0.1
    dims = np.array([2, 4, 6, 8])
    logs = []
    measured = []
    for d in dims:
        cell = Ball(np.zeros(d), 1.0)
        q = np.zeros(d)
        q[0] = 0.1
        ratio, stderr = intersection_volume_ratio(q, r, cprime, cell, samples,
                                                  seed=seed + d)
        measured.append({"d": int(d), "ratio": ratio, "stderr": stderr})
        logs.append(math.log2(ratio))
    logs = np.array(logs)
    A = np.vstack([dims, np.ones_like(dims)]).T.astype(float)
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    alpha = -coef[0]
    pred = A @ coef
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    return {
        "suite": "lemma21-decay",
        "c_prime": cprime,
        "r": r,
        "measured": measured,
        "alpha": float(alpha),
        "r_squared": r2,
        "pass": bool(alpha >= 1.0 and r2 >= 0.95),
    }


def suite_uniform_split_roundness(seed: int = 0, seeds: int = 100) -> dict:
    """Roundness of uniform-center Voronoi splits at desk scale.

    d=2, m=512 centers: a build passes when every child certifies with
    radius <= R/2 * 1.1 and k <= 32 * k_parent^2.  The run passes when the
    failure count stays within the 99th-percentile binomial envelope at the
    nominal per-build failure rate exp(-d).
    """
    from scipy import stats as sp_stats  # slow to import; no other caller

    d = 2
    data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), 8, seed=seed + 77)
    support = Ball(np.zeros(d), 1.0)
    parent_cert = certify_roundness(support)
    k_threshold = UNIFORM_SPLIT_K_FACTOR * parent_cert.k**2
    radius_threshold = parent_cert.radius / 2.0 * RADIUS_SLACK
    failures = 0
    records = []
    for s in range(seeds):
        hist = build_voronoi(data, support, t=2, max_depth=1, method="uniform",
                             seed=seed * 7919 + s)
        audit = audit_voronoi_splits(hist.root, probes=2_000, seed=seed * 104729 + s)[0]
        kmax = max(audit.child_ks)
        radmax = max(audit.child_radii)
        ok = kmax <= k_threshold and radmax <= radius_threshold
        failures += not ok
        records.append({"seed": s, "k_max": kmax, "radius_max": radmax, "ok": bool(ok)})
    allowed = int(sp_stats.binom.ppf(0.99, seeds, math.exp(-d)))
    return {
        "suite": "lemma24-roundness",
        "d": d,
        "m": 512,
        "builds": seeds,
        "k_threshold": k_threshold,
        "radius_threshold": radius_threshold,
        "failures": failures,
        "allowed_failures": allowed,
        "records": records,
        "pass": failures <= allowed,
    }


def suite_greedy_split_roundness(seed: int = 0, builds_per_dim: int = 50) -> dict:
    """Cover/spread consequence on greedy Voronoi splits (d=2 and d=3).

    Every split's children must certify k <= (4 * r1 * k / r2) * 1.1 with
    (r1, r2) audited from the emitted centers.
    """
    splits = 0
    worst = 0.0
    failures = []
    for d in (2, 3):
        for s in range(builds_per_dim):
            data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), 150,
                             seed=seed + 1000 * d + s)
            hist = build_voronoi(data, Ball(np.zeros(d), 1.0), t=8, max_depth=2,
                                 method="greedy", probe_samples=20_000,
                                 seed=seed + 13 * s)
            audits = audit_voronoi_splits(hist.root, probes=20_000, seed=seed + 31 * s)
            for a in audits:
                splits += 1
                ratio = max(a.child_ks) / a.cover_spread_bound(SPLIT_BOUND_SLACK)
                worst = max(worst, ratio)
                if ratio > 1.0:
                    failures.append({"d": d, "seed": s, "level": a.level,
                                     "k_max": max(a.child_ks),
                                     "bound": a.cover_spread_bound(SPLIT_BOUND_SLACK)})
    return {
        "suite": "greedy-split-roundness",
        "splits_audited": splits,
        "worst_ratio": worst,
        "failures": failures,
        "pass": not failures,
    }


def suite_grid_diameter_bound(seed: int = 0, trials: int = 200, n: int = 500) -> dict:
    """Mean smallest-cell diameters vs the t-radius bound on shifted grids.

    d in {2,4}, t=2: every point's empirical mean diameter over `trials`
    rebuilds must sit below 2*min(d^1.5, t*d)*r*log2(1/r) (level factor
    clamped to at least 1).
    """
    results = []
    ok = True
    for d in (2, 4):
        data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), n, seed=seed + 2024 + d)
        stats = measure_diameters(data, t=2, trials=trials, seed=seed + 5,
                                  method="grid", max_depth=8)
        margins = np.array([m / b for _, _, m, b in stats.per_point])
        viol = int((margins > 1.0).sum())
        ok &= viol == 0
        results.append({"d": d, "points": n, "trials": trials, "violations": viol,
                        "worst_mean_over_bound": float(margins.max())})
    return {"suite": "thm31-bound", "results": results, "pass": bool(ok)}


def suite_cut_probability_slope(seed: int = 0, trials: int = 1000) -> dict:
    """Cut-probability linearity in r for uniform Voronoi partitions.

    d in {2,3}, m=512 uniform centers in the unit ball, 10 geometric radii
    spanning [rho/1e3, rho/10]: estimates must be monotone (exact, since one
    cell-boundary margin per trial answers every radius), and a least-squares
    line through the origin (the model's form: cut probability vanishes at
    r=0) must reach R^2 >= 0.9 with slope within a factor 10 of d/rho.

    rho is the cell scale of the partition being measured, not the radius of
    the support: rho_c = (vol(support) / (m * V_d))^(1/d), the radius of a
    ball whose volume is the mean cell volume (V_d the unit-ball volume).
    For the unit ball this is m^(-1/d): 0.044 at d=2, 0.125 at d=3.  With
    centers at intensity lambda = 1 / (V_d * rho_c^d), a small ball B(x, r)
    is cut when x lies within r of a cell boundary, which has probability
    ~ 2r times the boundary density of the Poisson-Voronoi tessellation
    (Okabe et al., Spatial Tessellations): L_A = 2*sqrt(lambda) in 2-D and
    S_V ~ 2.910*lambda^(1/3) in 3-D.  The predicted slopes are therefore
    4/(sqrt(pi)*rho_c) = 1.13 * d/rho_c at d=2 and
    5.82/((4*pi/3)^(1/3)*rho_c) = 1.20 * d/rho_c at d=3, independent of m.
    Against the support radius the slope would grow like m^(1/d), and the
    radius grid would run past the cell scale into saturation.
    """
    m = 512
    results = []
    all_pass = True
    for d in (2, 3):
        support = Ball(np.zeros(d), 1.0)
        cell_scale = (support.volume() / (m * unit_ball_volume(d))) ** (1.0 / d)
        rs = np.geomspace(cell_scale / 1e3, cell_scale / 10.0, 10)
        rows = cut_probability(support, np.zeros(d), rs, m=m, trials=trials,
                               seed=seed + 42 + d)
        r = np.array([row[0] for row in rows])
        p = np.array([row[1] for row in rows])
        monotone = bool(np.all(np.diff(p) >= 0))
        slope = float((p @ r) / (r @ r))
        resid = p - slope * r
        r2 = float(1.0 - (resid @ resid) / (p @ p))
        ratio = slope / (d / cell_scale)
        passed = monotone and r2 >= 0.9 and 0.1 <= ratio <= 10.0
        all_pass &= passed
        results.append({
            "d": d,
            "support_radius": support.radius,
            "cell_scale": cell_scale,
            "r_values": r.tolist(),
            "probabilities": p.tolist(),
            "monotone": monotone,
            "slope": slope,
            "slope_over_d_rho": ratio,
            "r_squared": r2,
            "pass": passed,
        })
    return {"suite": "lemma32-slope", "m": m, "trials": trials,
            "results": results, "pass": bool(all_pass)}


def suite_voronoi_diameter_fit(seed: int = 0, trials: int = 40, n: int = 120) -> dict:
    """Fit of mean Voronoi cell diameters to kappa*(depth*d*r + 2^-depth).

    The hidden constant is fitted, reported, and sanity-checked: every
    point's mean diameter must stay within 2.5x its fitted prediction.
    """
    d, depth = 2, 3
    data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), n, seed=seed + 909)
    stats = measure_diameters(data, t=4, trials=trials, seed=seed + 11,
                              method="voronoi-greedy", max_depth=depth,
                              support=Ball(np.zeros(d), 1.0), probe_samples=8_000)
    margins = np.array([m / b for _, _, m, b in stats.per_point])
    return {
        "suite": "lemma33-fit",
        "d": d,
        "depth": depth,
        "trials": trials,
        "fitted_coeff": stats.fitted_coeff,
        "worst_mean_over_fit": float(margins.max()),
        "pass": bool(stats.fitted_coeff > 0 and margins.max() <= 2.5),
    }


def suite_isolation_dimension_trend(seed: int = 0, pairs: int = 10,
                                    queries: int = 10_000) -> dict:
    """Isolation success vs dimension on recursive-cube histograms.

    Matched attacks (same data seed per pair) at d=4 and d=10 with
    uniform-in-leaf queries; the d=10 rate must be strictly below the d=4
    rate in at least 9 of 10 pairs.
    """
    params = IsolationParams(c=4.0, t=2)
    wins = 0
    rows = []
    for s in range(pairs):
        rates = {}
        for d in (4, 10):
            data, _ = sample(single(UniformCube(np.zeros(d), 1.0)), 200,
                             seed=seed + 31_000 + s)
            hist = build_recursive_cube(data, t=2, max_depth=8)
            rep = attack(hist, data, params, "uniform-in-leaf", queries=queries,
                         seed=seed + 500 + s)
            rates[d] = rep.rate
        wins += rates[10] < rates[4]
        rows.append({"pair": s, "rate_d4": rates[4], "rate_d10": rates[10]})
    return {
        "suite": "thm11-trend",
        "queries": queries,
        "pairs": rows,
        "strict_wins": int(wins),
        "pass": bool(wins >= 9),
    }


def adversarial_corner_arrangement(d: int, gamma: float = 0.01) -> Dataset:
    """2^d points at the corners of a tiny hypercube around the origin; the
    deterministic cube construction isolates each in its own cell after one
    split."""
    corners = np.array(list(itertools.product(*[[-gamma, gamma]] * d)))
    return Dataset(corners)


def suite_mst_gap(seed: int = 0, grid_seeds: int = 50) -> dict:
    """MST cost gap on the adversarial corner arrangement at d=8.

    The deterministic cube histogram must show gap/actual > 1; the shifted
    grid must keep gap <= gap_bound on every seed with a mean
    gap_bound/actual strictly below the deterministic ratio.
    """
    d = 8
    data = adversarial_corner_arrangement(d)
    cube_hist = build_recursive_cube(data, t=2, max_depth=8)
    cube_cmp = mst_compare(cube_hist, data)
    cube_ratio = cube_cmp.gap / cube_cmp.actual_cost
    per_seed = []
    bound_ok = True
    for s in range(grid_seeds):
        grid = build_shifted_grid(data, t=2, max_depth=8, seed=seed + s)
        cmp_ = mst_compare(grid, data)
        bound_ok &= cmp_.gap <= cmp_.gap_bound
        per_seed.append({"seed": s, "gap": cmp_.gap, "gap_bound": cmp_.gap_bound,
                         "actual": cmp_.actual_cost})
    mean_bound_ratio = float(np.mean([r["gap_bound"] / r["actual"] for r in per_seed]))
    return {
        "suite": "mst-gap",
        "d": d,
        "cube_gap_over_actual": float(cube_ratio),
        "grid_mean_gap_bound_over_actual": mean_bound_ratio,
        "grid_all_within_bound": bool(bound_ok),
        "grid_seeds": per_seed,
        "pass": bool(cube_ratio > 1.0 and bound_ok and mean_bound_ratio < cube_ratio),
    }


SUITE_FUNCTIONS = {
    "thm11-trend": suite_isolation_dimension_trend,
    "lemma21-decay": suite_ratio_decay,
    "lemma24-roundness": suite_uniform_split_roundness,
    "greedy-split-roundness": suite_greedy_split_roundness,
    "eq2-sandwich": suite_distance_sandwich,
    "thm31-bound": suite_grid_diameter_bound,
    "lemma32-slope": suite_cut_probability_slope,
    "lemma33-fit": suite_voronoi_diameter_fit,
    "mst-gap": suite_mst_gap,
}
SUITES = tuple(SUITE_FUNCTIONS)
