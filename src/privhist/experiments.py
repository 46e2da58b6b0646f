"""Repro suites: the acceptance criteria, each defined once and run by both
the CLI `repro` subcommand and the acceptance test.

Criterion NN is the NN-th entry of ``SUITES``.  Each suite takes only a seed
and returns a JSON-ready dict with a boolean "pass", a one-line "summary" and
the raw measurements it was judged on.  Sizes and tolerances are constants
of the suite (see each docstring); seed 0 is the pinned acceptance run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .adversary import IsolationParams, attack
from .datagen import UniformBall, UniformCube, sample, single
from .documents import histogram_to_doc
from .errors import InputError
from .geometry import (Ball, Dataset, intersection_volume_ratio, row_norms_dot,
                       uniform_in_region, unit_ball_volume)
from .metrics import (
    cut_probability,
    hist_distance_with_diameters,
    measure_diameters,
    mst_compare,
)
from .roundness import audit_voronoi_splits, certify_roundness
from .rng import substream
from .sanitizer import build_recursive_cube, build_shifted_grid, build_voronoi, certify_nodes, sanitize

# constant for the uniform-centers roundness audit: children must certify
# k <= UNIFORM_SPLIT_K_FACTOR * k_parent^2 with radius <= R/2 * 1.1
UNIFORM_SPLIT_K_FACTOR = 32.0
RADIUS_SLACK = 1.1


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITE_FUNCTIONS:
        raise InputError(f"unknown suite {name!r}; choose from {SUITES}")
    return SUITE_FUNCTIONS[name](seed)


def verdict_line(name: str, report: dict) -> str:
    """``criterion NN [name]: PASS|FAIL (summary)`` for a suite's report."""
    verdict = "PASS" if report["pass"] else "FAIL"
    return f"criterion {SUITES.index(name) + 1:02d} [{name}]: {verdict} ({report['summary']})"


# ---------------------------------------------------------------------------


def suite_distance_sandwich(seed: int) -> dict:
    """Two-sided histogram-distance sandwich on 20 random configurations.

    |x-y| <= d_H(x,y) <= |x-y| + diam(C_x) + diam(C_y) must hold for each of
    500 sampled pairs per configuration, with 8-ulp floating slack.
    """
    configs, pairs = 20, 500
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
        voronoi = builder == "voronoi-greedy"
        shape = UniformBall if voronoi else UniformCube
        data, _ = sample(single(shape(np.zeros(d), 1.0)), n, seed=dseed)
        hist = sanitize(data, builder, t, 2 if voronoi else 6, seed=bseed,
                        support=Ball(np.zeros(d), 1.0) if voronoi else None,
                        probe_samples=20_000 if voronoi else None)
        idx = rng.integers(0, n, size=(pairs, 2))
        X, Y = data.points[idx[:, 0]], data.points[idx[:, 1]]
        dh, dx, dy = hist_distance_with_diameters(hist, X, Y)
        base = row_norms_dot(X - Y)
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
        "summary": f"{violations} violations in {checked} pairs",
        "pass": violations == 0,
    }


def suite_nested_ball_ratio(seed: int) -> dict:
    """Volume-ratio estimator against its closed form on nested balls.

    For d in {2,4,8} and c in {2, 2*sqrt(2), 4}, probe balls of radius
    r = 0.9/c around the center of the unit ball sit strictly inside it, so
    the true ratio is c^-d; each 10^6-sample estimate must lie within 3
    standard errors of it.
    """
    combos = [(d, c) for d in (2, 4, 8) for c in (2.0, 2.0 * math.sqrt(2.0), 4.0)]
    measured = []
    worst = 0.0
    for i, (d, c) in enumerate(combos):
        r = 0.9 / c  # keeps the outer probe ball strictly inside the cell
        est, se = intersection_volume_ratio(np.zeros(d), r, c, Ball(np.zeros(d), 1.0),
                                            samples=1_000_000, seed=seed + i)
        dev = abs(est - c**-d) / se
        worst = max(worst, dev)
        measured.append({"d": d, "c": c, "ratio": est, "stderr": se, "dev_over_stderr": dev})
    return {
        "suite": "nested-ball-ratio",
        "measured": measured,
        "worst_dev_over_stderr": worst,
        "summary": f"worst |dev|/stderr = {worst:.2f}",
        "pass": bool(worst <= 3.0),
    }


def suite_ratio_decay(seed: int) -> dict:
    """Volume-ratio decay with dimension for ball cells.

    Fixed interior q and (r, c') with the probe balls nested in the cell, so
    the true ratio is c'^-d; requires a log-linear fit with slope alpha >= 1
    and R^2 >= 0.95 over d in {2,4,6,8}.
    """
    samples = 1_000_000
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
        "summary": f"alpha = {alpha:.3f}, R^2 = {r2:.4f}",
        "pass": bool(alpha >= 1.0 and r2 >= 0.95),
    }


def suite_greedy_split_roundness(seed: int) -> dict:
    """Cover/spread consequence on greedy Voronoi splits (50 builds each at
    d=2 and d=3).

    Every split's children must certify k <= (4 * r1 * k / r2) * 1.1 with
    (r1, r2) audited exactly from the emitted centers.
    """
    builds_per_dim = 50
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
            audits = audit_voronoi_splits(hist.root)
            for a in audits:
                splits += 1
                ratio = max(a.child_ks) / a.cover_spread_bound()
                worst = max(worst, ratio)
                if ratio > 1.0:
                    failures.append({"d": d, "seed": s, "level": a.level,
                                     "k_max": max(a.child_ks),
                                     "bound": a.cover_spread_bound()})
    return {
        "suite": "greedy-split-roundness",
        "splits_audited": splits,
        "worst_ratio": worst,
        "failures": failures,
        "summary": f"{splits} splits audited, worst k/bound = {worst:.3f}",
        "pass": not failures,
    }


def suite_uniform_split_roundness(seed: int) -> dict:
    """Roundness of uniform-center Voronoi splits at desk scale.

    d=2, m=512 centers, 100 builds: a build passes when every child
    certifies with radius <= R/2 * 1.1 and k <= 32 * k_parent^2.  The run
    passes when the failure count stays within the 99th-percentile binomial
    envelope at the nominal per-build failure rate exp(-d).
    """
    from scipy import stats as sp_stats  # slow to import; no other caller

    d, seeds = 2, 100
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
        certs = certify_nodes(hist.root.children)
        kmax = max(cert.k for cert in certs)
        radmax = max(cert.radius for cert in certs)
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
        "summary": f"failures = {failures} (allowed {allowed})",
        "pass": failures <= allowed,
    }


def suite_grid_diameter_bound(seed: int) -> dict:
    """Mean smallest-cell diameters vs the t-radius bound on shifted grids.

    d in {2,4}, t=2, n=500: every point's empirical mean diameter over 200
    rebuilds must sit below 2*min(d^1.5, t*d)*r*log2(1/r) (level factor
    clamped to at least 1).
    """
    trials, n = 200, 500
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
    worst = max(r["worst_mean_over_bound"] for r in results)
    return {"suite": "thm31-bound", "results": results,
            "summary": f"worst mean/bound = {worst:.3f} over d in {{2,4}}", "pass": bool(ok)}


def suite_cut_probability_slope(seed: int) -> dict:
    """Cut-probability linearity in r for uniform Voronoi partitions.

    d in {2,3}, 1000 trials of m=512 uniform centers in the unit ball, 10
    geometric radii spanning [rho/1e3, rho/10]: estimates must be monotone
    (exact, since one cell-boundary margin per trial answers every radius),
    and a least-squares line through the origin (the model's form: cut
    probability vanishes at r=0) must reach R^2 >= 0.9 with slope within a
    factor 10 of d/rho.

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
    m, trials = 512, 1000
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
    summary = "; ".join(
        f"d={r['d']}: monotone={r['monotone']}, R^2={r['r_squared']:.3f}, "
        f"slope/(d/rho_c)={r['slope_over_d_rho']:.2f}"
        for r in results
    )
    return {"suite": "lemma32-slope", "m": m, "trials": trials,
            "results": results, "summary": summary, "pass": bool(all_pass)}


def suite_isolation_dimension_trend(seed: int) -> dict:
    """Isolation success vs dimension on recursive-cube histograms.

    Matched attacks (same data seed per pair) at d=4 and d=10 with 10 000
    uniform-in-leaf queries; the d=10 rate must be strictly below the d=4
    rate in at least 9 of 10 pairs.
    """
    pairs, queries = 10, 10_000
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
        "summary": f"strict wins = {wins}/{pairs}",
        "pass": bool(wins >= 9),
    }


def adversarial_corner_arrangement(d: int, gamma: float = 0.01) -> Dataset:
    """2^d points at the corners of a tiny hypercube around the origin; the
    deterministic cube construction isolates each in its own cell after one
    split."""
    corners = np.array(list(itertools.product(*[[-gamma, gamma]] * d)))
    return Dataset(corners)


def suite_mst_gap(seed: int) -> dict:
    """MST cost gap on the adversarial corner arrangement at d=8.

    The deterministic cube histogram must show gap/actual > 1; the shifted
    grid must keep gap <= gap_bound on each of 50 seeds with a mean
    gap_bound/actual strictly below the deterministic ratio.
    """
    d, grid_seeds = 8, 50
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
        "summary": f"cube gap/actual = {cube_ratio:.1f}, "
                   f"grid mean bound/actual = {mean_bound_ratio:.2f}, "
                   f"grid within bound = {bool(bound_ok)}",
        "pass": bool(cube_ratio > 1.0 and bound_ok and mean_bound_ratio < cube_ratio),
    }


def suite_conservation_determinism(seed: int) -> dict:
    """Conservation, partition and determinism of every builder.

    Cube, grid and greedy-Voronoi histograms on two datasets each: leaf
    counts must sum to n, rebuilds must give identical documents, and
    10^4 uniform probes (at most 10^3 per split) must each land in exactly
    one child of the split they probe.
    """
    failures = []
    probe_rng = substream(seed + 99, "partition")

    def check(hist, rebuild, n, label):
        if hist.leaf_count_sum() != n:
            failures.append(f"{label}: leaf sum {hist.leaf_count_sum()} != {n}")
        if histogram_to_doc(hist) != histogram_to_doc(rebuild):
            failures.append(f"{label}: rebuild differs")
        probes_left = 10_000
        for node in hist.root.walk():
            if not node.children or probes_left <= 0:
                continue
            take = min(1_000, probes_left)
            probes_left -= take
            pts = uniform_in_region(node.region, take, probe_rng)
            hits = np.zeros(take, dtype=int)
            for ch in node.children:
                hits += ch.region.contains_many(pts).astype(int)
            if not np.all(hits == 1):
                failures.append(f"{label}: partition violated at level {node.level}")

    for s in (seed, seed + 1):
        cube_data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), 300, seed=s)
        ball_data, _ = sample(single(UniformBall(np.zeros(2), 1.0)), 150, seed=s)
        for method, data, t, depth, support in (
                ("cube", cube_data, 2, 5, None), ("grid", cube_data, 2, 6, None),
                ("voronoi-greedy", ball_data, 8, 2, Ball(np.zeros(2), 1.0))):
            probes = 8_000 if method == "voronoi-greedy" else None
            hist, rebuild = (sanitize(data, method, t, depth, seed=s, support=support,
                                      probe_samples=probes) for _ in range(2))
            check(hist, rebuild, data.n, f"{method.split('-')[0]}/seed{s}")
    return {
        "suite": "conservation-determinism",
        "failures": failures,
        "summary": "; ".join(failures) or "all builders byte-stable and partitioning",
        "pass": not failures,
    }


def suite_voronoi_diameter_fit(seed: int) -> dict:
    """Fit of mean Voronoi cell diameters to kappa*(depth*d*r + 2^-depth).

    d=2, depth 3, n=120 points, 40 greedy rebuilds.  The hidden constant is
    fitted, reported, and sanity-checked: every point's mean diameter must
    stay within 2.5x its fitted prediction.
    """
    d, depth, trials, n = 2, 3, 40, 120
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
        "summary": f"fitted coeff = {stats.fitted_coeff:.3f}, "
                   f"worst mean/fit = {margins.max():.2f}",
        "pass": bool(stats.fitted_coeff > 0 and margins.max() <= 2.5),
    }


# criterion NN is entry NN of this table
SUITE_FUNCTIONS = {
    "eq2-sandwich": suite_distance_sandwich,
    "nested-ball-ratio": suite_nested_ball_ratio,
    "lemma21-decay": suite_ratio_decay,
    "greedy-split-roundness": suite_greedy_split_roundness,
    "lemma24-roundness": suite_uniform_split_roundness,
    "thm31-bound": suite_grid_diameter_bound,
    "lemma32-slope": suite_cut_probability_slope,
    "thm11-trend": suite_isolation_dimension_trend,
    "mst-gap": suite_mst_gap,
    "conservation-determinism": suite_conservation_determinism,
    "lemma33-fit": suite_voronoi_diameter_fit,
}
SUITES = tuple(SUITE_FUNCTIONS)
