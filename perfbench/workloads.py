"""Seeded inputs and CLI step sequences of the three benchmark workloads.

Inputs come from the benchmark's own numpy generator, never from
``privhist.datagen``, so a change to the library cannot change them.  Every
step is one ``privhist`` subcommand; ``{name}`` in its arguments is replaced
by the path of the input or output document of that name, and ``{seed}`` by
a step seed derived from the workload seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STAGES = ("sanitize", "certify", "privacy", "attack", "measure")

# Sizes are scaled so that one pass of each workload takes a few seconds on a
# 2-core machine; "tiny" exists for the benchmark's own tests.
SIZES = {
    "full": {
        "nA": 3000, "nB": 800, "nC": 2000, "nD": 2000, "nE": 1000, "nF": 2000,
        "box_queries": 1500, "trials": 10, "vor_m": 256, "vor_queries": 1000,
        "privacy_cells": 8, "cut_trials": 200,
    },
    "tiny": {
        "nA": 300, "nB": 120, "nC": 150, "nD": 150, "nE": 150, "nF": 200,
        "box_queries": 100, "trials": 2, "vor_m": 24, "vor_queries": 100,
        "privacy_cells": 2, "cut_trials": 5,
    },
}

R_LIST = ",".join(repr(float(r)) for r in np.geomspace(1e-3, 0.1, 10))


@dataclass(frozen=True)
class Step:
    stage: str
    out: str
    argv: tuple
    reads: tuple = ()
    data: str | None = None  # dataset an output histogram or report describes


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict  # input name -> (generator, dimension) for the size
    steps: tuple


def _uniform_cube(rng, n, d):
    return rng.uniform(-1.0, 1.0, (n, d))


def _cube_mix(rng, n, d):
    """Half uniform in [-1,1]^d, half a sigma=0.1 Gaussian at 0.3*(1,...,1)
    redrawn until inside the cube."""
    half = n // 2
    cluster = np.empty((0, d))
    while cluster.shape[0] < half:
        draw = rng.normal(0.3, 0.1, (half, d))
        cluster = np.concatenate([cluster, draw[(np.abs(draw) <= 1.0).all(axis=1)]])
    return np.concatenate([_uniform_cube(rng, n - half, d), cluster[:half]])


def _unit_disc(rng, n, d):
    radius = np.sqrt(rng.random(n))
    angle = 2.0 * np.pi * rng.random(n)
    return np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)


def _sanitize(out, data, method, *extra):
    return Step("sanitize", out,
                ("sanitize", "--method", method, *extra, "--seed", "{seed}",
                 "--in", "{%s}" % data, "--out", "{%s}" % out),
                reads=(data,), data=data)


def _attack(out, hist, data, strategy, queries, *extra):
    return Step("attack", out,
                ("attack", "--hist", "{%s}" % hist, "--data", "{%s}" % data,
                 "--c", "4", "--t", "2", "--strategy", strategy,
                 "--queries", str(queries), *extra, "--seed", "{seed}",
                 "--out", "{%s}" % out),
                reads=(hist, data), data=data)


def _privacy(out, hist, cells, *extra):
    return Step("privacy", out,
                ("check-privacy", "--in", "{%s}" % hist, "--c", "16",
                 "--max-cells", str(cells), *extra, "--seed", "{seed}",
                 "--out", "{%s}" % out),
                reads=(hist,))


def _diameters(out, data, trials):
    return Step("measure", out,
                ("measure-diameters", "--data", "{%s}" % data, "--method", "grid",
                 "--t", "2", "--max-depth", "8", "--trials", str(trials),
                 "--seed", "{seed}", "--out", "{%s}" % out),
                reads=(data,), data=data)


def box_query(s):
    return Workload(
        "box-query",
        {"A": (_cube_mix, s["nA"], 4), "B": (_uniform_cube, s["nB"], 4)},
        (
            _sanitize("cubeA", "A", "cube", "--t", "2", "--max-depth", "8"),
            _sanitize("gridA", "A", "grid", "--t", "2", "--max-depth", "8"),
            _sanitize("gridB", "B", "grid", "--t", "2", "--max-depth", "8"),
            _attack("attack_gridA", "gridA", "A", "uniform-in-leaf", s["box_queries"]),
            _attack("attack_cubeA", "cubeA", "A", "aux-informed", s["box_queries"],
                    "--aux-frac", "0.1"),
            Step("measure", "mst_gridB",
                 ("mst-compare", "--hist", "{gridB}", "--data", "{B}", "--out", "{mst_gridB}"),
                 reads=("gridB", "B"), data="B"),
        ),
    )


def grid_rebuild(s):
    return Workload(
        "grid-rebuild",
        {"C": (_uniform_cube, s["nC"], 4), "D": (_cube_mix, s["nD"], 2)},
        (_diameters("diam_C", "C", s["trials"]), _diameters("diam_D", "D", s["trials"])),
    )


def voronoi(s):
    return Workload(
        "voronoi",
        {"E": (_unit_disc, s["nE"], 2), "F": (_unit_disc, s["nF"], 2)},
        (
            _sanitize("vorE", "E", "voronoi", "--centers", "greedy", "--t", "4",
                      "--max-depth", "1", "--probe-samples", "20000"),
            Step("certify", "certE",
                 ("certify", "--in", "{vorE}", "--samples", "256", "--seed", "{seed}",
                  "--out", "{certE}"),
                 reads=("vorE",)),
            _privacy("privacyE", "vorE", s["privacy_cells"], "--vol-samples", "10000"),
            _sanitize("vorF", "F", "voronoi", "--centers", "uniform", "--t", "2",
                      "--max-depth", "1", "--override-m", str(s["vor_m"])),
            _attack("attack_vorF", "vorF", "F", "uniform-in-leaf", s["vor_queries"]),
            _privacy("privacyF", "vorF", s["privacy_cells"] // 2, "--vol-samples", "2500"),
            Step("measure", "cut",
                 ("cut-prob", "--support", "unit-ball", "--x", "0,0", "--r-list", R_LIST,
                  "--m", "512", "--trials", str(s["cut_trials"]), "--seed", "{seed}",
                  "--out", "{cut}")),
        ),
    )


WORKLOADS = {"box-query": box_query, "grid-rebuild": grid_rebuild, "voronoi": voronoi}


def make(name: str, size: str = "full") -> Workload:
    return WORKLOADS[name](SIZES[size])


def generate_inputs(workload: Workload, seed: int) -> dict:
    """Point arrays per input name; the same seed gives the same arrays."""
    out = {}
    for index, (name, (gen, n, d)) in enumerate(sorted(workload.inputs.items())):
        out[name] = gen(np.random.default_rng([seed, index]), n, d)
    return out


def step_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, 1000 + index]).generate_state(1)[0])
