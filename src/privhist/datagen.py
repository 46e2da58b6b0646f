"""Seeded samplers for mixtures of bounded "nice" distributions.

Every component has a bounded support region (cube, ball, or truncation ball
of a Gaussian).  A sample from a mixture is sanitized as one dataset, over a
support that holds every component; ``sample`` also returns each row's
component label, which only checks of the sampler read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InputError
from .geometry import Dataset, as_point, uniform_in_ball, uniform_in_box
from .rng import substream

DEFAULT_TRUNCATION_SIGMAS = 4.0  # truncation radius = 4 * stdev * sqrt(d)


@dataclass(frozen=True)
class UniformCube:
    center: np.ndarray
    half_side: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not self.half_side > 0:
            raise InputError("half_side must be positive")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class UniformBall:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        if not self.radius > 0:
            raise InputError("radius must be positive")

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class TruncatedGaussian:
    mean: np.ndarray
    stdev: float
    truncation_radius: float = None

    def __post_init__(self):
        object.__setattr__(self, "mean", as_point(self.mean))
        if not self.stdev > 0:
            raise InputError("stdev must be positive")
        tr = self.truncation_radius
        if tr is None:
            tr = DEFAULT_TRUNCATION_SIGMAS * self.stdev * math.sqrt(self.mean.size)
        if not tr > 0:
            raise InputError("truncation radius must be positive")
        object.__setattr__(self, "truncation_radius", float(tr))

    @property
    def dim(self) -> int:
        return self.mean.size


Shape = UniformCube | UniformBall | TruncatedGaussian


@dataclass(frozen=True)
class DistributionSpec:
    """Weighted mixture of shapes sharing one dimension; weights sum to 1."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InputError("a distribution needs at least one component")
        dims = {shape.dim for _, shape in comps}
        if len(dims) != 1:
            raise InputError("all components must share one dimension")
        weights = np.array([w for w, _ in comps], dtype=float)
        if np.any(weights <= 0):
            raise InputError("component weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise InputError("component weights must sum to 1 within 1e-12")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return self.components[0][1].dim

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.components])


def single(shape: Shape) -> DistributionSpec:
    return DistributionSpec(components=((1.0, shape),))


def _sample_shape(shape: Shape, n: int, rng: np.random.Generator, budget: int) -> np.ndarray:
    if isinstance(shape, UniformCube):
        return uniform_in_box(shape.center - shape.half_side, shape.center + shape.half_side, n,
                              rng)
    if isinstance(shape, UniformBall):
        return uniform_in_ball(shape.center, shape.radius, n, rng)
    # truncated Gaussian: rejection against the truncation ball
    out = np.empty((n, shape.dim))
    got = 0
    attempts = 0
    while got < n:
        want = n - got
        draw = max(want, 256)
        if attempts + draw > budget:
            raise ConfigurationError(
                "truncated Gaussian rejection exceeded its attempt budget; "
                "the truncation radius is too small"
            )
        cand = shape.mean + shape.stdev * rng.standard_normal((draw, shape.dim))
        attempts += draw
        keep = cand[np.linalg.norm(cand - shape.mean, axis=1) <= shape.truncation_radius]
        take = min(keep.shape[0], want)
        out[got : got + take] = keep[:take]
        got += take
    return out


def sample(spec: DistributionSpec, n: int, seed: int) -> tuple[Dataset, np.ndarray]:
    """n i.i.d. draws from the mixture; returns (dataset, component labels)."""
    if n < 1:
        raise InputError("n must be positive")
    k = len(spec.components)
    labels = substream(seed, "mixture-assign").choice(k, size=n, p=spec.weights)
    points = np.empty((n, spec.d))
    budget = 1000 * n
    for idx, (_, shape) in enumerate(spec.components):
        rows = np.flatnonzero(labels == idx)
        if rows.size:
            points[rows] = _sample_shape(shape, rows.size, substream(seed, "component", idx),
                                         budget)
    return Dataset(points), labels
