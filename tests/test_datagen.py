import math

import numpy as np
import pytest
from scipy import stats as sp_stats

from privhist.datagen import (
    DistributionSpec,
    TruncatedGaussian,
    UniformBall,
    UniformCube,
    sample,
    single,
)
from privhist.errors import ConfigurationError, InputError
from privhist.geometry import Ball, Box


def test_cube_sample_mean_within_clt_band():
    # each coordinate is U(-1, 1): variance 1/3
    n = 10_000
    data, _ = sample(single(UniformCube(np.zeros(2), 1.0)), n, seed=42)
    sigma = math.sqrt(1.0 / 3.0)
    band = 4.0 * sigma / math.sqrt(n)
    assert np.all(np.abs(data.points.mean(axis=0)) <= band)


def test_ball_mass_inside_half_radius():
    n = 10_000
    data, _ = sample(single(UniformBall(np.zeros(3), 1.0)), n, seed=7)
    frac = (np.linalg.norm(data.points, axis=1) <= 0.5).mean()
    band = 4.0 * math.sqrt(0.125 * 0.875 / n)
    assert abs(frac - 0.125) <= band


def test_mixture_component_counts_binomial():
    n = 10_000
    spec = DistributionSpec(components=(
        (0.3, UniformCube(np.zeros(2), 1.0)),
        (0.7, UniformBall(np.array([5.0, 5.0]), 1.0)),
    ))
    _, labels = sample(spec, n, seed=11)
    count0 = int((labels == 0).sum())
    band = 4.0 * math.sqrt(0.3 * 0.7 * n)
    assert abs(count0 - 0.3 * n) <= band


def test_every_point_in_component_support():
    spec = DistributionSpec(components=(
        (0.5, UniformCube(np.array([2.0, 2.0]), 0.5)),
        (0.25, UniformBall(np.array([-2.0, -2.0]), 0.7)),
        (0.25, TruncatedGaussian(np.zeros(2), 0.4)),
    ))
    data, labels = sample(spec, 3_000, seed=3)
    cube, ball, gaussian = (shape for _, shape in spec.components)
    supports = [Box(cube.center - cube.half_side, cube.center + cube.half_side,
                    closed_high=np.ones(2, dtype=bool)),
                Ball(ball.center, ball.radius),
                Ball(gaussian.mean, gaussian.truncation_radius)]
    for idx, support in enumerate(supports):
        rows = data.points[labels == idx]
        assert rows.size and support.contains_many(rows).all()


def test_ball_radial_cdf_kolmogorov_smirnov():
    # radial CDF of a uniform ball is r^d; KS statistic under the 1% critical value
    n = 10_000
    d = 3
    data, _ = sample(single(UniformBall(np.zeros(d), 1.0)), n, seed=19)
    radii = np.linalg.norm(data.points, axis=1)
    stat, _ = sp_stats.kstest(radii, lambda r: np.clip(r, 0, 1) ** d)
    assert stat < 1.628 / math.sqrt(n)


def test_seeded_determinism_bit_identical():
    spec = single(TruncatedGaussian(np.zeros(4), 1.0))
    a, la = sample(spec, 500, seed=123)
    b, lb = sample(spec, 500, seed=123)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(la, lb)


def test_different_seeds_differ():
    spec = single(UniformCube(np.zeros(2), 1.0))
    a, _ = sample(spec, 100, seed=1)
    b, _ = sample(spec, 100, seed=2)
    assert not np.array_equal(a.points, b.points)


def test_gaussian_default_truncation_radius():
    shape = TruncatedGaussian(np.zeros(4), stdev=0.5)
    assert shape.truncation_radius == pytest.approx(4.0 * 0.5 * 2.0)


def test_tight_truncation_raises_configuration_error():
    shape = TruncatedGaussian(np.zeros(8), stdev=1.0, truncation_radius=1e-4)
    with pytest.raises(ConfigurationError):
        sample(single(shape), 2_000, seed=0)


def test_weights_must_sum_to_one():
    with pytest.raises(InputError):
        DistributionSpec(components=(
            (0.5, UniformCube(np.zeros(2), 1.0)),
            (0.4, UniformBall(np.zeros(2), 1.0)),
        ))


def test_mixed_dimensions_rejected():
    with pytest.raises(InputError):
        DistributionSpec(components=(
            (0.5, UniformCube(np.zeros(2), 1.0)),
            (0.5, UniformBall(np.zeros(3), 1.0)),
        ))
