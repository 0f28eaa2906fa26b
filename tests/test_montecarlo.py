import math

import numpy as np
import pytest

from katolab.errors import ValidationError
from katolab.kernels import GaussianKernelModel
from katolab.montecarlo import (
    PathConfig,
    _functional_once,
    expected_additive_functional,
    quadrature_additive_functional,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        PathConfig(t=1.0, n_paths=10, seed=0, x0=np.zeros(1))  # too few paths
    with pytest.raises(ValidationError):
        PathConfig(t=1.0, dt=1.0, n_paths=500, seed=0, x0=np.zeros(1))


def test_path_dim_is_the_length_of_x0():
    assert PathConfig(x0=np.zeros(3)).dim == 3
    with pytest.raises(TypeError):
        PathConfig(dim=2)  # read-only: x0 alone sets it


def test_walk_draws_one_normal_block_per_step():
    # the left-Riemann sum of V = first coordinate, rebuilt from the stream
    # the walk draws: x_0 = x0, then x_k = x_{k-1} + N(0, dt) per coordinate,
    # one (n_paths, dim) block per step; no block for the last right end
    x0, dt, n = np.array([0.5, -1.0]), 0.01, 100
    cfg = PathConfig(t=0.05, dt=dt, n_paths=n, seed=11, x0=x0)
    rng = np.random.default_rng(11)
    x, want = np.tile(x0, (n, 1)), np.zeros(n)
    for k in range(5):
        if k:
            x = x + rng.normal(scale=math.sqrt(dt), size=(n, 2))
        want += dt * x[:, 0]
    walk_rng = np.random.default_rng(11)
    acc, clipped = _functional_once(cfg, lambda y: y[:, 0], dt, walk_rng)
    assert acc.tobytes() == want.tobytes() and clipped == 0
    assert walk_rng.normal() == rng.normal()  # both drew the same 4 blocks


def test_brownian_variance_through_the_additive_functional():
    # E_0 int_0^t |B_s|^2 ds = d t^2 / 2; the left-Riemann sum over steps of
    # dt reads d (t^2 - t dt) / 2
    cfg = PathConfig(t=1.0, dt=0.01, n_paths=20_000, seed=1, x0=np.zeros(2))
    mean, se = expected_additive_functional(cfg, lambda y: np.sum(y**2, axis=1))
    assert abs(mean - 2.0 * (1.0 - 0.01) / 2.0) <= 4.0 * se


def test_additive_functional_deterministic_in_seed():
    cfg = PathConfig(t=0.5, n_paths=200, seed=9, x0=np.zeros(2))
    V = lambda y: np.exp(-np.sum(y**2, axis=1))
    a = expected_additive_functional(cfg, V)
    assert expected_additive_functional(cfg, V) == a
    assert expected_additive_functional(PathConfig(t=0.5, n_paths=200, seed=10,
                                                   x0=np.zeros(2)), V) != a


def test_a_potential_of_one_point_is_a_validation_error():
    # V maps a step's (n_paths, dim) states to n_paths values; a V written
    # for one point gets no per-point fallback, however its output is shaped
    cfg = PathConfig(t=0.1, n_paths=200, seed=3, x0=np.zeros(1))
    for V in (lambda y: np.exp(-y[0] ** 2), lambda y: 1.0):
        with pytest.raises(ValidationError, match=r"to shape \(1?,?\), not \(200,\)"):
            expected_additive_functional(cfg, V)


def test_constant_potential_integrates_exactly():
    cfg = PathConfig(t=0.7, n_paths=500, seed=4,
                     x0=np.zeros(1))
    mean, se = expected_additive_functional(
        cfg, lambda y: np.ones(np.atleast_2d(y).shape[0]))
    assert mean == pytest.approx(0.7, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_gaussian_potential_against_closed_form():
    # E_0 int_0^t e^{-B_s^2} ds = int_0^t ds / sqrt(1 + 2s); at t = 4 the
    # value is sqrt(9) - 1 = 2
    cfg = PathConfig(t=4.0, dt=0.002, n_paths=20_000,
                     seed=5, x0=np.zeros(1))
    mean, se = expected_additive_functional(
        cfg, lambda y: np.exp(-np.atleast_2d(y)[:, 0] ** 2))
    assert abs(mean - 2.0) <= 4.0 * se + 0.01


def test_quadrature_oracle_matches_closed_form():
    model = GaussianKernelModel(dim=1)
    cfg = PathConfig(t=4.0, n_paths=100, seed=0,
                     x0=np.zeros(1))
    from katolab.profiles import RadialProfile
    prof = RadialProfile(lambda s: np.exp(-np.asarray(s, float) ** 2))
    val = quadrature_additive_functional(model, cfg, prof,
                                         center=np.zeros(1))
    assert val == pytest.approx(2.0, rel=1e-6)


def test_mc_and_quadrature_agree_off_center():
    model = GaussianKernelModel(dim=1)
    x0 = np.array([0.8])
    cfg = PathConfig(t=0.5, n_paths=20_000, seed=6, x0=x0)
    prof_fn = lambda s: 1.0 / (1.0 + np.asarray(s, float) ** 2)
    mc, se = expected_additive_functional(
        cfg, lambda y: prof_fn(np.abs(np.atleast_2d(y)[:, 0] - x0[0])))
    from katolab.profiles import RadialProfile
    quad = quadrature_additive_functional(model, cfg, RadialProfile(prof_fn),
                                          center=x0)
    assert abs(mc - quad) <= 3.0 * se


def test_clipping_warns():
    cfg = PathConfig(t=0.1, n_paths=200, seed=7,
                     x0=np.zeros(1))
    with pytest.warns(UserWarning, match="clip"):
        expected_additive_functional(
            cfg, lambda y: np.full(np.atleast_2d(y).shape[0], 1e13))
