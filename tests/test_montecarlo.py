import math

import numpy as np
import pytest

from katolab.errors import DomainError, ValidationError
from katolab.kernels import GaussianKernelModel
from katolab.montecarlo import (
    PathConfig,
    expected_additive_functional,
    quadrature_additive_functional,
    simulate_paths,
)


def test_config_validation():
    with pytest.raises(ValidationError):
        PathConfig(process="brownian", t=1.0, n_paths=10, seed=0,
                   x0=np.zeros(1))  # too few paths
    with pytest.raises(DomainError):
        PathConfig(process="stable", alpha=2.5, t=1.0, n_paths=500, seed=0,
                   x0=np.zeros(1))


def test_path_dim_is_the_length_of_x0():
    assert PathConfig(x0=np.zeros(3)).dim == 3
    with pytest.raises(TypeError):
        PathConfig(dim=2)  # read-only: x0 alone sets it


def test_brownian_endpoint_variance():
    cfg = PathConfig(process="brownian", t=1.0, n_paths=20_000, seed=1,
                     x0=np.zeros(1))
    paths = simulate_paths(cfg)
    end = paths[:, -1, 0]
    assert end.mean() == pytest.approx(0.0, abs=0.03)
    assert end.var() == pytest.approx(1.0, rel=0.05)


def test_stable2_matches_brownian_variance_2t():
    # alpha = 2 stable corresponds to generator Delta: Var X_t = 2t
    cfg = PathConfig(process="stable", alpha=2.0, t=1.0, n_paths=20_000,
                     seed=2, x0=np.zeros(1))
    end = simulate_paths(cfg)[:, -1, 0]
    assert end.var() == pytest.approx(2.0, rel=0.05)


def test_stable_increment_scaling():
    # X_t is alpha-stable: the t and 2t marginals differ by 2^{1/alpha}
    out = {}
    for t in (0.5, 1.0):
        cfg = PathConfig(process="stable", alpha=1.2, t=t, n_paths=30_000,
                         seed=3, x0=np.zeros(1))
        end = simulate_paths(cfg)[:, -1, 0]
        out[t] = np.percentile(np.abs(end), 75)  # robust scale statistic
    assert out[1.0] / out[0.5] == pytest.approx(2.0 ** (1.0 / 1.2), rel=0.05)


def test_paths_deterministic_in_seed():
    cfg = PathConfig(process="brownian", t=0.5, n_paths=200, seed=9,
                     x0=np.zeros(2))
    a = simulate_paths(cfg)
    b = simulate_paths(cfg)
    assert np.array_equal(a, b)


def test_constant_potential_integrates_exactly():
    cfg = PathConfig(process="brownian", t=0.7, n_paths=500, seed=4,
                     x0=np.zeros(1))
    mean, se = expected_additive_functional(
        cfg, lambda y: np.ones(np.atleast_2d(y).shape[0]))
    assert mean == pytest.approx(0.7, rel=1e-12)
    assert se == pytest.approx(0.0, abs=1e-12)


def test_gaussian_potential_against_closed_form():
    # E_0 int_0^t e^{-B_s^2} ds = int_0^t ds / sqrt(1 + 2s); at t = 4 the
    # value is sqrt(9) - 1 = 2
    cfg = PathConfig(process="brownian", t=4.0, dt=0.002, n_paths=20_000,
                     seed=5, x0=np.zeros(1))
    mean, se = expected_additive_functional(
        cfg, lambda y: np.exp(-np.atleast_2d(y)[:, 0] ** 2))
    assert abs(mean - 2.0) <= 4.0 * se + 0.01


def test_quadrature_oracle_matches_closed_form():
    model = GaussianKernelModel(dim=1)
    cfg = PathConfig(process="brownian", t=4.0, n_paths=100, seed=0,
                     x0=np.zeros(1))
    from katolab.profiles import RadialProfile
    prof = RadialProfile(lambda s: np.exp(-np.asarray(s, float) ** 2))
    val = quadrature_additive_functional(model, cfg, prof,
                                         center=np.zeros(1))
    assert val == pytest.approx(2.0, rel=1e-6)


def test_mc_and_quadrature_agree_off_center():
    model = GaussianKernelModel(dim=1)
    x0 = np.array([0.8])
    cfg = PathConfig(process="brownian", t=0.5, n_paths=20_000, seed=6, x0=x0)
    prof_fn = lambda s: 1.0 / (1.0 + np.asarray(s, float) ** 2)
    mc, se = expected_additive_functional(
        cfg, lambda y: prof_fn(np.abs(np.atleast_2d(y)[:, 0] - x0[0])))
    from katolab.profiles import RadialProfile
    quad = quadrature_additive_functional(model, cfg, RadialProfile(prof_fn),
                                          center=x0)
    assert abs(mc - quad) <= 3.0 * se


def test_clipping_warns():
    cfg = PathConfig(process="brownian", t=0.1, n_paths=200, seed=7,
                     x0=np.zeros(1))
    with pytest.warns(UserWarning, match="clip"):
        expected_additive_functional(
            cfg, lambda y: np.full(np.atleast_2d(y).shape[0], 1e13))
