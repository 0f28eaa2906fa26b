import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.classification import (
    ClassifyConfig,
    classify_limit,
    classify_measure,
    estimate_eta,
    fit_order_delta,
    threshold_p_star,
)
from katolab.config import RunConfig
from katolab.errors import DomainError, InsufficientDataError
from katolab import classification, functionals
from katolab.functionals import CenterStrategy, semigroup_functional
from katolab.kernels import GaussianKernelModel, StableEstimateModel
from katolab.measures import (
    Density,
    PointMasses,
    RadialDensity,
    SphereSurface,
    lebesgue,
)
from katolab.profiles import RadialProfile, power_profile
from katolab.quadrature import INF


def _grid(slope, n=12, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    scales = 2.0 ** -np.arange(1, n + 1, dtype=float)
    vals = scales**slope * np.exp(noise * rng.normal(size=n))
    return [(s, v, 0.0) for s, v in zip(scales, vals)]


# --------------------------------------------------------------------------
# classify_limit on synthetic dyadic data


def test_classify_limit_recovers_power_slope():
    fit = classify_limit(_grid(2.0))
    assert fit.verdict == "tends_to_zero"
    assert fit.slope == pytest.approx(2.0, abs=0.01)


def test_classify_limit_detects_blowup():
    fit = classify_limit(_grid(-0.7))
    assert fit.verdict == "diverges"
    assert not fit.certified


def test_classify_limit_bounded_plateau():
    fit = classify_limit([(s, 3.0, 0.0) for s, _, _ in _grid(0.0)])
    assert fit.verdict == "bounded"
    assert fit.slope == pytest.approx(0.0, abs=1e-9)


def test_classify_limit_sentinel_certifies_divergence():
    rows = _grid(1.0)
    rows[-1] = (rows[-1][0], INF, 0.0)
    fit = classify_limit(rows)
    assert fit.verdict == "diverges"
    assert fit.certified


def test_classify_limit_needs_six_samples():
    with pytest.raises(InsufficientDataError):
        classify_limit(_grid(1.0, n=4))


def test_classify_limit_all_zero_tends_to_zero():
    fit = classify_limit([(2.0**-j, 0.0, 0.0) for j in range(1, 9)])
    assert fit.verdict == "tends_to_zero"


def test_classify_limit_noisy_flat_data_undecided():
    rows = _grid(0.0, n=14, noise=0.8, seed=4)
    rows = [(s, v, 0.8 * v) for s, v, _ in rows]
    fit = classify_limit(rows)
    assert fit.verdict in ("undecided", "bounded")


@settings(max_examples=25, deadline=None)
@given(slope=st.floats(min_value=0.3, max_value=4.0))
def test_classify_limit_slope_recovery_property(slope):
    fit = classify_limit(_grid(slope))
    assert fit.verdict == "tends_to_zero"
    assert fit.slope == pytest.approx(slope, abs=0.02)


# --------------------------------------------------------------------------
# threshold exponent


def test_threshold_p_star_values():
    assert threshold_p_star(3.0, 3.0, 2.0) == pytest.approx(3.0)
    assert threshold_p_star(2.0, 3.0, 2.0) == pytest.approx(2.0)
    assert threshold_p_star(1.0, 3.0, 2.0) == pytest.approx(1.0)
    assert threshold_p_star(1.0, 2.0, 2.0) == INF  # nu <= beta: never critical


def test_threshold_p_star_guards():
    with pytest.raises(DomainError):
        threshold_p_star(0.0, 3.0, 2.0)
    with pytest.raises(DomainError):
        threshold_p_star(4.0, 3.0, 2.0)


def test_estimate_eta_lebesgue():
    mu = lebesgue(3)
    eta = estimate_eta(mu, [np.zeros(3)], 2.0 ** -np.arange(2, 12))
    assert eta == pytest.approx(3.0, abs=1e-6)


def test_estimate_eta_skips_non_finite_ball_masses():
    # s^-3.5 in d = 3: every ball about the origin has infinite mass
    mu = RadialDensity(power_profile(-3.5), dim=3)
    grid = 2.0 ** -np.arange(7, 12)
    origin, off = np.zeros(3), np.array([0.5, 0.0, 0.0])
    assert all(mu.ball_mass(origin, r) == INF for r in grid)
    assert estimate_eta(mu, [origin], grid) is None
    assert estimate_eta(mu, [origin, off], grid) == pytest.approx(3.0, abs=1e-3)


def test_estimate_eta_makes_one_engine_call_for_all_centers(monkeypatch):
    # every center's whole radius grid in one integrate_jobs call; the same
    # eta bit for bit as the fit of each center's own ball_mass.  The density
    # |y|^-1 of R^3 states no eta: its ball masses 2 pi r^2 about the origin
    # give the fitted 2; a bump seen off its center gives 3 (pinned to what
    # the per-center ball_mass fit reads); the zero measures give None
    grid = 2.0 ** -np.arange(7, 12)
    cases = [
        (RadialDensity(power_profile(-1.0), dim=3),
         [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), np.zeros(3)],
         pytest.approx(2.0, abs=1e-9)),
        (Density(lambda y: 1.0 - y @ y, dim=3, support_radius=1.0),
         [np.array([0.3, 0.2, 0.0]), np.array([0.0, 0.5, 0.0])], 2.9999843148275644),
        (PointMasses([], dim=2), [np.zeros(2), np.ones(2)], None),
        (SphereSurface(np.zeros(3), 1.0, 0.0), [np.zeros(3), np.array([0.0, 1.0, 0.0])], None),
    ]
    calls, engine = [], classification.integrate_jobs
    monkeypatch.setattr(classification, "integrate_jobs",
                        lambda mu, centers, jobs: calls.append(len(centers)) or engine(mu, centers, jobs))
    for mu, centers, want in cases:
        assert mu.eta is None
        calls.clear()
        eta = estimate_eta(mu, centers, grid)
        assert calls == [len(centers)]
        assert eta == classification._fit_eta(
            grid, [[mu.ball_mass(x, r) for r in grid] for x in centers])
        assert eta == want


@pytest.mark.parametrize("mu, eta", [
    (lebesgue(3), 3.0),
    (SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi), 2.0),
    (PointMasses([(np.zeros(2), 1.0), (np.ones(2), 0.5)]), 0.0),
])
def test_estimate_eta_reads_a_stated_eta_without_ball_masses(mu, eta, monkeypatch):
    # Lebesgue, the sphere and atoms state their exponent: nothing is fitted
    monkeypatch.setattr(type(mu), "ball_mass", lambda *a: pytest.fail("ball_mass called"))
    assert estimate_eta(mu, [np.zeros(mu.dim), np.full(mu.dim, 0.3)], 2.0 ** -np.arange(7, 12)) == eta
    assert PointMasses([], dim=2).eta is None and SphereSurface(np.zeros(3), 1.0, 0.0).eta is None


@pytest.mark.parametrize("form", ["radial", "density"])
def test_compact_density_undefined_outside_its_support_is_in(form):
    # f(y) = sqrt(1 - |y|^2) is NaN beyond |y| = 1, where mu has no mass:
    # mu(B(0, 2)) = int_0^1 4 pi s^2 sqrt(1 - s^2) ds = pi^2 / 4, and a
    # bounded density with compact support is in both classes
    if form == "radial":
        mu = RadialDensity(RadialProfile(lambda s: np.sqrt(1 - np.asarray(s) ** 2)),
                           dim=3, support_radius=1)
    else:
        mu = Density(lambda y: np.sqrt(1 - y @ y), dim=3, support_radius=1)
    with np.errstate(invalid="ignore"):  # the radial form still sees |y| > 1
        mass = mu.ball_mass(np.zeros(3), 2.0)
        edge = mu.ball_mass(np.array([0.9, 0.0, 0.0]), 0.25)
        rep = classify_measure(mu, GaussianKernelModel(dim=3), 1.0, ClassifyConfig(
            centers=CenterStrategy(n_support=3, n_random=2, seed=1)))
    assert mass == pytest.approx(math.pi**2 / 4, rel=1e-4)
    assert 0.0 < edge < mass
    assert (rep.verdict_K, rep.verdict_D) == ("in", "in")
    assert set(rep.criteria.values()) == {"in"}


def test_green_below_beta_is_the_ball_mass():
    # nu < beta: the green criterion is sup_x mu(B_r(x)), here 2r
    rep = classify_measure(lebesgue(1), GaussianKernelModel(dim=1), 1.0,
                           ClassifyConfig(centers=CenterStrategy(
                               explicit=[[0.0]], n_support=0, n_random=0)))
    for r, value, error in rep.sweeps["green"]:
        assert value == pytest.approx(2.0 * r, rel=1e-12)
        assert abs(value - 2.0 * r) <= error


def test_estimate_eta_prefers_declared_exponent():
    from katolab.measures import make_measure
    mu = make_measure("ahlfors", eta=1.7, c_lower=0.9, c_upper=1.1)
    assert estimate_eta(mu, [], []) == pytest.approx(1.7)


def test_classify_config_scale_grids():
    # the scale grids every classification runs on (benchmark oracles read them)
    cfg = ClassifyConfig()
    assert tuple(cfg.t_grid) == (
        0.25, 0.0625, 0.015625, 0.00390625, 0.0009765625, 0.000244140625,
        6.103515625e-05, 1.52587890625e-05)
    assert tuple(cfg.alpha_grid) == (
        4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0)
    assert tuple(cfg.localized_alphas) == (1.0, 16.0)
    assert tuple(cfg.localized_times) == (0.5, 0.125)


def test_classify_config_fields():
    assert [f.name for f in dataclasses.fields(ClassifyConfig)] == [
        "r_grid", "centers", "seed"]
    assert isinstance(ClassifyConfig.t_grid, tuple)  # no instance can mutate it
    with pytest.raises(TypeError):
        ClassifyConfig(t_grid=(0.5,))


# --------------------------------------------------------------------------
# end-to-end classification (small grids for speed)


def _fast_config(**kw):
    return ClassifyConfig(
        centers=CenterStrategy(explicit=[np.zeros(kw.pop("dim", 3))],
                               n_support=0, n_random=0), **kw)


def test_classify_lebesgue_d3_in_and_out():
    model = GaussianKernelModel(dim=3)
    mu = lebesgue(3)
    rep_in = classify_measure(mu, model, 2.0, _fast_config())
    assert rep_in.verdict_K == "in" and rep_in.verdict_D == "in"
    assert set(rep_in.criteria.values()) == {"in"}
    rep_out = classify_measure(mu, model, 3.5, _fast_config())
    assert rep_out.verdict_K == "out" and rep_out.verdict_D == "out"
    assert set(rep_out.criteria.values()) == {"out"}
    assert rep_in.predicted_threshold == pytest.approx(3.0, abs=1e-6)


def test_classify_point_mass_trivial_regime_discrepancy():
    # in d = 1 (nu < beta) the point mass is in the class, yet the localized
    # kernel criteria disagree: the regime where the equivalence fails
    model = GaussianKernelModel(dim=1)
    mu = PointMasses([(np.zeros(1), 1.0)])
    rep = classify_measure(mu, model, 1.0, _fast_config(dim=1))
    assert rep.verdict_K == "in"
    assert rep.criteria["green"] == "in"
    assert rep.criteria["sg_loc_t1"] == "out"
    assert any("disagree" in f for f in rep.findings)


def test_classify_relativistic_config():
    # relativistic stable, a = m = 1, on R^3: p* = nu / (nu - beta) = 1.5
    run = RunConfig.from_file(str(Path(__file__).resolve().parents[1]
                                  / "configs" / "relativistic-d3.cfg"))
    assert run.p_list == [1.0, 2.0]
    reps = [classify_measure(run.measure, run.model, p, run.classify) for p in run.p_list]
    for rep, verdict in zip(reps, ["in", "out"]):
        assert (rep.verdict_K, rep.verdict_D) == (verdict, verdict)
        assert set(rep.criteria.values()) == {verdict}
        assert rep.predicted_threshold == pytest.approx(1.5, abs=1e-6)


def test_classify_rejects_p_below_one():
    model = GaussianKernelModel(dim=1)
    with pytest.raises(DomainError):
        classify_measure(lebesgue(1), model, 0.5, _fast_config(dim=1))


@pytest.mark.parametrize("p", [math.nan, INF])
def test_classify_rejects_a_p_that_is_not_finite(p):
    # p = nan passed `p < 1` and read "in" on every criterion
    model = GaussianKernelModel(dim=1)
    with pytest.raises(DomainError, match="p must be finite"):
        classify_measure(lebesgue(1), model, p, _fast_config(dim=1))


def test_fit_order_delta_lebesgue():
    # |S(t)|^{1/p} = O(t^delta) with delta = (d - p(d-2)) / (2p) for Lebesgue
    model = GaussianKernelModel(dim=3)
    mu = lebesgue(3)
    for p, expect in [(1.0, 1.0), (2.0, 0.25)]:
        delta, ci = fit_order_delta(mu, model, p, _fast_config())
        assert delta == pytest.approx(expect, rel=1e-3)
        assert ci >= 0.0


def test_fit_order_delta_is_one_engine_run_equal_to_the_per_t_fit(monkeypatch):
    model, mu, p = GaussianKernelModel(dim=3), SphereSurface(np.zeros(3), 1.0, 4 * math.pi), 1.5
    cfg = ClassifyConfig(centers=CenterStrategy(n_support=4, n_random=4))
    centers = cfg.centers.build(mu)
    rows = []
    for t in cfg.t_grid:
        est = semigroup_functional(mu, model, p, t, centers=centers)
        rows.append((t, float(est) ** (1.0 / p), est.error))
    fit = classify_limit(rows)
    runs = []
    engine = functionals.integrate_jobs
    monkeypatch.setattr(functionals, "integrate_jobs",
                        lambda *args: runs.append(1) or engine(*args))
    assert fit_order_delta(mu, model, p, cfg) == (fit.slope, fit.slope_ci)
    assert len(runs) == 1


def test_fit_order_delta_needs_a_t_below_t0():
    # t0 = 1/m = 1e-6 lies below every t of the grid
    with pytest.raises(InsufficientDataError):
        fit_order_delta(lebesgue(2), StableEstimateModel(2, 1.2, m=1e6), 1.0,
                        _fast_config(dim=2))


