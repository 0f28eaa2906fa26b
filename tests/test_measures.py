import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.errors import DomainError, ValidationError
from katolab.measures import (
    AhlforsAbstract,
    Density,
    PointMasses,
    RadialDensity,
    SphereSurface,
    integrate_global,
    integrate_jobs,
    integrate_over_ball,
    lebesgue,
    make_measure,
)
from katolab.profiles import GreenKernelSpec, RadialProfile, green_power_profile, power_profile
from katolab.quadrature import INF
from katolab.space import sphere_surface_area, unit_ball_volume


def _ones(s):
    return np.ones_like(np.asarray(s, dtype=float))


# --------------------------------------------------------------------------
# ball masses against closed forms


def test_lebesgue_ball_mass():
    mu = lebesgue(3)
    assert mu.ball_mass(np.zeros(3), 1.0) == pytest.approx(4 * math.pi / 3,
                                                           rel=1e-12)
    assert mu.ball_mass(np.array([5.0, -2.0, 0.3]), 0.5) == pytest.approx(
        4 * math.pi / 3 * 0.125, rel=1e-12)


def test_point_mass_ball_and_atom():
    mu = PointMasses([(np.zeros(1), 2.0), (np.array([3.0]), 1.5)])
    assert mu.ball_mass(np.zeros(1), 1.0) == pytest.approx(2.0)
    assert mu.ball_mass(np.array([3.0]), 0.1) == pytest.approx(1.5)
    assert mu.ball_mass(np.array([1.5]), 10.0) == pytest.approx(3.5)


def test_point_mass_negative_weight_rejected():
    with pytest.raises(ValidationError):
        PointMasses([(np.zeros(1), -1.0)])


def test_sphere_cap_mass():
    # uniform measure (total 4 pi R^2 * sigma_0) on a sphere of radius R:
    # a ball of radius r < 2R centered on the sphere cuts a cap of
    # surface measure pi r^2 * sigma_0
    R, total = 1.0, 4.0 * math.pi
    mu = SphereSurface(center=np.zeros(3), radius=R, total_mass=total)
    x = np.array([0.0, 0.0, R])
    for r in [0.1, 0.5, 1.0]:
        assert mu.ball_mass(x, r) == pytest.approx(math.pi * r**2, rel=1e-12)


def test_sphere_newton_mass_from_center():
    mu = SphereSurface(center=np.zeros(3), radius=1.0, total_mass=7.0)
    assert mu.ball_mass(np.zeros(3), 0.999) == 0.0
    assert mu.ball_mass(np.zeros(3), 1.001) == pytest.approx(7.0)


def _mc_ball_mass(mu: SphereSurface, x, r: float, n: int, seed: int) -> tuple:
    """Monte Carlo ball mass of a sphere surface, from uniform surface
    sampling: (estimate, two-sigma error)."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=n)
    s = np.sqrt(1.0 - z**2)
    pts = mu.center + mu.R * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    p = (np.linalg.norm(pts - np.asarray(x, float), axis=1) <= r).mean()
    se = math.sqrt(max(p * (1 - p), 1e-300) / n)
    return mu.mass * p, 2.0 * mu.mass * se


def test_sphere_ball_mass_matches_monte_carlo():
    mu = SphereSurface(center=np.zeros(3), radius=1.0, total_mass=4 * math.pi)
    rng = np.random.default_rng(5)
    for _ in range(4):
        x = rng.normal(scale=0.8, size=3)
        r = float(rng.uniform(0.3, 1.5))
        exact = mu.ball_mass(x, r)
        approx, se = _mc_ball_mass(mu, x, r, n=200_000, seed=9)
        assert abs(approx - exact) <= 4.0 * max(se, 1e-6)


def test_sphere_requires_d3():
    with pytest.raises(DomainError):
        SphereSurface(center=np.zeros(2), radius=1.0, total_mass=1.0)


@pytest.mark.parametrize("make", [
    lambda v: SphereSurface(np.zeros(3), radius=v, total_mass=1.0),
    lambda v: SphereSurface(np.zeros(3), radius=1.0, total_mass=v),
    lambda v: AhlforsAbstract(eta=v, c_lower=1.0, c_upper=1.0, r0=1.0, dim=3),
    lambda v: AhlforsAbstract(eta=2.0, c_lower=v, c_upper=v, r0=1.0, dim=3),
    lambda v: AhlforsAbstract(eta=2.0, c_lower=1.0, c_upper=v, r0=1.0, dim=3),
], ids=["sphere-radius", "sphere-mass", "ahlfors-eta", "ahlfors-c1", "ahlfors-c2"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_measure_rejects_a_size_that_is_not_finite(make, value):
    # each was accepted and read verdicts: NaN fails no `<= 0` test
    with pytest.raises(ValidationError, match="need finite"):
        make(value)


def test_an_ahlfors_radius_that_is_nan_is_rejected():
    # r0 = inf is a measure with c r^eta at every radius; NaN is none
    with pytest.raises(ValidationError):
        AhlforsAbstract(eta=2.0, c_lower=1.0, c_upper=1.0, r0=math.nan, dim=3)
    assert AhlforsAbstract(eta=2.0, c_lower=1.0, c_upper=1.0, r0=math.inf, dim=3).r0 == math.inf


def test_radial_density_origin_needs_dim_coordinates():
    with pytest.raises(ValidationError, match="origin needs 3 coordinates"):
        RadialDensity(power_profile(-1.0), dim=3, origin=[1.0, 2.0])


@pytest.mark.parametrize("make", [
    lambda r: Density(lambda y: 1.0, dim=2, support_radius=r),
    lambda r: RadialDensity(power_profile(-1.0), dim=2, support_radius=r),
], ids=["density", "radial_density"])
def test_a_negative_support_radius_is_rejected(make):
    with pytest.raises(ValidationError, match="support_radius must be >= 0"):
        make(-1.0)
    assert make(0.0).support_radius == 0.0  # a support of radius 0 stays valid


def test_radial_density_ball_mass_off_origin():
    # mu = |y|^-1 dy in R^3; mass of B(x, r) via brute-force Monte Carlo
    mu = RadialDensity(power_profile(-1.0), dim=3, origin=np.zeros(3))
    x = np.array([0.7, 0.0, 0.0])
    r = 0.4
    got = mu.ball_mass(x, r)
    rng = np.random.default_rng(12)
    pts = x + rng.uniform(-r, r, size=(400_000, 3))
    inside = np.linalg.norm(pts - x, axis=1) <= r
    vals = 1.0 / np.linalg.norm(pts[inside], axis=1)
    mc = vals.mean() * inside.mean() * (2 * r) ** 3
    assert got == pytest.approx(mc, rel=2e-2)


def test_density_constant_infinite_support_is_lebesgue_multiple():
    mu = Density(lambda y: 2.0, dim=2)
    assert mu.ball_mass(np.array([4.0, 4.0]), 1.5) == pytest.approx(
        2.0 * math.pi * 1.5**2, rel=1e-12)


def test_density_calls_f_inside_its_support_only():
    def f(y):
        assert y @ y <= 1.0, f"f called at {y}"
        return 1.0
    # two unit discs at distance d overlap in 2 acos(d/2) - (d/2) sqrt(4 - d^2)
    d = 0.5
    got = Density(f, dim=2, support_radius=1.0).ball_mass(np.array([d, 0.0]), 1.0)
    assert got == pytest.approx(2 * math.acos(d / 2) - d / 2 * math.sqrt(4 - d * d),
                                rel=1e-3)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_lebesgue_closed_forms_are_exact(d):
    mu, s = lebesgue(d), np.geomspace(1e-6, 10.0, 33)
    assert isinstance(mu, Density)
    got = mu.radial_mass_density(np.full(d, 0.7))(s)
    assert np.array_equal(got, sphere_surface_area(d) * s ** (d - 1))
    for r in (1e-6, 0.3, 1.0, 7.5):
        assert mu.ball_mass(np.zeros(d), r) == unit_ball_volume(d) * r**d


@pytest.mark.parametrize("d", [2, 3])
def test_constant_density_matches_lebesgue_within_its_error_bar(d):
    # the general Density path, where lebesgue is a closed form
    c, x, r = 2.5, np.array([0.4, -1.0, 0.2])[:d], 0.75
    est = integrate_over_ball(Density(lambda y: c, dim=d), x, r, _ones)
    want = c * lebesgue(d).ball_mass(x, r)
    assert not est.diverged
    assert abs(est.value - want) <= est.error + est.stat_error


# --------------------------------------------------------------------------
# integration of radial kernels against measures


def test_ball_integral_lebesgue_power_kernel():
    # int_{B(0,1)} |y|^-1 dy = 2 pi in R^3
    mu = lebesgue(3)
    est = integrate_over_ball(mu, np.zeros(3), 1.0, power_profile(-1.0))
    assert not est.diverged
    assert est.value == pytest.approx(2 * math.pi, rel=1e-10)


def test_ball_integral_divergence_certified():
    mu = lebesgue(3)
    est = integrate_over_ball(mu, np.zeros(3), 1.0, power_profile(-3.0))
    assert est.diverged
    assert float(est) == INF
    assert est.error == 0.0


def test_a_kernel_that_overflows_where_the_density_is_zero_adds_zero():
    # seen from (0, 1.5, 0) the unit sphere lies at distances [0.5, 2.5]; in
    # the ball r = 1, G^200 = s^-200 overflows on inner panels where the radial
    # density is exactly 0, and there each node adds 0, not inf * 0 = nan
    mu = SphereSurface(np.zeros(3), 1.0, 1.0)
    est = integrate_over_ball(mu, (0.0, 1.5, 0.0), 1.0,
                              green_power_profile(GreenKernelSpec(3, 2), 200))
    assert not est.diverged and est.reason != "nonfinite"
    assert 0.0 < est.value < INF


def test_atom_at_center_sentinel():
    # an atom sitting at the center meets a singular kernel: certified blow-up
    mu = PointMasses([(np.zeros(2), 1.0)])
    est = integrate_over_ball(mu, np.zeros(2), 1.0, power_profile(-0.5))
    assert est.diverged
    est2 = integrate_over_ball(mu, np.array([0.5, 0.0]), 1.0,
                               power_profile(-0.5))
    assert est2.value == pytest.approx(0.5**-0.5, rel=1e-12)


def test_zero_weight_atom_at_center_is_not_a_blowup():
    # 0 * g(0) contributes nothing even where g(0) is infinite
    mu = PointMasses([((0.0,), 0.0), ((0.5,), 1.0)])
    est = integrate_over_ball(mu, [0.0], 1.0, power_profile(-0.5))
    assert not est.diverged
    assert est.value == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_atoms_on_an_empty_radius_list_give_no_records():
    # an empty grid (a --grid-depth below its first radius) once raised
    # ValueError: max() arg is an empty sequence
    mu = PointMasses([(np.zeros(1), 1.0)])
    rec, = integrate_jobs(mu, [np.zeros(1), np.ones(1)], [(power_profile(-0.5), [], False)])
    assert rec.shape == (2, 0)


def test_point_mass_sum_is_exact():
    mu = PointMasses([(np.array([0.3]), 1.0), (np.array([-0.2]), 2.0),
                      (np.array([5.0]), 4.0)])
    g = power_profile(-1.0)
    est = integrate_over_ball(mu, np.zeros(1), 1.0, g)
    assert est.value == pytest.approx(1.0 / 0.3 + 2.0 / 0.2, rel=1e-12)


def test_global_integral_gaussian_weight():
    # int_{R^2} e^{-|y|^2} dy = pi
    mu = lebesgue(2)
    g = RadialProfile(lambda s: np.exp(-np.asarray(s, float) ** 2))
    est = integrate_global(mu, np.zeros(2), g)
    assert est.value == pytest.approx(math.pi, rel=1e-8)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_sphere_from_center_integrals_are_mass_times_kernel(R):
    # seen from its center, all of the sphere's mass sits at distance R, on
    # the closed ball of radius R and so inside the head ball when R = r_split
    mass = 4.0 * math.pi
    mu = SphereSurface(center=np.zeros(3), radius=R, total_mass=mass)
    g = RadialProfile(lambda s: np.exp(-np.asarray(s, float)))
    exact = mass * math.exp(-R)
    assert integrate_over_ball(mu, np.zeros(3), R, g).value == pytest.approx(
        exact, rel=1e-14)
    assert integrate_over_ball(mu, np.zeros(3), 0.99 * R, g).value == 0.0
    est = integrate_global(mu, np.zeros(3), g)
    assert not est.diverged
    assert est.value == pytest.approx(exact, rel=1e-14)


def test_radial_atoms_state_the_mass_about_a_point():
    sphere = SphereSurface(center=np.zeros(3), radius=2.0, total_mass=3.0)
    ds, ws = sphere.radial_atoms(np.zeros(3))
    assert list(ds) == [2.0] and list(ws) == [3.0]
    assert len(sphere.radial_atoms(np.array([0.5, 0.0, 0.0]))[0]) == 0
    atoms = PointMasses([(np.array([0.3]), 1.0), (np.array([-2.0]), 2.0)])
    ds, ws = atoms.radial_atoms(np.zeros(1))
    assert list(ds) == pytest.approx([0.3, 2.0]) and list(ws) == [1.0, 2.0]
    assert atoms.radial_mass_density(np.zeros(1)) is None
    assert len(lebesgue(2).radial_atoms(np.zeros(2))[0]) == 0


def test_point_mass_global_integral_sums_every_atom():
    mu = PointMasses([(np.array([0.5]), 1.0), (np.array([1.0]), 2.0),
                      (np.array([-3.0]), 4.0)])
    g = RadialProfile(lambda s: np.exp(-np.asarray(s, float)))
    est = integrate_global(mu, np.zeros(1), g)
    assert est.value == pytest.approx(
        math.exp(-0.5) + 2.0 * math.exp(-1.0) + 4.0 * math.exp(-3.0), rel=1e-14)


def test_density_dim1_averages_both_directions():
    # e^y dy on R: mass of [-1, 1] is 2 sinh 1
    mu = Density(lambda y: math.exp(y[0]), dim=1)
    assert mu.ball_mass(np.zeros(1), 1.0) == pytest.approx(
        2.0 * math.sinh(1.0), rel=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sphere_rule_moments_are_exact(d):
    from katolab.measures import sphere_rule

    pts, w = sphere_rule(d, 4)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    for i in range(d):
        assert w @ pts[:, i] ** 2 == pytest.approx(1.0 / d, abs=1e-14)
        assert w @ pts[:, i] ** 4 == pytest.approx(3.0 / (d * (d + 2)), abs=1e-14)


@pytest.mark.parametrize("d", [2, 4])
def test_radial_density_off_center_mean_is_exact(d):
    # mean of e^{-|x + s w|^2} over the unit sphere, |x| = rho: e^{-rho^2 - s^2}
    # times I0(2 rho s) in d = 2 and 2 I1(a) / a, a = 2 rho s, in d = 4
    from scipy import special

    mu = RadialDensity(RadialProfile(
        lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)), dim=d)
    x = np.zeros(d)
    x[0] = 0.8
    s = np.array([0.1, 0.5, 1.0, 2.0])
    a = 1.6 * s
    mean = special.i0(a) if d == 2 else 2.0 * special.i1(a) / a
    area = 2.0 * math.pi if d == 2 else 2.0 * math.pi**2
    exact = area * s ** (d - 1) * np.exp(-0.64 - s**2) * mean
    assert np.allclose(mu.radial_mass_density(x)(s), exact, rtol=1e-13, atol=0)


def test_radial_density_off_center_mean_is_exact_in_three_dimensions():
    # the density-offcenter twin's geometry, through the 64-node u-rule:
    # e^{-|y|^2} seen from rho = 0.8 has m(s) = (pi s / rho)(e^{-(rho - s)^2}
    # - e^{-(rho + s)^2})
    mu = RadialDensity(RadialProfile(lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)), dim=3)
    rho, s = 0.8, np.array([0.1, 0.5, 1.0, 2.0, 4.0])
    exact = math.pi * s / rho * (np.exp(-(rho - s) ** 2) - np.exp(-(rho + s) ** 2))
    got = mu.radial_mass_density(np.array([0.0, rho, 0.0]))(s)
    assert np.allclose(got, exact, rtol=1e-13, atol=0)


# Gaussian bump about X0, seen from a center at distance 0.8 (the
# density-offcenter benchmark geometry)
X0 = np.array([0.8, 0.0, 0.0])
BUMP_CENTER = X0 + 0.8 * np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)


def _bump(y):
    d = np.asarray(y, dtype=float) - X0
    return math.exp(-float(d @ d))


def test_density_matches_its_radial_twin_off_center():
    from katolab.functionals import GreenKernelSpec, kato_functional

    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    twin = RadialDensity(RadialProfile(
        lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)), dim=3, origin=X0)
    got = kato_functional(Density(_bump, dim=3), spec, 1.5, 0.5,
                          centers=[BUMP_CENTER])
    ref = kato_functional(twin, spec, 1.5, 0.5, centers=[BUMP_CENTER]).value
    assert abs(got.value - ref) <= 1e-9
    assert abs(got.value - ref) <= got.error


@pytest.mark.parametrize("x", [np.zeros(3), BUMP_CENTER,
                               np.array([3.0, 0.0, 0.0])])
def test_density_global_bar_is_tight_and_covers_the_twin(x):
    # far outward spheres see the bump as a small cap, where the angular
    # orders disagree, but those panels add almost nothing: each panel's gap
    # weighs its own value, not the whole outward integral
    twin = RadialDensity(RadialProfile(
        lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)), dim=3, origin=X0)
    g = lambda s: np.exp(-np.asarray(s, dtype=float)) / np.asarray(s, dtype=float)
    est = integrate_global(Density(_bump, dim=3), x, g)
    ref = integrate_global(twin, x, g).value
    assert abs(est.value - ref) <= est.error
    assert est.error <= 1e-4 * est.value


def test_density_error_bar_covers_a_support_edge():
    # e^{-|y|^2} cut at |y| = 1, seen from |x| = 0.8: the sphere of radius s
    # about x meets the support edge for s > 0.2, where f jumps
    from scipy import integrate

    mu = Density(lambda y: math.exp(-float(np.dot(y, y))), dim=3,
                 support_radius=1.0)
    rho, r = 0.8, 0.5

    def exact_m(s):  # 4 pi s^2 times the mean of f over the sphere
        lo, hi = abs(rho - s), min(rho + s, 1.0)
        return math.pi * s / rho * (math.exp(-lo * lo) - math.exp(-hi * hi))

    ref, _ = integrate.quad(lambda s: exact_m(s) / s, 0.0, r, points=[0.2],
                            epsrel=1e-12)
    est = integrate_over_ball(mu, np.array([0.0, rho, 0.0]), r,
                              power_profile(-1.0))
    assert abs(est.value - ref) <= est.error


def test_density_error_bar_covers_a_support_only_inner_spheres_meet():
    # spheres about x = (0.2, 0, 0) of radius s >= 0.5 miss the support
    # |y| <= 0.3, so the outer panel [0.75, 1.5] of the ball is all zero
    mu = Density(lambda y: 1.0, dim=3, support_radius=0.3)
    est = integrate_over_ball(mu, np.array([0.2, 0.0, 0.0]), 1.5, _ones)
    exact = 4.0 / 3.0 * math.pi * 0.3**3
    assert abs(est.value - exact) <= est.error


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 9, 10])
def test_density_takes_at_most_512_f_calls_per_radius(d):
    # a jump in f on every sphere: no two orders agree, all of them are tried
    calls = []

    def step(y):
        calls.append(1)
        return 1.0 if y[-1] > 0.1 else 0.0

    mu = Density(step, dim=d)
    s = np.array([0.5, 1.0])
    m, gap = mu.radial_mass_density(np.zeros(d))(s)
    assert np.all(m > 0)
    assert len(calls) <= 512 * len(s)
    if d >= 6:  # a second order would pass 512 calls: no gap to report
        assert gap == 1.0


def test_density_evaluates_f_a_third_as_often():
    # 512 directions at each of 25 panels x 32 nodes made 409,600 calls
    from katolab.functionals import GreenKernelSpec, kato_functional

    calls = []

    def bump(y):
        calls.append(1)
        return _bump(y)

    kato_functional(Density(bump, dim=3), GreenKernelSpec(nu=3.0, beta=2.0),
                    1.5, 0.5, centers=[BUMP_CENTER])
    assert len(calls) <= 409_600 // 3


def test_a_singularity_hint_changes_no_estimate():
    # the hint is a description: a profile that calls itself bounded but is
    # ~ s^-1.9 gets the estimates of its bare function, for one radius, a
    # grid and the whole space
    def f(s):
        return np.asarray(s, float) ** -1.9

    hinted = RadialProfile(f, singularity=0.0)
    mu, x = lebesgue(1), np.zeros(1)
    for r in (1.0, [1.0, 0.1, 0.01]):
        assert repr(integrate_over_ball(mu, x, r, hinted)) == repr(integrate_over_ball(mu, x, r, f))
    assert repr(integrate_global(mu, x, hinted)) == repr(integrate_global(mu, x, f))


# --------------------------------------------------------------------------
# structural properties


@settings(max_examples=25, deadline=None)
@given(r1=st.floats(min_value=0.01, max_value=5.0),
       r2=st.floats(min_value=0.01, max_value=5.0),
       shift=st.floats(min_value=-3.0, max_value=3.0))
def test_ball_mass_monotone_in_radius(r1, r2, shift):
    mu = RadialDensity(power_profile(-0.5), dim=2, origin=np.zeros(2))
    lo, hi = min(r1, r2), max(r1, r2)
    x = np.array([shift, 0.0])
    assert mu.ball_mass(x, lo) <= mu.ball_mass(x, hi) * (1 + 1e-9)


@settings(max_examples=20, deadline=None)
@given(w1=st.floats(min_value=0.0, max_value=4.0),
       w2=st.floats(min_value=0.0, max_value=4.0))
def test_point_mass_additivity(w1, w2):
    mu = PointMasses([(np.array([0.5]), w1), (np.array([-0.5]), w2)])
    assert mu.ball_mass(np.zeros(1), 1.0) == pytest.approx(w1 + w2, abs=1e-12)


def test_make_measure_factory():
    assert isinstance(make_measure("lebesgue", dim=2), Density)
    assert isinstance(make_measure("point_masses",
                                   atoms=[(np.zeros(1), 1.0)]), PointMasses)
    mu = make_measure("ahlfors", eta=1.5, c_lower=0.9, c_upper=1.1)
    assert mu.eta == pytest.approx(1.5)
    assert not mu.supports_kernel_criteria
    with pytest.raises(DomainError):
        make_measure("unknown-kind")


def test_ahlfors_envelope_between_constants():
    mu = make_measure("ahlfors", eta=2.0, c_lower=0.8, c_upper=1.25, r0=1.0)
    for r in [0.01, 0.1, 0.9]:
        m = mu.ball_mass(np.zeros(1), r)
        assert 0.8 * r**2.0 <= m <= 1.25 * r**2.0


def test_unit_ball_volume_values():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


# --------------------------------------------------------------------------
# panel arrays: a dyadic sweep hands m an (n, 32) node array


def test_radial_mass_densities_map_panel_arrays_row_by_row():
    edges = 1.5 * 2.0 ** -np.arange(7.0)
    a, b = edges[1:, None], edges[:-1, None]
    s = 0.5 * (b - a) * np.polynomial.legendre.leggauss(32)[0] + 0.5 * (a + b)
    x3 = np.array([0.3, -0.2, 0.5])
    bump = lambda y: math.exp(-float((y - 0.4) @ (y - 0.4)))
    cases = [
        (lebesgue(3), x3),
        (Density(bump, dim=3), x3),
        (Density(bump, dim=2, support_radius=1.0), x3[:2]),
        (RadialDensity(power_profile(-1.5), dim=3, support_radius=1.0), np.zeros(3)),
        (RadialDensity(power_profile(-1.5), dim=3, support_radius=1.0), x3),
        (SphereSurface(np.zeros(3), 1.0, 2.0), x3),
        (AhlforsAbstract(eta=1.5, c_lower=1.0, c_upper=2.0, r0=0.5, dim=1), np.zeros(1)),
    ]
    for mu, x in cases:
        m = mu.radial_mass_density(x)
        out, rows = m(s), [m(row) for row in s]
        if isinstance(out, tuple):  # (values, relative error), one error per row
            assert out[0].shape == s.shape and out[1].shape == (len(s),)
            assert np.array_equal(out[0], np.stack([v for v, _ in rows]))
            assert np.array_equal(out[1], [gap for _, gap in rows])
        else:
            assert out.shape == s.shape
            assert np.array_equal(out, np.stack(rows))
    assert PointMasses([(x3, 1.0)]).radial_mass_density(x3) is None
