import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from katolab import quadrature
from katolab.classification import classify_measure
from katolab.errors import ConfigError, DomainError
from katolab.functionals import (
    CenterStrategy,
    GreenKernelSpec,
    _sup_records,
    green_power_profile,
    kato_job,
    kato_functional,
    resolvent_functional,
    resolvent_job,
    semigroup_functional,
    semigroup_job,
    sup_over_centers,
    sups,
)
from katolab.kernels import GaussianKernelModel, ScalingKernelModel
from katolab.measures import (
    FunctionalEstimate,
    PointMasses,
    RadialDensity,
    SphereSurface,
    lebesgue,
)
from katolab.profiles import power_profile
from katolab.quadrature import INF, NO_PASS, PASS


# --------------------------------------------------------------------------
# Green kernel spec


def test_green_regimes():
    assert GreenKernelSpec(nu=3.0, beta=2.0).regime == "power"
    assert GreenKernelSpec(nu=2.0, beta=2.0).regime == "log"
    assert GreenKernelSpec(nu=1.0, beta=2.0).regime == "trivial"


def test_green_power_profile_values():
    # G = r^{beta - nu} in the power regime, log(1/r) on ]0, 1/e] in the log
    # regime, 1 in the trivial one
    s = np.array([0.1, math.exp(-3.0)])
    for spec, want in [(GreenKernelSpec(3.0, 2.0), 1.0 / s),
                       (GreenKernelSpec(2.0, 2.0), np.log(1.0 / s)),
                       (GreenKernelSpec(1.0, 2.0), np.ones(2))]:
        assert np.allclose(green_power_profile(spec, 1.0)(s), want, rtol=1e-12, atol=0.0)


def test_log_regime_ball_beyond_one_over_e_is_a_domain_error():
    # the log kernel is defined on ]0, 1/e] only
    with pytest.raises(DomainError, match="1/e"):
        kato_functional(lebesgue(2), GreenKernelSpec(2, 2), 1.0, 0.5,
                        centers=[np.zeros(2)])


def test_green_power_profile_hint():
    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    prof = green_power_profile(spec, 2.5)
    assert prof.singularity == pytest.approx(2.5)
    assert float(np.asarray(prof(np.array([0.5])))[0]) == pytest.approx(
        0.5 ** -2.5, rel=1e-12)


# --------------------------------------------------------------------------
# Kato functional against closed forms (Lebesgue, G(r) = r^{beta-nu})


def test_kato_functional_lebesgue_closed_form():
    # int_{B(0,r)} |y|^{-p} dy = 4 pi r^{3-p} / (3 - p) in R^3
    mu = lebesgue(3)
    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    for p, r in [(1.0, 0.5), (2.0, 0.25), (2.5, 1.0)]:
        est = kato_functional(mu, spec, p, r, centers=[np.zeros(3)])
        exact = 4 * math.pi * r ** (3 - p) / (3 - p)
        assert est.value == pytest.approx(exact, rel=1e-9)


def test_kato_functional_divergence_at_critical_p():
    mu = lebesgue(3)
    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    est = kato_functional(mu, spec, 3.0, 1.0, centers=[np.zeros(3)])
    assert est.diverged


@pytest.mark.parametrize("centers", [[[1.0, 2.0]], CenterStrategy(explicit=[[1.0, 2.0]])],
                         ids=["list", "strategy"])
def test_a_center_of_another_dimension_is_a_config_error(centers):
    # a 2-d center in R^3 once ran on lebesgue and failed to broadcast elsewhere
    with pytest.raises(ConfigError, match=r"center \[1.0, 2.0\] needs 3 coordinates"):
        kato_functional(lebesgue(3), GreenKernelSpec(3, 2), 1.0, 0.5, centers=centers)


def test_a_center_that_is_not_finite_is_a_config_error():
    # a nan coordinate once read a verdict, with slope inf, on the sphere
    sphere = SphereSurface(np.zeros(3), 1.0, 1.0)
    with pytest.raises(ConfigError, match=r"center \[nan, 0.0, 0.0\] is not finite"):
        kato_functional(sphere, GreenKernelSpec(3, 2), 1.0, 0.5, centers=[[math.nan, 0, 0]])


def test_log_regime_at_high_p_raises_no_hint_error():
    # nu = beta = 2: G = log(1/s), and int_{B(0,1/4)} log(1/|y|)^20 dy in R^2
    # = 2 pi Gamma(21, 2 ln 4) / 2^21 (s = e^-u); Gamma(n + 1, x) =
    # n! e^-x sum_{k <= n} x^k / k!.  Nothing here is a caller's hint
    x = 2 * math.log(4)
    exact = (2 * math.pi * math.factorial(20) * math.exp(-x)
             * sum(x ** k / math.factorial(k) for k in range(21)) / 2 ** 21)
    est = kato_functional(lebesgue(2), GreenKernelSpec(2, 2), 20.0, 0.25,
                          centers=[np.zeros(2)])
    assert not est.diverged
    assert abs(est.value - exact) <= est.error
    report = classify_measure(lebesgue(2), GaussianKernelModel(2), 20.0)
    assert report.p == 20.0


def test_kato_functional_monotone_in_r():
    mu = lebesgue(3)
    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    vals = [kato_functional(mu, spec, 1.5, r, centers=[np.zeros(3)]).value
            for r in [0.125, 0.25, 0.5, 1.0]]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_kato_functional_off_center_is_smaller_for_radial_singularity():
    # the origin maximizes the ball integral of a kernel against Lebesgue
    # shifted by nothing; for a point mass the atom's location dominates
    mu = PointMasses([(np.zeros(3), 1.0)])
    spec = GreenKernelSpec(nu=3.0, beta=2.0)
    near = kato_functional(mu, spec, 1.0, 1.0,
                           centers=[np.array([0.5, 0.0, 0.0])])
    far = kato_functional(mu, spec, 1.0, 1.0,
                          centers=[np.array([0.9, 0.0, 0.0])])
    assert near.value > far.value


# --------------------------------------------------------------------------
# semigroup and resolvent functionals against conservation laws


def test_semigroup_functional_mass_conservation():
    # p = 1, mu = Lebesgue: int q_t(y) dy = t for the conservative kernel;
    # the generic model serves the same profile by its log-space q_t
    mu = lebesgue(3)
    model = GaussianKernelModel(dim=3)
    generic = ScalingKernelModel(model.space, model.profile)
    for t in [0.5, 0.125]:
        est = semigroup_functional(mu, model, 1.0, t, centers=[np.zeros(3)])
        assert est.value == pytest.approx(t, rel=1e-6)
        est = semigroup_functional(mu, generic, 1.0, t, centers=[np.zeros(3)])
        assert est.value == pytest.approx(t, rel=1e-12)
        assert abs(est.value - t) <= est.error


def test_resolvent_functional_mass_conservation():
    # p = 1, mu = Lebesgue: int r_alpha(y) dy = 1/alpha
    mu = lebesgue(2)
    model = GaussianKernelModel(dim=2)
    for a in [1.0, 16.0]:
        est = resolvent_functional(mu, model, 1.0, a, centers=[np.zeros(2)])
        assert est.value == pytest.approx(1.0 / a, rel=1e-4)


def test_point_mass_resolvent_closed_form():
    # delta_0 in d = 1: sup_x r_alpha(x, 0) = r_alpha(0) = 1/sqrt(2 alpha)
    mu = PointMasses([(np.zeros(1), 1.0)])
    model = GaussianKernelModel(dim=1)
    for a in [2.0, 8.0]:
        est = resolvent_functional(mu, model, 1.0, a, centers=[np.zeros(1)])
        assert est.value == pytest.approx(1.0 / math.sqrt(2 * a), rel=1e-6)


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_sphere_resolvent_from_center_closed_form(R):
    # the sphere seen from its center: mass * r_alpha(R), and for d = 3
    # Brownian motion r_alpha(R) = exp(-sqrt(2 alpha) R) / (2 pi R)
    mass = 4.0 * math.pi
    mu = SphereSurface(np.zeros(3), R, mass)
    model = GaussianKernelModel(dim=3)
    for a in [1.0, 4.0]:
        est = resolvent_functional(mu, model, 1.0, a, centers=[np.zeros(3)])
        table = mass * float(model.resolvent_radial(a)(np.array([R]))[0])
        assert est.value == pytest.approx(table, rel=1e-14)
        exact = mass * math.exp(-math.sqrt(2.0 * a) * R) / (2.0 * math.pi * R)
        assert est.value == pytest.approx(exact, rel=1e-6)


def test_localized_functional_vanishes_far_from_support():
    mu = PointMasses([(np.array([10.0]), 1.0)])
    model = GaussianKernelModel(dim=1)
    est = semigroup_functional(mu, model, 1.0, 0.5,
                               centers=[np.zeros(1)], localized_radius=1.0)
    assert est.value == 0.0


def test_semigroup_resolvent_bridge():
    # q_t-functional <= e^{alpha t} * r_alpha-functional at p = 1
    mu = lebesgue(1)
    model = GaussianKernelModel(dim=1)
    t, a = 0.25, 2.0
    q = semigroup_functional(mu, model, 1.0, t, centers=[np.zeros(1)]).value
    ra = resolvent_functional(mu, model, 1.0, a, centers=[np.zeros(1)]).value
    assert q <= math.exp(a * t) * ra * (1 + 1e-6)


def test_semigroup_functional_monotone_in_t():
    mu = lebesgue(3)
    model = GaussianKernelModel(dim=3)
    vals = [semigroup_functional(mu, model, 2.0, t,
                                 centers=[np.zeros(3)]).value
            for t in [0.05, 0.1, 0.2, 0.4]]
    assert all(a <= b * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


def test_translation_invariance_of_global_functional():
    mu = lebesgue(2)
    model = GaussianKernelModel(dim=2)
    v0 = semigroup_functional(mu, model, 1.5, 0.2, centers=[np.zeros(2)]).value
    v1 = semigroup_functional(mu, model, 1.5, 0.2,
                              centers=[np.array([3.0, -1.0])]).value
    assert v0 == pytest.approx(v1, rel=1e-9)


def test_domain_guards():
    mu = lebesgue(1)
    model = GaussianKernelModel(dim=1)
    with pytest.raises(DomainError):
        semigroup_functional(mu, model, 1.0, -0.5, centers=[np.zeros(1)])
    with pytest.raises(DomainError):
        resolvent_functional(mu, model, 1.0, 0.0, centers=[np.zeros(1)])


def test_kernel_criteria_rejected_for_abstract_measure():
    from katolab.measures import make_measure
    mu = make_measure("ahlfors", eta=1.0, c_lower=0.9, c_upper=1.1)
    model = GaussianKernelModel(dim=1)
    with pytest.raises(DomainError):
        semigroup_functional(mu, model, 1.0, 0.5, centers=[np.zeros(1)])


# --------------------------------------------------------------------------
# center strategy and sup reduction


def test_center_strategy_includes_support_points():
    mu = PointMasses([(np.array([2.0]), 1.0)])
    pts = CenterStrategy(explicit=[np.zeros(1)], n_support=4,
                         n_random=2, seed=3).build(mu)
    assert any(np.allclose(c, [2.0]) for c in pts)
    assert any(np.allclose(c, [0.0]) for c in pts)


def test_center_strategy_deterministic_in_seed():
    mu = lebesgue(2)
    a = CenterStrategy(n_random=5, seed=11).build(mu)
    b = CenterStrategy(n_random=5, seed=11).build(mu)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_center_strategy_does_not_import_scipy_stats():
    # the random window points come from numpy's generator: scipy.stats
    # costs about half a second of import on every classify run
    code = ("import sys; import numpy as np; "
            "from katolab.functionals import CenterStrategy; "
            "from katolab.measures import lebesgue; "
            "pts = CenterStrategy(n_random=8, seed=3).build(lebesgue(2)); "
            "assert len(pts) == 9; "
            "print('scipy.stats' in sys.modules)")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_sup_over_centers_divergence_wins():
    mk = lambda v, d: FunctionalEstimate(value=v, error=0.0, diverged=d,
                                         log_slope=0.0)
    ests = {0: mk(1.0, False), 1: mk(INF, True), 2: mk(2.0, False)}
    est, _ = sup_over_centers([0, 1, 2], lambda c: ests[c])
    assert est.diverged
    assert est.n_centers == 3


def test_sup_over_centers_tracks_argmax():
    mk = lambda v: FunctionalEstimate(value=v, error=0.0, diverged=False,
                                      log_slope=0.0)
    est, arg = sup_over_centers(["a", "b", "c"],
                                lambda c: mk({"a": 1.0, "b": 5.0, "c": 2.0}[c]))
    assert est.value == 5.0
    assert est.argmax_center == "b"


def test_sup_over_centers_stops_at_first_divergence():
    calls = []

    def objective(c):
        calls.append(c)
        div = c in (0, 2)
        return FunctionalEstimate(value=INF if div else 1.0, error=0.0,
                                  diverged=div, log_slope=0.0)

    est, arg = sup_over_centers([0, 1, 2, 3], objective)
    assert calls == [0]
    assert est.diverged and arg == 0
    assert est.n_centers == 4 and est.argmax_center == 0
    calls.clear()
    est, arg = sup_over_centers([1, 2, 3, 0], objective)
    assert calls == [1, 2]
    assert est.diverged and arg == 2 and est.n_centers == 4


def test_sup_over_centers_first_divergent_center_per_radius():
    # two radii: the first diverges at center 1, the second at center 2;
    # the sweep stops once every radius has diverged
    calls = []
    div = {0: (False, False), 1: (True, False), 2: (True, True),
           3: (True, True)}
    vals = {0: (1.0, 5.0), 1: (2.0, 7.0), 2: (0.0, 0.0), 3: (0.0, 0.0)}

    def objective(c):
        calls.append(c)
        return [FunctionalEstimate(value=INF if d else v, diverged=d)
                for v, d in zip(vals[c], div[c])]

    ests, args = sup_over_centers([0, 1, 2, 3], objective)
    assert calls == [0, 1, 2]
    assert [e.diverged for e in ests] == [True, True]
    assert args == [1, 2]
    assert [e.argmax_center for e in ests] == [1, 2]
    assert [e.n_centers for e in ests] == [4, 4]
    # without divergence, each radius keeps its own argmax, first on ties
    vals[3] = (2.0, 7.0)
    div.update({1: (False, False), 2: (False, False), 3: (False, False)})
    calls.clear()
    ests, args = sup_over_centers([0, 1, 2, 3], objective)
    assert calls == [0, 1, 2, 3]
    assert [e.value for e in ests] == [2.0, 7.0] and args == [1, 1]


def test_sup_over_centers_runs_on_calling_thread_in_center_order():
    calls = []

    def objective(c):
        calls.append((c, threading.get_ident()))
        return FunctionalEstimate(value=float(c), error=0.0, diverged=False,
                                  log_slope=0.0)

    est, arg = sup_over_centers([3, 1, 2], objective)
    me = threading.get_ident()
    assert calls == [(3, me), (1, me), (2, me)]
    assert arg == 3 and est.value == 3.0


def _records(rows: list) -> np.ndarray:
    """A (center, radius) PASS array from rows of (value, diverged, ran) per
    radius; the other fields vary so that a wrong winner shows."""
    rec = np.zeros((len(rows), len(rows[0])), PASS)
    for c, row in enumerate(rows):
        for k, (v, d, ran) in enumerate(row):
            rec[c, k] = (INF if d else v, 0.1 * c + k, d, (c + k) % (NO_PASS + 1), 3 * c + k,
                         -c if d else 0.0, ran)
    return rec


def _reference_sup(centers: list, rec: np.ndarray) -> list:
    """sup_over_centers on the records as FunctionalEstimates, None where not run."""
    rows = [[None if not r["ran"] else quadrature.estimate(r.tolist(), 0, None) for r in row]
            for row in rec]
    return sup_over_centers(centers, lambda x: rows[centers.index(x)])[0]


N = float("nan")


@pytest.mark.parametrize("rows", [
    # ties: the first center of largest value wins
    [[(1.0, False, True), (2.0, False, True)], [(3.0, False, True), (2.0, False, True)],
     [(3.0, False, True), (1.0, False, True)]],
    # NaN first stays, NaN later never wins, divergence wins over a NaN first
    [[(N, False, True), (1.0, False, True), (N, False, True)],
     [(5.0, False, True), (N, False, True), (2.0, False, True)],
     [(7.0, False, True), (4.0, False, True), (0.0, True, True)]],
    # the first diverged center wins; later ones are skipped behind a diverged first
    [[(0.0, True, True), (1.0, False, True), (2.0, False, True)],
     [(0.0, True, False), (0.0, True, True), (9.0, False, True)],
     [(0.0, False, False), (3.0, False, True), (0.0, True, True)]],
    # every value NaN, and one center
    [[(N, False, True), (N, False, True)], [(N, False, True), (N, False, True)]],
    [[(4.0, False, True), (0.0, True, True), (N, False, True)]],
], ids=["ties", "nan", "diverged-and-skipped", "all-nan", "one-center"])
def test_array_sup_equals_sup_over_centers(rows):
    centers = [f"x{c}" for c in range(len(rows))]
    rec = _records(rows)
    assert repr(_sup_records(centers, rec)) == repr(_reference_sup(centers, rec))


def test_array_sup_equals_sup_over_centers_on_random_records():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n_c, n_k = rng.integers(1, 6), rng.integers(1, 5)
        vals = rng.choice([0.0, 1.0, 2.0, 2.0, N], size=(n_c, n_k))
        div = rng.random((n_c, n_k)) < 0.15
        # behind a diverged first center a led sup skips the others (or not)
        ran = ~(div[0] & (rng.random((n_c, n_k)) < 0.5))
        ran[0] = True
        rec = _records([[(v, d, r) for v, d, r in zip(*row)] for row in zip(vals, div, ran)])
        centers = [f"x{c}" for c in range(n_c)]
        assert repr(_sup_records(centers, rec)) == repr(_reference_sup(centers, rec))


def test_a_round_calls_each_kernel_family_power_and_owner_once(monkeypatch):
    # semigroup and resolvent jobs at two powers, the Green kernel at two
    # powers, and ball masses against a density seen from three centers: in
    # each engine round q_t and r_alpha are called once per power, on a
    # column of the round's t (alpha); each Green kernel, the mass integrand
    # and each density once
    model, spec = GaussianKernelModel(dim=3), GreenKernelSpec(nu=3.0, beta=2.0)
    mu = RadialDensity(power_profile(-1.0), dim=3, support_radius=1.0)
    centers = [np.zeros(3), np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.7, 0.2])]
    r_grid = 2.0 ** -np.arange(2, 8)
    rounds = []  # per round: (call, p, params) of each kernel and density call
    fetch = quadrature._Panels.fetch
    monkeypatch.setattr(quadrature._Panels, "fetch",
                        lambda *args: (rounds.append([]), fetch(*args))[1])

    def traced(name, fn):
        return lambda s: (rounds[-1].append((name, np.ndim(s))) if rounds else None, fn(s))[1]

    for kind in ("qt_radial", "resolvent_radial"):
        family = getattr(model, kind)
        monkeypatch.setattr(model, kind, lambda v, kind=kind, family=family: traced(
            (kind, tuple(np.unique(v).tolist())), family(v)))
    dens = mu.radial_mass_density
    monkeypatch.setattr(mu, "radial_mass_density", lambda x: traced(("m", tuple(x)), dens(x)))
    # (localized, global) parameters per power, none shared
    times = {1.0: ((0.5, 0.125), (0.3, 0.03)), 2.0: ((0.25, 0.0625), (0.2, 0.02))}
    orders = {1.0: ((1.0, 16.0), (3.0, 30.0)), 2.0: ((4.0, 64.0), (5.0, 50.0))}
    jobs = [kato_job(spec, 1.5, r_grid), kato_job(spec, 2.5, r_grid)]
    jobs[0] = (traced(("green", ()), jobs[0][0]), *jobs[0][1:])
    jobs[1] = (traced(("green-cap", ()), jobs[1][0]), *jobs[1][1:])
    for p in (1.0, 2.0):
        jobs += [semigroup_job(model, p, t, r_grid) for t in times[p][0]]
        jobs += [semigroup_job(model, p, t, None) for t in times[p][1]]
        jobs += [resolvent_job(model, p, a, r_grid) for a in orders[p][0]]
        jobs += [resolvent_job(model, p, a, None) for a in orders[p][1]]
    got, masses = sups(mu, centers, jobs, r_grid[3:])
    engine = [[call for call, ndim in calls if ndim == 2] for calls in rounds]  # rows of panels
    # G^2.5 against the density ~ s diverges: its window grows to the depth
    # cap, the first MIN_LEVELS levels in one round and the rest in a later
    # one, so the rounds checked below are several by construction
    assert got[1][0].reason == "depth_cap"
    assert sum(("green-cap", ()) in calls for calls in engine) >= 2
    assert all(len(set(calls)) == len(calls) for calls in engine)
    assert any(len(set(calls)) >= 5 for calls in engine)  # kernels and densities in one round
    for kind, grid in [("qt_radial", times), ("resolvent_radial", orders)]:
        power = {v: p for p in grid for v in grid[p][0] + grid[p][1]}
        for calls in engine:
            # one call per power, on that power's parameters only
            params = [params for (k, params) in calls if k == kind]
            assert all(len({power[v] for v in call}) == 1 for call in params)
            assert len({power[call[0]] for call in params}) == len(params)
    assert any(len(params) > 1 for calls in engine for (k, params) in calls if k != "m")
    assert any(("green", ()) in calls for calls in engine)
    # and the values are those of each job run alone
    for job, est in zip(jobs, got):
        assert repr(est) == repr(sups(mu, centers, [job], None)[0][0])
