"""End-to-end acceptance suite.

Each test covers one numbered release criterion and prints a one-line
PASS/FAIL verdict with the pinned tolerance, so the full gate can be read
off a plain ``pytest -v -s`` run.
"""

import math
import time

import numpy as np

from katolab.classification import ClassifyConfig, classify_measure, fit_order_delta
from katolab.functionals import (CenterStrategy, GreenKernelSpec,
                                 kato_functional)
from katolab.kernels import (GaussianKernelModel, relativistic_psi,
                             synthetic_scaling_model)
from katolab.measures import (AhlforsAbstract, PointMasses, RadialDensity,
                              SphereSurface, lebesgue)
from katolab.montecarlo import (PathConfig, expected_additive_functional,
                                quadrature_additive_functional)
from katolab.profiles import RadialProfile, power_profile
from katolab.rearrangement import (DistributionFunction, layer_cake_criterion,
                                   radial_criterion)

ORIGIN3 = np.zeros(3)
FAST_CENTERS = CenterStrategy(explicit=[ORIGIN3], n_support=0, n_random=0)


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _fast_config(**kw) -> ClassifyConfig:
    return ClassifyConfig(centers=FAST_CENTERS, **kw)


# ---------------------------------------------------------------------------
# 1. Lebesgue measure under the d = 3 Gaussian kernel


def test_criterion_01_lebesgue_d3_membership_table():
    model = GaussianKernelModel(dim=3)
    mu = lebesgue(3)
    expected = {1.0: "in", 2.0: "in", 2.8: "in", 3.0: "out", 3.5: "out"}
    t0 = time.monotonic()
    got = {p: classify_measure(mu, model, p, _fast_config()).verdict_K
           for p in expected}
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 120.0
    _report(1, ok, f"verdicts {got} (expected {expected}), "
                   f"runtime {elapsed:.1f}s < 120s")


# ---------------------------------------------------------------------------
# 2. Surface measure on the unit sphere in R^3


def test_criterion_02_sphere_membership_and_slope():
    model = GaussianKernelModel(dim=3)
    mu = SphereSurface(center=ORIGIN3, radius=1.0, total_mass=4.0 * math.pi)
    centers = CenterStrategy(explicit=[np.array([0.0, 0.0, 1.0])],
                             n_support=4, n_random=0)
    cfg = ClassifyConfig(centers=centers)
    rep_in = classify_measure(mu, model, 1.5, cfg)
    rep_out = classify_measure(mu, model, 2.5, cfg)
    slope = rep_in.fits["green"].slope
    want = 2.0 - 1.5  # co-dimension 1 mass against G^p ~ r^{(d-1) - p(d-2)}
    ok = (rep_in.verdict_K == "in" and rep_out.verdict_K == "out"
          and abs(slope - want) <= 0.1 * want)
    _report(2, ok, f"p=1.5 {rep_in.verdict_K}, p=2.5 {rep_out.verdict_K}, "
                   f"decay slope {slope:.4f} vs {want} (tol 10%)")


# ---------------------------------------------------------------------------
# 3. Agreement of the membership criteria, and its known failure mode


def test_criterion_03_criteria_agreement():
    model3 = GaussianKernelModel(dim=3)
    sphere_centers = CenterStrategy(explicit=[np.array([0.0, 0.0, 1.0])],
                                    n_support=4, n_random=0)
    cases = [("lebesgue", lebesgue(3), _fast_config()),
             ("sphere", SphereSurface(ORIGIN3, 1.0, 4.0 * math.pi),
              ClassifyConfig(centers=sphere_centers))]
    lines = []
    ok = True
    for name, mu, cfg in cases:
        for p in (1.0, 2.0, 3.5):
            rep = classify_measure(mu, model3, p, cfg)
            agree = len(set(rep.criteria.values())) == 1
            ok &= agree
            lines.append(f"{name} p={p}: {'agree' if agree else rep.criteria}")
            if name == "lebesgue":
                ok &= rep.verdict_K == ("in" if p < 3 else "out")

    # nu < beta regime: the ball criterion and the kernel criteria are
    # expected to disagree for a point mass on the line
    model1 = GaussianKernelModel(dim=1)
    delta0 = PointMasses(atoms=[([0.0], 1.0)], dim=1)
    cfg1 = ClassifyConfig(centers=CenterStrategy(
        explicit=[np.zeros(1)], n_support=1, n_random=0))
    rep = classify_measure(delta0, model1, 2.0, cfg1)
    split = (rep.criteria["green"] == "in"
             and rep.criteria["sg_loc_t1"] == "out"
             and rep.criteria["res_loc_a1"] == "out"
             and any("disagree" in f for f in rep.findings))
    ok &= split
    lines.append(f"delta_0 d=1: green={rep.criteria['green']} vs "
                 f"sg_loc={rep.criteria['sg_loc_t1']}, "
                 f"res_loc={rep.criteria['res_loc_a1']} (split expected)")
    _report(3, ok, "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. Resolvent kernel on the line against the closed form


def test_criterion_04_resolvent_closed_form_d1():
    model = GaussianKernelModel(dim=1)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0, 4.0, 8.0):
        for r in (0.1, 0.5, 1.0, 2.0, 4.0):
            got = model.resolvent_scalar(alpha, r)
            want = math.exp(-math.sqrt(2.0 * alpha) * r) / math.sqrt(
                2.0 * alpha)
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-6
    _report(4, ok, f"5x5 (alpha, distance) grid, worst relative error "
                   f"{worst:.2e} <= 1e-6")


# ---------------------------------------------------------------------------
# 5. Fitted decay order of the semigroup functional


def test_criterion_05_decay_order_fit():
    model = GaussianKernelModel(dim=3)
    mu = lebesgue(3)
    lines = []
    ok = True
    for p in (1.0, 1.5, 2.0):
        want = (3.0 - p * (3.0 - 2.0)) / (2.0 * p)
        delta, ci = fit_order_delta(mu, model, p, _fast_config())
        ok &= abs(delta - want) <= 0.15 * want and delta >= want - 0.05
        lines.append(f"p={p}: delta={delta:.4f} vs {want:.4f}")
    _report(5, ok, "; ".join(lines) + " (tol 15%, lower bound -0.05)")


# ---------------------------------------------------------------------------
# 6. Threshold location for Ahlfors-regular ball-mass envelopes


def test_criterion_06_ahlfors_threshold_flip():
    model = synthetic_scaling_model(nu=3.0, beta=2.0)
    cfg = _fast_config()
    lines = []
    ok = True
    for eta in (1.0, 2.0, 3.0):
        mu = AhlforsAbstract(eta=eta, c_lower=0.5, c_upper=2.0, r0=1.0, dim=3)
        p_star = eta / (3.0 - 2.0)
        for p in (p_star - 0.2, p_star - 0.06):
            if p < 1.0:
                continue
            v = classify_measure(mu, model, p, cfg).verdict_K
            ok &= v == "in"
            lines.append(f"eta={eta} p={p:.2f}: {v}")
        for p in (p_star + 0.06, p_star + 0.2):
            v = classify_measure(mu, model, p, cfg).verdict_K
            ok &= v == "out"
            lines.append(f"eta={eta} p={p:.2f}: {v}")
    _report(6, ok, "flip at p* = eta within +-0.05 band; " + "; ".join(lines))


# ---------------------------------------------------------------------------
# 7. Monte Carlo paths against deterministic quadrature


MC_POTENTIALS = [
    ("gaussian-bump", RadialProfile(lambda s: np.exp(-np.asarray(s, float) ** 2))),
    ("indicator", RadialProfile(lambda s: (np.asarray(s, float) <= 1.0) * 1.0)),
    ("cauchy", RadialProfile(lambda s: 1.0 / (1.0 + np.asarray(s, float) ** 2))),
    ("tent", RadialProfile(lambda s: np.maximum(1.0 - np.asarray(s, float), 0.0))),
    ("constant", RadialProfile(lambda s: np.ones_like(np.asarray(s, float)))),
]


def test_criterion_07_mc_vs_quadrature():
    model = GaussianKernelModel(dim=1)
    starts = [np.zeros(1), np.array([0.5]), np.array([-1.0])]
    t0 = time.monotonic()
    n_pass = 0
    for name, prof in MC_POTENTIALS:
        for x0 in starts:
            cfg = PathConfig(t=0.5, n_paths=10_000, seed=7, x0=x0)
            mc, se = expected_additive_functional(
                cfg, lambda y: prof(np.linalg.norm(np.atleast_2d(y), axis=-1)))
            quad = quadrature_additive_functional(model, cfg, prof,
                                                  center=np.zeros(1))
            n_pass += abs(mc - quad) <= 3.0 * max(se, 1e-12)
    elapsed = time.monotonic() - t0
    ok = n_pass >= 14 and elapsed < 60.0
    _report(7, ok, f"{n_pass}/15 potential/start cases within 3 SE "
                   f"(need >= 14), runtime {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 8. Normalized jump-profile function


def test_criterion_08_relativistic_profile():
    d, alpha = 3, 1.0
    psi0 = relativistic_psi(d, alpha, 0.0)
    grid = np.linspace(0.0, 50.0, 501)
    vals = np.array([relativistic_psi(d, alpha, float(r)) for r in grid])
    monotone = bool(np.all(np.diff(vals) <= 1e-15))
    envelope = np.array([math.exp(-r) * (1.0 + r ** ((d + alpha - 1.0) / 2.0))
                         for r in grid])
    band = grid >= 5.0
    ratios = vals[band] / envelope[band]
    spread = float(ratios.max() / ratios.min())
    ok = psi0 == 1.0 and monotone and spread < 2.0
    _report(8, ok, f"psi(0)={psi0} (exact 1), monotone={monotone}, "
                   f"envelope ratio spread {spread:.3f} < 2 on [5, 50]")


# ---------------------------------------------------------------------------
# 9. Randomized monotonicity checks


def _random_measure(rng):
    kind = rng.integers(3)
    if kind == 0:
        a = float(rng.uniform(0.1, 2.5))
        return RadialDensity(power_profile(-a), dim=3)
    if kind == 1:
        pts = rng.normal(scale=0.3, size=(int(rng.integers(1, 6)), 3))
        wts = rng.uniform(0.2, 2.0, size=len(pts))
        return PointMasses(atoms=list(zip(pts, wts)), dim=3)
    scale = float(rng.uniform(0.5, 2.0))
    return RadialDensity(
        RadialProfile(lambda s, c=scale: np.exp(-(np.asarray(s, float) / c) ** 2)),
        dim=3)


def test_criterion_09_randomized_monotonicity():
    spec = GreenKernelSpec.from_space(GaussianKernelModel(dim=3).space)
    rng = np.random.default_rng(20260826)
    centers = [ORIGIN3]
    n_holder = n_scale = violations = 0
    for _ in range(200):
        mu = _random_measure(rng)
        p1 = float(rng.uniform(1.0, 2.6))
        p2 = float(rng.uniform(p1, 2.8))
        r = float(2.0 ** -rng.uniform(1.0, 8.0))
        if rng.random() < 0.5:
            # interpolation bound: N_{p1}(r) <= N_{p2}(r)^{p1/p2} mu(B_r)^{1-p1/p2}
            n1 = kato_functional(mu, spec, p1, r, centers=centers)
            n2 = kato_functional(mu, spec, p2, r, centers=centers)
            mass = mu.ball_mass(ORIGIN3, r)
            if n2.diverged:
                n_holder += 1
                continue
            lhs = float(n1) - (n1.error + n1.stat_error)
            rhs = (float(n2) + n2.error + n2.stat_error) ** (p1 / p2) \
                * max(mass, 0.0) ** (1.0 - p1 / p2)
            violations += lhs > rhs * (1.0 + 1e-9)
            n_holder += 1
        else:
            # ball functionals increase with the radius: small-scale control
            # (Kato) implies fixed-scale finiteness (Dynkin)
            f1 = kato_functional(mu, spec, p1, r, centers=centers)
            f2 = kato_functional(mu, spec, p1, 2.0 * r, centers=centers)
            if f1.diverged or f2.diverged:
                violations += f1.diverged and not f2.diverged
            else:
                lhs = float(f1) - (f1.error + f1.stat_error)
                rhs = float(f2) + f2.error + f2.stat_error
                violations += lhs > rhs * (1.0 + 1e-9)
            n_scale += 1
    ok = violations == 0
    _report(9, ok, f"{n_holder} interpolation + {n_scale} scale-ordering "
                   f"cases, {violations} violations beyond error bars")


# ---------------------------------------------------------------------------
# 10. Rearrangement criteria agree, and finite flags are sound


REARR_PROFILES = (
    [(f"s^-{a}", RadialProfile(lambda s, a=a: np.asarray(s, float) ** -a,
                               singularity=a))
     for a in (0.3, 0.6, 0.9, 1.2, 1.5, 1.8, 2.1, 2.4, 2.7, 3.2)]
    + [(f"s^-{a} log(1+1/s)^{b}",
        RadialProfile(lambda s, a=a, b=b: np.asarray(s, float) ** -a
                      * np.log1p(1.0 / np.asarray(s, float)) ** b,
                      singularity=a + 0.1))
       for a, b in ((0.2, 1.0), (0.5, 2.0), (0.8, 1.0), (1.0, 1.0),
                    (1.3, 2.0), (1.6, 1.0), (1.9, 3.0), (2.2, 1.0),
                    (2.6, 2.0), (3.0, 1.0))])


def test_criterion_10_rearrangement_agreement_and_soundness():
    d, beta, p = 3, 2.0, 1.2
    model = GaussianKernelModel(dim=3)
    agree = []
    sound = True
    checked = 0
    for name, prof in REARR_PROFILES:
        _, fin_radial = radial_criterion(prof, d, beta, p)
        dist = DistributionFunction.from_radial(prof, d)
        _, fin_cake = layer_cake_criterion(dist, d, beta, p)
        agree.append(fin_radial == fin_cake)
        if fin_radial and checked < 6:
            # soundness: a finite rearrangement flag must never be
            # classified out of the class by the full pipeline
            rep = classify_measure(RadialDensity(prof, dim=3), model, p,
                                   _fast_config())
            sound &= rep.verdict_K != "out"
            checked += 1
    ok = all(agree) and sound
    _report(10, ok, f"radial/layer-cake finiteness agrees on "
                    f"{sum(agree)}/20 profiles; {checked} finite-flag cases "
                    f"classified, none 'out' (sound={sound})")
