"""Kernel values are shared by all centers of one functional call, and a
measure's radial density by all criteria of one classify_measure call: each
distinct panel is evaluated once, nothing outlives the call, and every
value is what the per-center calls give."""
import math

import numpy as np
import pytest

from katolab.classification import ClassifyConfig, classify_measure
from katolab.functionals import (
    CenterStrategy,
    GreenKernelSpec,
    kato_functional,
    resolvent_functional,
    semigroup_functional,
)
from katolab.kernels import GaussianKernelModel
from katolab.measures import Density, RadialDensity, SphereSurface
from katolab.profiles import RadialProfile

MODEL = GaussianKernelModel(dim=3)
SPEC = GreenKernelSpec(nu=3.0, beta=2.0)
P = 1.5
GRID = 2.0 ** -np.arange(2, 12, dtype=float)


def _sphere(mass=4.0 * math.pi):
    return SphereSurface(np.zeros(3), 1.0, mass)


SPHERE_CENTERS = CenterStrategy(n_support=8, n_random=8, seed=1).build(_sphere())


def _inv_power(s):
    with np.errstate(divide="ignore"):
        return np.asarray(s, dtype=float) ** -1.5


def _off_center(y):
    return (1.0 + float(y[0])) ** 2


def _kernel_calls(monkeypatch, model):
    """Bytes of every argument the kernel callables of model are called with."""
    calls = []
    for name in ("qt_radial", "resolvent_radial"):
        build = getattr(model, name)

        def counted(scale, _build=build):
            kernel = _build(scale)

            def k(s):
                calls.append(np.asarray(s, dtype=float).tobytes())
                return kernel(s)

            return k

        monkeypatch.setattr(model, name, counted)
    return calls


KERNEL_CALLS = {
    "res_loc": lambda mu, c: resolvent_functional(
        mu, MODEL, P, 16.0, centers=c, localized_radius=GRID),
    "sg_loc": lambda mu, c: semigroup_functional(
        mu, MODEL, P, 0.125, centers=c, localized_radius=GRID),
    "res_global": lambda mu, c: resolvent_functional(mu, MODEL, P, 64.0, centers=c),
    "sg_global": lambda mu, c: semigroup_functional(mu, MODEL, P, 1.0 / 64, centers=c),
}


@pytest.mark.parametrize("criterion", KERNEL_CALLS)
def test_kernel_is_called_once_per_distinct_panel(monkeypatch, criterion):
    assert len(SPHERE_CENTERS) == 16
    calls = _kernel_calls(monkeypatch, MODEL)
    est = KERNEL_CALLS[criterion](_sphere(), SPHERE_CENTERS)
    assert calls and len(calls) == len(set(calls))
    monkeypatch.undo()
    assert est == KERNEL_CALLS[criterion](_sphere(), SPHERE_CENTERS)


def test_classify_serves_each_radial_density_once_per_panel(monkeypatch):
    mu = _sphere()
    builds, evals = [], []
    build = mu.radial_mass_density

    def counted(x):
        key = np.asarray(x, dtype=float).tobytes()
        builds.append(key)
        m = build(x)

        def density(s):
            evals.append((key, np.asarray(s, dtype=float).tobytes()))
            return m(s)

        return density

    cfg = ClassifyConfig(centers=SPHERE_CENTERS)
    want = classify_measure(mu, MODEL, P, cfg)
    monkeypatch.setattr(mu, "radial_mass_density", counted)
    got = classify_measure(mu, MODEL, P, cfg)
    views: dict = {}  # the first center at each distance from the sphere's center
    for x in SPHERE_CENTERS:
        views.setdefault(float(np.linalg.norm(x)), x)
    assert sorted(builds) == sorted(np.asarray(x).tobytes() for x in views.values())
    assert evals and len(evals) == len(set(evals))
    assert repr(got) == repr(want)


# --------------------------------------------------------------------------
# safety: nothing stored on the inputs, nothing kept between calls but a
# model's kernel rows (tests/test_kernel_rows.py)


def _small_config():
    return ClassifyConfig(centers=CenterStrategy(n_support=3, n_random=2, seed=3))


@pytest.mark.parametrize("mu", [
    _sphere(),
    RadialDensity(RadialProfile(_inv_power, singularity=1.5), dim=3,
                  support_radius=1.0),
], ids=["sphere", "radial-density"])
def test_classify_leaves_measure_and_model_unchanged(mu):
    model = GaussianKernelModel(dim=3)
    classify_measure(mu, model, P, _small_config())  # builds the tables
    before = repr(vars(mu)), repr(vars(model))
    classify_measure(mu, model, 2.5, _small_config())
    assert (repr(vars(mu)), repr(vars(model))) == before


def test_a_changed_measure_gives_the_new_values():
    mu = _sphere()
    cfg = _small_config()
    first = classify_measure(mu, MODEL, P, cfg)
    mu.mass = 2.0 * math.pi
    second = classify_measure(mu, MODEL, P, cfg)
    assert repr(second) == repr(classify_measure(_sphere(2.0 * math.pi), MODEL,
                                                 P, cfg))
    assert second.sweeps["sg_global"] != first.sweeps["sg_global"]
    for crit in KERNEL_CALLS.values():
        before = _values(crit(mu, SPHERE_CENTERS[:3]))
        mu.mass *= 2.0
        after = _values(crit(mu, SPHERE_CENTERS[:3]))
        assert after == pytest.approx([2.0 * v for v in before], rel=1e-12)


def _values(out):
    return [est.value for est in (out if isinstance(out, list) else [out])]


# --------------------------------------------------------------------------
# the sup over all centers equals the best of the single-center calls


CRITERIA = {
    "green": lambda mu, c: kato_functional(mu, SPEC, P, GRID[:4], centers=c),
    "res_loc_a1": lambda mu, c: resolvent_functional(
        mu, MODEL, P, 1.0, centers=c, localized_radius=GRID[:4]),
    "res_loc_a*": lambda mu, c: resolvent_functional(
        mu, MODEL, P, 16.0, centers=c, localized_radius=GRID[:4]),
    "sg_loc_t1": lambda mu, c: semigroup_functional(
        mu, MODEL, P, 0.5, centers=c, localized_radius=GRID[:4]),
    "sg_loc_t*": lambda mu, c: semigroup_functional(
        mu, MODEL, P, 0.125, centers=c, localized_radius=GRID[:4]),
    "sg_global": lambda mu, c: [semigroup_functional(mu, MODEL, P, 1.0 / 16,
                                                     centers=c)],
    "res_global": lambda mu, c: [resolvent_functional(mu, MODEL, P, 16.0,
                                                      centers=c)],
}

MEASURES = {
    "sphere": (_sphere(), SPHERE_CENTERS[:6] + [np.zeros(3)]),
    "radial-density": (
        RadialDensity(RadialProfile(_inv_power, singularity=1.5), dim=3,
                      support_radius=1.0),
        [np.zeros(3), np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.9, 0.2])]),
    # not radial about any center; its sphere averages resolve at the first
    # two angular orders, which keeps the global criteria cheap
    "density-off-center": (Density(_off_center, dim=3),
                           [np.array([0.3, 0.0, 0.0]), np.zeros(3)]),
}


def _fields(est):
    return (est.value, est.error, est.diverged, est.reason, est.levels,
            tuple(est.argmax_center))


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_all_centers_equal_the_best_single_center(criterion, measure):
    mu, centers = MEASURES[measure]
    f = CRITERIA[criterion]
    singles = [f(mu, [x]) for x in centers]
    for k, est in enumerate(f(mu, centers)):
        best = singles[0][k]
        for ests in singles[1:]:
            if not best.diverged and (ests[k].diverged
                                      or ests[k].value > best.value):
                best = ests[k]
        assert _fields(est) == _fields(best)
        assert est.n_centers == len(centers)


def test_classify_sweeps_equal_the_criteria_called_alone():
    mu, c = MEASURES["density-off-center"]
    cfg = ClassifyConfig(centers=c)
    rep = classify_measure(mu, MODEL, P, cfg)
    r = cfg.r_grid
    alone = {
        "green": kato_functional(mu, SPEC, P, r, centers=c),
        "res_loc_a1": resolvent_functional(mu, MODEL, P, 1.0, centers=c,
                                           localized_radius=r),
        "res_loc_a*": resolvent_functional(mu, MODEL, P, 16.0, centers=c,
                                           localized_radius=r),
        "sg_loc_t1": semigroup_functional(mu, MODEL, P, 0.5, centers=c,
                                          localized_radius=r),
        "sg_loc_t*": semigroup_functional(mu, MODEL, P, 0.125, centers=c,
                                          localized_radius=r),
        "sg_global": [semigroup_functional(mu, MODEL, P, t, centers=c)
                      for t in cfg.t_grid],
        "res_global": [resolvent_functional(mu, MODEL, P, a, centers=c)
                       for a in cfg.alpha_grid],
    }
    assert list(rep.sweeps) == list(alone)
    for key, ests in alone.items():
        assert [row[1:] for row in rep.sweeps[key]] == [
            (float(est), est.error + est.stat_error) for est in ests]
