"""A whole radius grid in one call gives, at every radius, exactly what a
call for that radius alone gives, and evaluates far fewer panels."""
import math

import numpy as np
import pytest

from katolab.classification import ClassifyConfig, classify_measure
from katolab.config import RunConfig
from katolab.functionals import (
    GreenKernelSpec,
    kato_functional,
    resolvent_functional,
    semigroup_functional,
)
from katolab.kernels import GaussianKernelModel
from katolab.measures import (
    Density,
    PointMasses,
    RadialDensity,
    SphereSurface,
    lebesgue,
)
from katolab.profiles import RadialProfile

MODEL = GaussianKernelModel(dim=3)
SPEC = GreenKernelSpec(nu=3.0, beta=2.0)
P = 1.5
DYADIC = 2.0 ** -np.arange(2, 12, dtype=float)
GRIDS = {"dyadic": DYADIC, "non-dyadic": np.array([0.3, 0.2, 0.15])}
CONFIG = ClassifyConfig()
X0 = np.array([0.8, 0.0, 0.0])


def _inv_power(s):
    with np.errstate(divide="ignore"):
        return np.asarray(s, dtype=float) ** -1.5


def _bump(y):
    d = np.asarray(y, dtype=float) - X0
    return math.exp(-float(d @ d))


MEASURES = {
    "sphere-off-center": (SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi),
                          [[0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [1.2, 0.3, 0.0]]),
    "sphere-at-center": (SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi),
                         [[0.0, 0.0, 0.0]]),
    "radial-density": (RadialDensity(RadialProfile(_inv_power, singularity=1.5),
                                     dim=3, support_radius=1.0),
                       [[0.0, 0.0, 0.0], [0.3, 0.0, 0.0]]),
    "lebesgue": (lebesgue(3), [[0.0, 0.0, 0.0]]),
    # a zero-weight atom at the first center, a positive one at the second
    "point-masses": (PointMasses([((0.0, 0.0, 0.0), 0.0),
                                  ((0.1, 0.0, 0.0), 1.0)]),
                     [[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]]),
    "density-off-center": (Density(_bump, dim=3), [[0.3, 0.0, 0.0]]),
}


def _criteria():
    (a1, a2), (t1, t2) = CONFIG.localized_alphas, CONFIG.localized_times
    yield "green", lambda mu, r, c: kato_functional(mu, SPEC, P, r, centers=c)
    for key, a in (("res_loc_a1", a1), ("res_loc_a*", a2)):
        yield key, lambda mu, r, c, a=a: resolvent_functional(
            mu, MODEL, P, a, centers=c, localized_radius=r)
    for key, t in (("sg_loc_t1", t1), ("sg_loc_t*", t2)):
        yield key, lambda mu, r, c, t=t: semigroup_functional(
            mu, MODEL, P, t, centers=c, localized_radius=r)


CRITERIA = dict(_criteria())


def _fields(est):
    return (est.value, est.error, est.diverged, est.log_slope,
            tuple(est.argmax_center), est.n_centers, est.reason, est.levels)


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("criterion", CRITERIA)
def test_grid_call_equals_per_radius_calls(criterion, measure, grid):
    mu, centers = MEASURES[measure]
    radii = GRIDS[grid]
    f = CRITERIA[criterion]
    whole = f(mu, radii, centers)
    assert len(whole) == len(radii)
    for r, est in zip(radii, whole):
        assert _fields(est) == _fields(f(mu, float(r), centers))


def test_point_masses_diverge_only_at_the_positive_atom():
    mu, centers = MEASURES["point-masses"]
    ests = kato_functional(mu, SPEC, P, DYADIC, centers=centers)
    assert all(e.diverged for e in ests)
    assert all(tuple(e.argmax_center) == (0.1, 0.0, 0.0) for e in ests)
    ests = kato_functional(mu, SPEC, P, DYADIC, centers=centers[:1])
    assert [e.value > 0 for e in ests] == [r >= 0.1 for r in DYADIC]
    assert not any(e.diverged for e in ests)


def test_sphere_d3_reads_each_density_row_once(monkeypatch):
    # one classify call runs every criterion in one engine call: each row
    # (center, panel nodes) of the radial mass density is evaluated once
    run = RunConfig.from_file("configs/sphere-d3.cfg")
    build = SphereSurface.radial_view
    rows = []

    def counted(self, x):
        atoms, m, support = build(self, x)
        center = tuple(np.asarray(x, dtype=float).tolist())

        def rows_read(s):
            rows.extend((center, row.tobytes()) for row in np.atleast_2d(s))
            return m(s)

        return atoms, None if m is None else rows_read, support

    monkeypatch.setattr(SphereSurface, "radial_view", counted)
    for p in run.p_list:
        rows.clear()
        classify_measure(run.measure, run.model, p, run.classify)
        assert rows and len(rows) == len(set(rows))
