"""A sup integrates each distinct view of a measure once: centers of one
view_key (one distance from a sphere's or a radial density's center; any
point of Lebesgue or Ahlfors measure) share one engine pass, and every sup
reads as the one taken center by center, bit for bit."""
import math

import numpy as np
import pytest

from katolab.classification import ClassifyConfig, classify_measure
from katolab.functionals import (
    CenterStrategy,
    GreenKernelSpec,
    kato_job,
    resolvent_job,
    semigroup_job,
    sup_over_centers,
    sups,
)
from katolab.kernels import GaussianKernelModel
from katolab.measures import AhlforsAbstract, Lebesgue, RadialDensity, SphereSurface, integrate_jobs
from katolab.profiles import RadialProfile

MODEL = GaussianKernelModel(dim=3)
SPEC = GreenKernelSpec(nu=3.0, beta=2.0)
GRID = 2.0 ** -np.arange(2, 12, dtype=float)
MASS_RADII = [float(r) for r in GRID[5:]]
#: sweep-warm's centers: 8 support points and 8 random ones, seed 7
SWEEP_CENTERS = CenterStrategy(n_support=8, n_random=8, seed=7)


def _sphere():
    return SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)


def _inv_power(s):
    with np.errstate(divide="ignore"):
        return np.asarray(s, dtype=float) ** -1.5


def _radial():
    return RadialDensity(RadialProfile(_inv_power, singularity=1.5), dim=3, support_radius=1.0)


# the origin first (G^p diverges there for p >= 1.5), then points at
# repeated distances from it, inside and outside the support
RADIAL_CENTERS = [np.zeros(3), np.array([0.5, 0.0, 0.0]), np.array([0.3, 0.4, 0.0]),
                  np.array([0.0, -0.5, 0.0]), np.array([0.0, -0.4, 0.3]),
                  np.array([0.2, 0.0, 0.0]), np.array([0.0, 0.0, -0.2]),
                  np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])]
AHLFORS = AhlforsAbstract(eta=2.0, c_lower=1.0, c_upper=4.0, r0=1.0, dim=3)

#: measure, centers, number of distinct views among them
CASES = {
    "sphere": (_sphere(), SWEEP_CENTERS.build(_sphere()), 10),
    "radial-density": (_radial(), RADIAL_CENTERS, 4),
    "ahlfors": (AHLFORS, SWEEP_CENTERS.build(AHLFORS), 1),
    "lebesgue": (Lebesgue(3), RADIAL_CENTERS, 1),
}


def _jobs(mu, p):
    """A Green ball job, and on a measure with kernel criteria the localized
    and global resolvent and semigroup jobs."""
    jobs = [kato_job(SPEC, p, GRID)]
    if mu.supports_kernel_criteria:
        jobs += [resolvent_job(MODEL, p, 16.0, GRID), semigroup_job(MODEL, p, 0.125, GRID),
                 resolvent_job(MODEL, p, 64.0, None), semigroup_job(MODEL, p, 1.0 / 64, None)]
    return jobs


def _listed(ests):
    return ests if isinstance(ests, list) else [ests]


def _fields(est):
    return (float.hex(est.value), float.hex(est.error), est.diverged, est.reason, est.levels,
            float.hex(est.log_slope), est.n_centers, np.asarray(est.argmax_center).tobytes())


def _center_by_center(mu, centers, job):
    """The sup of job over centers, each center integrated alone."""
    return _listed(sup_over_centers(centers, lambda x: sups(mu, [x], [job], None, True)[0][0])[0])


@pytest.mark.parametrize("p", [1.5, 2.5])
@pytest.mark.parametrize("case", CASES)
def test_each_sup_is_the_center_by_center_sup(case, p):
    mu, centers, n_views = CASES[case]
    assert len({mu.view_key(x) for x in centers}) == n_views < len(centers)
    jobs = _jobs(mu, p)
    got, masses = sups(mu, centers, jobs, MASS_RADII, True)
    for job, ests in zip(jobs, got):
        assert [_fields(e) for e in _listed(ests)] == [
            _fields(e) for e in _center_by_center(mu, centers, job)]
    alone = [integrate_jobs(mu, [x], [(np.ones_like, MASS_RADII, False)])[0][0]["value"].tolist()
             for x in centers]
    assert [list(map(float.hex, row)) for row in masses] == [
        list(map(float.hex, row)) for row in alone]
    # a tie: some sup is won by a center whose view a later center shares
    # (the radial density's origin, a view of its own, wins each of its sups)
    winners = [e.argmax_center for ests in got for e in _listed(ests)]
    keys = [mu.view_key(x) for x in centers]
    assert any(keys.count(mu.view_key(x)) > 1 for x in winners) == (case != "radial-density")
    if p == 2.5 and case != "lebesgue":
        # G^2.5 diverges at the first center: the led sup is its, and
        # centers of its view read its diverged record
        assert got[0][0].diverged and got[0][0].argmax_center is centers[0]


def test_a_sphere_classify_builds_each_radial_density_once_per_view(monkeypatch):
    # sweep-warm's 16 centers lie at 10 distinct distances from the center
    mu, centers = _sphere(), SWEEP_CENTERS.build(_sphere())
    builds = []
    build = mu.radial_view
    monkeypatch.setattr(mu, "radial_view",
                        lambda x: builds.append(np.asarray(x).tobytes()) or build(x))
    report = classify_measure(mu, MODEL, 1.5, ClassifyConfig(centers=SWEEP_CENTERS))
    views: dict = {}
    for x in centers:
        views.setdefault(float(np.linalg.norm(x)), x)
    assert len(views) == 10 and report.n_centers == len(centers) == 16
    assert builds == [x.tobytes() for x in views.values()]
