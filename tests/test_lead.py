"""A sup's later centers wait for its first center (the lead) only where
that center can diverge: classify_measure leads its sups where mu states no
eta, or where p (nu - beta) >= eta, and a report reads the same, bit for
bit, with the lead on or off."""
import math

import numpy as np
import pytest

from katolab import classification, quadrature
from katolab.classification import ClassifyConfig, classify_measure
from katolab.config import RunConfig
from katolab.functionals import CenterStrategy, sups
from katolab.kernels import GaussianKernelModel
from katolab.measures import PointMasses, RadialDensity, SphereSurface
from katolab.profiles import RadialProfile

MODEL = GaussianKernelModel(dim=3)
#: sweep-warm's sphere and radial ops: their centers, seed 7
SPHERE_CFG = ClassifyConfig(seed=7, centers=CenterStrategy(n_support=8, n_random=8, seed=7))
RADIAL_CFG = ClassifyConfig(seed=7, centers=CenterStrategy(n_support=4, n_random=4, seed=7))


def _sphere():
    return SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)


def _inv_power(s):
    with np.errstate(divide="ignore"):
        return np.asarray(s, dtype=float) ** -1.5


def _radial():
    return RadialDensity(RadialProfile(_inv_power, singularity=1.5), dim=3, support_radius=1.0)


def _sphere_d3():
    run = RunConfig.from_file("configs/sphere-d3.cfg")
    return run.measure, run.model, run.classify


#: a fresh (measure, model, config) per call
CASES = {"sphere-d3": _sphere_d3, "radial": lambda: (_radial(), MODEL, RADIAL_CFG)}


def _engine(monkeypatch) -> list:
    """Per engine round from now on (a _Panels.fetch call), the levels it reads."""
    rounds, fetch = [], quadrature._Panels.fetch

    def counted(panels, t, first, end):
        rounds.append(int((end - first).sum()))
        return fetch(panels, t, first, end)

    monkeypatch.setattr(quadrature._Panels, "fetch", counted)
    return rounds


def test_a_converging_sphere_classify_takes_two_engine_rounds(monkeypatch):
    # below p* = 2 no center can diverge, so no center waits for the first:
    # every view reads its first window in round 1 and its settle levels in
    # round 2 (4 rounds when the later views waited for the first's ball)
    rounds = _engine(monkeypatch)
    classify_measure(_sphere(), MODEL, 1.25, SPHERE_CFG)
    assert len(rounds) == 2


@pytest.mark.parametrize("mu,p,lead", [
    (_sphere(), 1.25, False), (_sphere(), 1.999, False), (_sphere(), 2.0, True),
    (_sphere(), 2.5, True), (_radial(), 1.0, True),
    (PointMasses([(np.zeros(3), 1.0)]), 1.0, True),
], ids=["sphere-1.25", "sphere-1.999", "sphere-2", "sphere-2.5", "radial", "point-masses"])
def test_classify_leads_only_where_the_first_center_can_diverge(mu, p, lead, monkeypatch):
    # the sphere states eta = 2 in a (nu, beta) = (3, 2) space: p* = 2; the
    # radial density states no eta, and point masses eta = 0
    leads = []
    monkeypatch.setattr(classification, "sups",
                        lambda *args: (leads.append(args[4]), sups(*args))[1])
    classify_measure(mu, MODEL, p, ClassifyConfig(centers=CenterStrategy(
        n_support=2, n_random=2, seed=7)))
    assert leads == [lead]


@pytest.mark.parametrize("case,p", [("sphere-d3", 1.5), ("sphere-d3", 2.5), ("radial", 1.25),
                                    ("radial", 2.0)])
def test_a_report_reads_the_same_with_the_lead_on_and_off(case, p, monkeypatch):
    reports, work = [], []
    for lead in (True, False):
        monkeypatch.setattr(classification, "sups",
                            lambda *args, lead=lead: sups(*args[:4], lead))
        rounds = _engine(monkeypatch)
        mu, model, cfg = CASES[case]()
        reports.append(repr(classify_measure(mu, model, p, cfg)))
        work.append((len(rounds), sum(rounds)))
        monkeypatch.undo()
    assert reports[0] == reports[1]
    assert work[0] != work[1]  # the two schedules differ: rounds, or levels read
