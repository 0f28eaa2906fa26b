"""A RadialDensity keeps the rows of its radial mass densities that the
engine has read in its KernelRows (kernel_rows), by (rho, panel): a p-sweep
on one measure evaluates each (rho, panel) angular mean once, and every
report is what a fresh measure gives."""
import sys
import threading

import numpy as np
import pytest

from katolab import quadrature
from katolab.classification import ClassifyConfig, classify_measure
from katolab.functionals import CenterStrategy
from katolab.kernels import GaussianKernelModel
from katolab.measures import ROW_BLOCK, RadialDensity
from katolab.profiles import RadialProfile
from katolab.quadrature import panel_nodes

MODEL = GaussianKernelModel(3)  # its kernel rows are shared by every test here
#: the origin, two centers at one rho, and one further out
CFG = ClassifyConfig(centers=CenterStrategy(
    explicit=[np.zeros(3), [0.25, 0.0, 0.0], [0.0, -0.25, 0.0], [0.3, 0.4, 0.0]],
    n_support=0, n_random=0))
OTHER = ClassifyConfig(centers=CenterStrategy(n_support=4, n_random=2, seed=3))


def inv_power(s):
    with np.errstate(divide="ignore"):
        return s ** -1.5


class Counted:
    """|y|^-1.5 as a profile, recording each block of radii (one engine row's,
    at every angular node) that it evaluates."""

    def __init__(self):
        self.blocks = []

    def __call__(self, rad):
        if rad.ndim == 3:
            self.blocks += [b.tobytes() for b in rad.reshape(len(rad), -1)]
        return inv_power(rad)


def radial(fn=inv_power) -> RadialDensity:
    return RadialDensity(RadialProfile(fn), dim=3, support_radius=1.0)


def fresh(p) -> str:
    """The report of a fresh measure, as repr."""
    return repr(classify_measure(radial(), MODEL, p, CFG))


def test_stored_rows_are_the_density_on_each_row_alone():
    n = 2 * ROW_BLOCK + 5  # panels per rho: batches that cross the block size
    for name, rhos in [("off_origin", [0.25, 0.5]), ("at_origin", [0.0])]:
        mu = radial()
        family = getattr(mu, name)
        params = np.repeat(rhos, n)  # a column of the rho's
        b = np.tile(np.ldexp(0.75, -np.arange(n)), len(rhos))
        alone = np.array([getattr(radial(), name)(a)(panel_nodes(0.5 * e, e)[None])[0]
                          for a, e in zip(params, b)])
        half = mu.kernel_rows(family, params[::2], b[::2])
        rows = mu.kernel_rows(family, params, b)  # half held, half new
        assert np.array_equal(rows, alone) and np.array_equal(half, alone[::2])
        assert len(mu.kernel_rows) == len(params)
        assert np.array_equal(mu.kernel_rows(family, params[::-1], b[::-1]), alone[::-1])
        # every row in one call, as a fresh measure's first round makes it
        fresh_rows = getattr(radial(), name)(params[:, None])(panel_nodes(0.5 * b, b))
        assert np.array_equal(fresh_rows, alone)


def test_centers_at_one_rho_read_one_density():
    mu = radial()
    at = [mu.radial_mass_density(np.array(x)) for x in ([0.25, 0.0, 0.0], [0.0, 0.0, -0.25])]
    assert at[0] == at[1] and at[0].family == mu.off_origin and at[0].param == 0.25
    assert mu.radial_mass_density(np.zeros(3)).family == mu.at_origin


def test_a_second_p_evaluates_no_row_the_measure_holds():
    f = Counted()
    mu = radial(f)
    classify_measure(mu, MODEL, 1.0, CFG)
    first = set(f.blocks)
    assert len(f.blocks) == len(first)  # the two centers at one rho share their rows
    f.blocks.clear()
    got = classify_measure(mu, MODEL, 1.25, CFG)
    assert not first & set(f.blocks)  # no profile call for a row it holds
    assert len(f.blocks) == len(set(f.blocks))
    assert repr(got) == fresh(1.25)
    f.blocks.clear()
    classify_measure(mu, MODEL, 1.0, CFG)
    assert f.blocks == []  # every row held: not one profile call


def test_a_measure_that_served_other_p_and_centers_gives_a_fresh_measures_reports():
    ps = [1.0, 2.0]
    want = [fresh(p) for p in ps]
    mu = radial()
    for p in [1.75, 1.25]:
        classify_measure(mu, MODEL, p, OTHER)
    assert [repr(classify_measure(mu, MODEL, p, CFG)) for p in ps] == want


@pytest.mark.parametrize("cap", [20, 60])
def test_filling_past_the_cap_keeps_every_value(monkeypatch, cap):
    ps = [1.25, 2.0, 1.0]
    want = [fresh(p) for p in ps]
    monkeypatch.setattr(quadrature, "KERNEL_ROW_CAP", cap)
    f = Counted()
    mu, got = radial(f), []
    for p in ps:
        got.append(repr(classify_measure(mu, MODEL, p, CFG)))
        assert len(mu.kernel_rows) <= cap
    assert got == want
    assert len(set(f.blocks)) > cap  # the store was emptied on the way


def test_threads_sharing_a_measure_get_a_fresh_measures_reports(monkeypatch):
    ps = [1.0, 1.25, 2.0, 1.5, 1.75, 2.5]
    want = {p: fresh(p) for p in ps}
    monkeypatch.setattr(quadrature, "KERNEL_ROW_CAP", 60)  # the store empties often
    mu, got, errors = radial(), {}, []

    def work(p):
        try:
            got[p] = repr(classify_measure(mu, MODEL, p, CFG))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(p,)) for p in ps]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert got == want
