"""A kernel model keeps the raw q_t and r_alpha rows the engine has read
(quadrature.KernelRows): a p-sweep on one model evaluates each (family,
parameter, panel) row once, and every report is what a fresh model gives."""
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from katolab import quadrature
from katolab.classification import ClassifyConfig, classify_measure
from katolab.config import RunConfig, parse_config_text
from katolab.functionals import CenterStrategy
from katolab.kernels import GaussianKernelModel
from katolab.measures import SphereSurface
from katolab.quadrature import panel_nodes

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def _kernel_keys(path: Path) -> dict:
    kv = parse_config_text(path.read_text())
    return {k: v for k, v in kv.items() if k.startswith("kernel.")}


def _storeless(path: Path):
    """The config's model, fresh, with no row store: the engine then calls its
    families directly, as it did before models kept rows."""
    model = RunConfig.from_file(str(path)).model
    model.kernel_rows = None
    return model


@pytest.mark.parametrize("path", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_a_model_that_served_other_configs_gives_a_fresh_models_reports(path):
    run = RunConfig.from_file(str(path))
    fresh = [repr(classify_measure(run.measure, _storeless(path), p, run.classify))
             for p in run.p_list]
    model = run.model
    for other in CONFIGS:
        if other == path:
            continue
        served = RunConfig.from_file(str(other))
        for p in served.p_list:  # the other config's p list, on this measure
            classify_measure(run.measure, model, p, run.classify)
        if _kernel_keys(other) == _kernel_keys(path):  # and its own measure
            for p in served.p_list:
                classify_measure(served.measure, model, p, served.classify)
    assert [repr(classify_measure(run.measure, model, p, run.classify))
            for p in run.p_list] == fresh


@pytest.mark.parametrize("name", ["qt_radial", "resolvent_radial"])
def test_stored_rows_are_the_family_on_each_row_alone(name):
    model = GaussianKernelModel(3)
    family = getattr(model, name)
    params = np.repeat([0.125, 1.0, 16.0], 40)
    b = np.tile(np.ldexp(0.75, -np.arange(40)), 3)
    alone = np.array([family(a)(panel_nodes(0.5 * e, e)) for a, e in zip(params, b)])
    half = model.kernel_rows(family, params[::2], b[::2])
    rows = model.kernel_rows(family, params, b)  # half held, half new
    assert np.array_equal(rows, alone) and np.array_equal(half, alone[::2])
    assert len(model.kernel_rows) == len(params)
    assert np.array_equal(model.kernel_rows(family, params[::-1], b[::-1]), alone[::-1])


class CountedModel(GaussianKernelModel):
    """The Gaussian model, recording each (family, param, node row) that its
    q_t and r_alpha families evaluate on panel rows."""

    def __init__(self, dim):
        super().__init__(dim)
        self.rows = []

    def _counted(self, name, param, kernel):
        def k(r):
            r = np.asarray(r, dtype=float)
            if r.ndim == 2:
                params = np.broadcast_to(param, (len(r), 1)).ravel().tolist()
                self.rows += [(name, a, row.tobytes()) for a, row in zip(params, r)]
            return kernel(r)

        return k

    def qt_radial(self, t):
        return self._counted("qt_radial", t, super().qt_radial(t))

    def resolvent_radial(self, alpha):
        return self._counted("resolvent_radial", alpha, super().resolvent_radial(alpha))


SPHERE = SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)
CFG = ClassifyConfig(centers=CenterStrategy(n_support=4, n_random=2, seed=3))


def test_one_classify_evaluates_each_row_once_alpha_16_included():
    # alpha = 16 serves res_loc_a* and one res_global scale
    assert 16.0 in CFG.localized_alphas and 16.0 in CFG.alpha_grid
    model = CountedModel(3)
    classify_measure(SPHERE, model, 1.5, CFG)
    assert len(model.rows) == len(set(model.rows)) == len(model.kernel_rows)
    assert any(name == "resolvent_radial" and a == 16.0 for name, a, _ in model.rows)


def test_a_second_p_evaluates_only_the_rows_the_model_lacks():
    model = CountedModel(3)
    classify_measure(SPHERE, model, 1.5, CFG)
    first = set(model.rows)
    model.rows.clear()
    got = classify_measure(SPHERE, model, 2.5, CFG)
    assert not first & set(model.rows)  # no family call for a row it holds
    assert len(model.rows) == len(set(model.rows))
    assert repr(got) == repr(classify_measure(SPHERE, GaussianKernelModel(3), 2.5, CFG))
    model.rows.clear()
    classify_measure(SPHERE, model, 1.5, CFG)
    assert model.rows == []  # every row held: not one family call


@pytest.mark.parametrize("cap", [40, 400])
def test_filling_past_the_cap_keeps_every_value(monkeypatch, cap):
    ps = [1.25, 2.25, 1.5, 2.75]
    want = [repr(classify_measure(SPHERE, GaussianKernelModel(3), p, CFG)) for p in ps]
    monkeypatch.setattr(quadrature, "KERNEL_ROW_CAP", cap)
    model, got = CountedModel(3), []
    for p in ps:
        got.append(repr(classify_measure(SPHERE, model, p, CFG)))
        assert len(model.kernel_rows) <= cap
    assert got == want
    assert len(set(model.rows)) > cap  # the store was emptied on the way


def test_threads_sharing_a_model_get_a_fresh_models_reports(monkeypatch):
    ps = [1.25, 1.5, 2.25, 2.5, 1.75, 2.75]
    want = {p: repr(classify_measure(SPHERE, GaussianKernelModel(3), p, CFG)) for p in ps}
    monkeypatch.setattr(quadrature, "KERNEL_ROW_CAP", 400)  # the store empties often
    model, got, errors = GaussianKernelModel(3), {}, []

    def work(p):
        try:
            got[p] = repr(classify_measure(SPHERE, model, p, CFG))
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
