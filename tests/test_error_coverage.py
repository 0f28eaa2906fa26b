"""Every error bar that `katolab classify` writes bounds the actual error.

Rows are checked against closed forms that katolab does not use: the
Lebesgue Green and resolvent integrals of perfbench/oracles.py.  The bars of
kernels served from interpolation tables (Gaussian in even d, stable,
stretched-exponential, custom) leave out the table error and are not
checked here yet.
"""
import csv
import importlib.util
import math
from pathlib import Path

from katolab.classification import ClassifyConfig
from katolab.cli import main

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("oracles", ROOT / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _lebesgue_d3_oracle(cfg: ClassifyConfig, key: str, p: float, scale: float):
    """Closed form of a brownian-d3-lebesgue row, None for rows without one."""
    a1, a2 = cfg.localized_alphas
    if key == "green":
        return oracles.green_ball_lebesgue_d3(p, scale)
    if key in ("res_loc_a1", "res_loc_a*"):
        return oracles.resolvent_lebesgue_d3(p, a1 if key == "res_loc_a1" else a2, scale)
    if key == "res_global":  # recorded at the scale alpha^{-1/2}
        alpha = min(cfg.alpha_grid, key=lambda a: abs(a**-0.5 - scale))
        return oracles.resolvent_lebesgue_d3(p, float(alpha))
    return None


def test_brownian_d3_lebesgue_bars_cover_the_error(tmp_path):
    cfg_path = ROOT / "configs" / "brownian-d3-lebesgue.cfg"
    assert main(["classify", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "classify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cfg = ClassifyConfig()
    checked, uncovered = 0, []
    for row in rows:
        p, scale = float(row["p"]), float(row["scale"])
        value, err = float(row["value"]), float(row["error"])
        ref = _lebesgue_d3_oracle(cfg, row["criterion"], p, scale)
        if p >= 3.0 or ref is None or not math.isfinite(value):
            continue
        checked += 1
        if abs(value - ref) > err:
            uncovered.append(f"{row['criterion']} p={p:g} scale={scale:g}: "
                             f"|{value!r} - {ref!r}| > {err!r}")
    # p in {1, 2, 2.8}: 10 green and 2 x 10 localized resolvent radii plus
    # 8 global alphas each
    assert checked == 3 * 38
    assert uncovered == []
