"""Every error bar that `katolab classify` writes bounds the actual error.

Rows are checked against references that katolab does not use: the Lebesgue
Green and resolvent integrals of perfbench/oracles.py (brownian-d3-lebesgue),
and mpmath quadrature of the stable resolvent's closed form (stable-d2) and
of the sphere's exact chord-length density (sphere-d3).  Rows of the other
configs are not checked here yet.
"""
import csv
import importlib.util
import math
from itertools import accumulate
from pathlib import Path

import pytest

from katolab.classification import ClassifyConfig
from katolab.cli import main
from katolab.config import RunConfig
from katolab.kernels import stable_jump_constant

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("oracles", ROOT / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _uncovered_rows(tmp_path, config: str, oracle) -> tuple[int, list]:
    """Run classify on a shipped config; count the finite rows the oracle
    has a value for and list those whose bar misses it."""
    cfg_path = ROOT / "configs" / f"{config}.cfg"
    assert main(["classify", "--config", str(cfg_path), "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "classify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checked, uncovered = 0, []
    for row in rows:
        p, scale = float(row["p"]), float(row["scale"])
        value, err = float(row["value"]), float(row["error"])
        if not math.isfinite(value):
            continue
        ref = oracle(row["criterion"], p, scale)
        if ref is None:
            continue
        checked += 1
        if abs(value - ref) > err:
            uncovered.append(f"{row['criterion']} p={p:g} scale={scale:g}: "
                             f"|{value!r} - {ref!r}| > {err!r}")
    return checked, uncovered


def test_brownian_d3_lebesgue_bars_cover_the_error(tmp_path):
    cfg = ClassifyConfig()
    a1, a2 = cfg.localized_alphas

    def oracle(key, p, scale):
        """Closed form of a brownian-d3-lebesgue row, None for rows without one."""
        if p >= 3.0:
            return None
        if key == "green":
            return oracles.green_ball_lebesgue_d3(p, scale)
        if key in ("res_loc_a1", "res_loc_a*"):
            return oracles.resolvent_lebesgue_d3(p, a1 if key == "res_loc_a1" else a2, scale)
        if key == "res_global":  # recorded at the scale alpha^{-1/2}
            alpha = min(cfg.alpha_grid, key=lambda a: abs(a**-0.5 - scale))
            return oracles.resolvent_lebesgue_d3(p, float(alpha))
        return None

    checked, uncovered = _uncovered_rows(tmp_path, "brownian-d3-lebesgue", oracle)
    # p in {1, 2, 2.8}: 10 green and 2 x 10 localized resolvent radii plus
    # 8 global alphas each
    assert checked == 3 * 38
    assert uncovered == []


def test_stable_d2_localized_resolvent_bars_cover_the_error(tmp_path):
    # Lebesgue measure on R^2 under the stable estimate (d, a) = (2, 1.2):
    # the localized resolvent row at radius r is 2 pi int_0^r r_alpha(s)^p s ds,
    # with r_alpha = J gamma(2, alpha u) / alpha^2 + alpha^(d/a-1) Gamma(1-d/a,
    # alpha u), J = A s^-(d+a), u = J^(-a/(d+a)), integrated by mpmath
    mpmath = pytest.importorskip("mpmath")
    cfg = ClassifyConfig()
    a1, a2 = cfg.localized_alphas
    radii = sorted(float(r) for r in cfg.r_grid)
    d, a = 2, mpmath.mpf(1.2)
    sums = {}

    def r_alpha(alpha, s):
        J = mpmath.mpf(stable_jump_constant(2, 1.2)) * s ** -(d + a)
        u = J ** (-a / (d + a))
        return (J * mpmath.gammainc(2, 0, alpha * u) / alpha**2
                + mpmath.mpf(alpha) ** (d / a - 1) * mpmath.gammainc(1 - d / a, alpha * u))

    def oracle(key, p, scale):
        if key not in ("res_loc_a1", "res_loc_a*"):
            return None
        alpha = a1 if key == "res_loc_a1" else a2
        if (p, alpha) not in sums:  # the integral up to every radius of the grid
            with mpmath.workdps(20):
                f = lambda s: 2 * mpmath.pi * r_alpha(alpha, s) ** p * s
                parts = [mpmath.quad(f, [lo, hi]) for lo, hi in zip([0.0] + radii, radii)]
                sums[p, alpha] = dict(zip(radii, map(float, accumulate(parts))))
        return sums[p, alpha][scale]

    checked, uncovered = _uncovered_rows(tmp_path, "stable-d2", oracle)
    # p in {1, 1.5, 2}: 2 x 10 localized resolvent radii each
    assert checked == 3 * 20
    assert uncovered == []


def test_sphere_d3_green_and_localized_resolvent_bars_cover_the_error(tmp_path):
    # unit-sphere surface measure in R^3 under the d = 3 Gaussian kernel: seen
    # from a center at distance rho, its mass at distance s from it has the
    # density c s on [|rho - R|, rho + R], c = mass / (2 R rho); a row is the
    # largest over the config's centers of int c s g(s)^p ds up to its radius
    # (a global row: over the whole interval), g(s) = 1/s (green),
    # e^{-sqrt(2 alpha) s} / (2 pi s) (resolvent) or erfc(s / sqrt(2 t)) / (2 pi s)
    # (q_t), integrated by mpmath; sg_global is recorded at the scale t^(1/2),
    # res_global at alpha^(-1/2)
    mpmath = pytest.importorskip("mpmath")
    run = RunConfig.from_file(str(ROOT / "configs" / "sphere-d3.cfg"))
    mu, cfg = run.measure, run.classify
    centers = cfg.centers.build(mu)  # the config's seed is the one classify runs with
    (a1, a2), (t1, t2) = cfg.localized_alphas, cfg.localized_times
    radii = sorted(float(r) for r in cfg.r_grid)
    resolvent = lambda a: lambda s: mpmath.exp(-mpmath.sqrt(2 * a) * s) / (2 * mpmath.pi * s)
    heat = lambda t: lambda s: mpmath.erfc(s / mpmath.sqrt(2 * t)) / (2 * mpmath.pi * s)
    localized = {"green": lambda s: 1 / s, "res_loc_a1": resolvent(a1),
                 "res_loc_a*": resolvent(a2), "sg_loc_t1": heat(t1), "sg_loc_t*": heat(t2)}
    sums = {}

    def largest_over_centers(g, p, ends):
        """The largest over the centers of int c s g(s)^p ds up to each of
        ends, once per distance rho of a center (six sit on the sphere)."""
        f = lambda s: s * g(s) ** p
        best = dict.fromkeys(ends, 0.0)
        for rho in {float(math.dist(x, mu.center)) for x in centers}:
            lo, hi, c = abs(rho - mu.R), rho + mu.R, mu.mass / (2.0 * mu.R * rho)
            with mpmath.workdps(20):
                cuts = [lo] + [r for r in ends if lo < r < hi] + [hi]
                parts = accumulate(c * mpmath.quad(f, [a, b]) for a, b in zip(cuts, cuts[1:]))
                upto = dict(zip(cuts[1:], map(float, parts)))
            for r in ends:
                best[r] = max(best[r], 0.0 if r <= lo else upto[min(r, hi)])
        return best

    def oracle(key, p, scale):
        if key in ("sg_global", "res_global"):
            g = heat(scale**2) if key == "sg_global" else resolvent(scale**-2)
            return largest_over_centers(g, p, [math.inf])[math.inf]
        if key not in localized:
            return None
        if (key, p) not in sums:  # each center's integral up to every radius, then the sup
            sums[key, p] = largest_over_centers(localized[key], p, radii)
        return sums[key, p][scale]

    checked, uncovered = _uncovered_rows(tmp_path, "sphere-d3", oracle)
    # p = 1.5: 10 radii of each of the five localized criteria and 8 scales of
    # each global one (p = 2.5 diverges at the centers on the sphere, and its
    # rows are not finite)
    assert checked == 5 * 10 + 2 * 8
    assert uncovered == []
