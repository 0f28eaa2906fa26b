import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katolab.classification import ClassifyConfig, classify_measure
from katolab.functionals import CenterStrategy, GreenKernelSpec, kato_functional
from katolab.kernels import GaussianKernelModel, StableEstimateModel
from katolab.measures import (R_SPLIT, AhlforsAbstract, Density, PointMasses, RadialDensity,
                              SphereSurface, integrate_global, integrate_jobs,
                              integrate_over_ball, lebesgue)
from katolab.profiles import power_profile
from katolab import quadrature
from katolab.quadrature import (
    DEPTH_CAP,
    GEOMETRIC,
    GEOMETRIC_RATIO_MAX,
    INF,
    MAX_EXTRA_LEVELS,
    MIN_LEVELS,
    NO_PASS,
    OUTWARD_MAX_LEVELS,
    OUTWARD_REL_TOL,
    PANEL_BLOCK,
    REASONS,
    SETTLE_LEVELS,
    ZERO_INWARD,
    ZERO_OUTWARD,
    FunctionalEstimate,
    dyadic_passes,
    gauss_panel,
    integrate_outward,
    integrate_to_zero,
    outward_diverges,
)


def test_gauss_panel_polynomial_exact():
    # 32-node Gauss-Legendre is exact for polynomials up to degree 63
    val = gauss_panel(lambda s: np.asarray(s) ** 5, 0.0, 2.0)
    assert val == pytest.approx(2.0**6 / 6.0, rel=1e-14)


def test_ball_integral_power_singularity():
    # int_{|y|<1} |y|^-2 dy in R^3 = 4 pi (radial integrand s^-2 * 4 pi s^2)
    h = lambda s: np.asarray(s) ** -2 * 4.0 * math.pi * np.asarray(s) ** 2
    res = integrate_to_zero(h, 1.0)
    assert not res.diverged
    assert res.value == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_divergent_power_singularity_certified():
    # |y|^-3 in R^3: log-divergent at the origin, flat panels
    h = lambda s: np.asarray(s) ** -3 * 4.0 * math.pi * np.asarray(s) ** 2
    res = integrate_to_zero(h, 1.0)
    assert res.diverged
    assert res.value == INF
    # per-level contribution is constant = 4 pi ln 2 / ln 2
    assert res.log_slope == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_log_divergence_detected():
    res = integrate_to_zero(lambda s: 1.0 / np.asarray(s), 1.0)
    assert res.diverged


def test_near_integrable_is_conservatively_divergent():
    # s^-0.99: finite but the dyadic ratio 2^-0.01 sits above the geometric
    # cutoff, so the sweep refuses to extrapolate
    res = integrate_to_zero(lambda s: np.asarray(s) ** -0.99, 1.0)
    assert res.diverged


def test_crossover_layer_not_mistaken_for_divergence():
    # integrand grows steeply inward down to s0 and then decays; the sweep
    # must deepen through the layer instead of certifying divergence
    s0 = 1e-4

    def h(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > s0, (s / s0) ** -3.0, (s / s0) ** 0.5)

    res = integrate_to_zero(h, 1.0)
    assert not res.diverged
    # exact: int_0^s0 (s/s0)^0.5 ds + int_s0^1 (s/s0)^-3 ds
    # the panel containing the kink at s0 limits the accuracy
    exact = s0 * (2.0 / 3.0) + s0**3 * (s0**-2 - 1.0) / 2.0
    assert res.value == pytest.approx(exact, rel=1e-3)


def test_outward_gaussian_tail():
    res = integrate_outward(lambda s: np.exp(-np.asarray(s) ** 2), 0.5)
    exact = math.sqrt(math.pi) / 2.0 * math.erfc(0.5)
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_outward_divergence():
    res = integrate_outward(lambda s: 1.0 / np.asarray(s), 1.0)
    assert res.diverged


@settings(max_examples=30, deadline=None)
@given(a=st.floats(min_value=-1.9, max_value=2.5))
def test_power_integrals_match_closed_form(a):
    # int_0^1 s^a ds = 1/(a+1) whenever the dyadic ratio 2^-(a+1) is below
    # the geometric cutoff
    if 2.0 ** -(a + 1.0) > GEOMETRIC_RATIO_MAX:
        return
    res = integrate_to_zero(lambda s: np.asarray(s, dtype=float) ** a, 1.0)
    assert not res.diverged
    assert res.value == pytest.approx(1.0 / (a + 1.0), rel=1e-8)


def test_quad_error_is_reported():
    res = integrate_to_zero(lambda s: np.ones_like(np.asarray(s, float)), 1.0)
    assert res.error >= 0.0
    assert res.value == pytest.approx(1.0, rel=1e-12)


# --------------------------------------------------------------------------
# why a pass stopped, and how deep it went


def test_reason_geometric():
    res = integrate_to_zero(lambda s: np.asarray(s, dtype=float) ** -0.5, 1.0)
    assert (res.reason, res.diverged) == ("geometric", False)
    # geometric at the first check, then SETTLE_LEVELS more
    assert res.levels == MIN_LEVELS + SETTLE_LEVELS
    assert res.value == pytest.approx(2.0, rel=1e-12)


def test_reason_depth_cap():
    # 1/s: every panel is ln 2, so the window never decays
    res = integrate_to_zero(lambda s: 1.0 / np.asarray(s), 1.0)
    assert (res.reason, res.diverged) == ("depth_cap", True)
    assert res.levels == MIN_LEVELS + MAX_EXTRA_LEVELS


def test_reason_growing():
    # outward, 1/s does not decay either, but no depth cap is involved
    res = integrate_outward(lambda s: 1.0 / np.asarray(s), 1.0)
    assert (res.reason, res.diverged) == ("growing", True)
    assert res.levels == OUTWARD_MAX_LEVELS


def test_reason_negligible():
    res = integrate_to_zero(lambda s: np.zeros_like(np.asarray(s, float)), 1.0)
    assert (res.reason, res.diverged, res.value) == ("negligible", False, 0.0)
    assert res.levels == MIN_LEVELS


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
def test_outward_nonfinite_sum_diverges(value):
    # as inward: a non-finite running sum ends the pass, at the first check
    # (three panels) or at the first panel after that where it turns up
    res = integrate_outward(lambda s: np.full_like(np.asarray(s, float), value), 1.0)
    assert (res.value, res.error, res.diverged, res.reason, res.levels) == (
        INF, 0.0, True, "nonfinite", 3)
    late = integrate_outward(
        lambda s: np.where(np.asarray(s) < 8.0, np.exp(-np.asarray(s, float)), value), 1.0)
    assert (late.value, late.diverged, late.reason, late.levels) == (INF, True, "nonfinite", 4)
    assert outward_diverges(np.full(OUTWARD_MAX_LEVELS, value))


def test_reason_nonfinite():
    res = integrate_to_zero(
        lambda s: np.full_like(np.asarray(s, float), np.inf), 1.0)
    assert (res.reason, res.diverged, res.value) == ("nonfinite", True, INF)
    assert res.levels == MIN_LEVELS


def test_radius_grid_reads_shared_panels_once(monkeypatch):
    panels = []  # every (a, b) passed to gauss_panel, one per panel
    orig = quadrature.gauss_panel

    def counted(h, a, b):
        panels.extend(zip(np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
        return orig(h, a, b)

    monkeypatch.setattr(quadrature, "gauss_panel", counted)
    h = lambda s: np.asarray(s, dtype=float) ** -0.5
    for grid in ([0.5, 0.25, 0.125], [0.3, 0.2, 0.15]):
        panels.clear()
        singles = [integrate_to_zero(h, r) for r in grid]
        n_single = len(panels)
        panels.clear()
        sweep = integrate_to_zero(h, np.array(grid))
        assert sweep == singles  # bit for bit, reasons and levels included
        assert len(panels) == len(set(panels))  # no panel evaluated twice
        assert len(panels) < n_single
    assert not sweep.diverged
    assert integrate_to_zero(lambda s: 1.0 / np.asarray(s), [1.0, 0.5]).diverged


def _integrand(g, m):
    """s -> (g(s) m(s), relative error of m's values): one pass's integrand."""
    def h(s):
        vals, gap = quadrature.split_error(m(s))
        return np.asarray(g(s)) * np.asarray(vals), gap
    return h


def _tail_window(panels):
    """The stopping rule's verdict on the last five panels, one pass at a
    time: "nonfinite", "negligible", "geometric" or "growing", and the
    window's ratios."""
    total = sum(panels)
    if not math.isfinite(total):
        return "nonfinite", []
    tail = panels[-5:]
    if total <= 0.0 or max(tail) <= 1e-300 * max(total, 1.0):
        return "negligible", []
    ratios = [b / a if a > 0 else 0.0 for a, b in zip(tail, tail[1:])]
    if all(r <= GEOMETRIC_RATIO_MAX for r in ratios):
        return "geometric", ratios
    return "growing", ratios


def _analyze_panels(panels):
    """The result of one pass from its panels, one pass at a time."""
    state, ratios = _tail_window(panels)
    n = len(panels)
    if state == "nonfinite":
        return FunctionalEstimate(value=INF, error=0.0, diverged=True, reason=state, levels=n,
                                  log_slope=INF)
    total = sum(panels)
    if state == "negligible":
        return FunctionalEstimate(value=total, error=1e-16 * abs(total), reason=state, levels=n)
    if state == "geometric":
        rho = ratios[-1] if ratios else 0.0
        geo_tail = panels[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
        return FunctionalEstimate(value=total + geo_tail, error=0.5 * geo_tail + 1e-14 * total,
                                  reason=state, levels=n)
    slope = float(np.mean(panels[-4:])) / math.log(2.0)
    return FunctionalEstimate(value=INF, error=0.0, diverged=True, reason=state, levels=n,
                              log_slope=slope)


def _sequential_to_zero(h, r):
    """integrate_to_zero's stopping rule on one radius, one scalar gauss_panel
    call per panel: the reference for the batched rounds."""
    panels, gaps, j, settle = [], [], 0, -1
    while True:
        value, gap = quadrature.split_error(
            gauss_panel(h, r * 2.0 ** -(j + 1), r * 2.0 ** -j))
        panels.append(value)
        gaps.append(gap)
        j += 1
        if settle > 0:
            settle -= 1
            continue
        if settle == 0:
            break
        if j < MIN_LEVELS:
            continue
        state, _ = _tail_window(panels)
        if state in ("nonfinite", "negligible"):
            break
        if state == "geometric":
            settle = SETTLE_LEVELS - 1
        elif j >= MIN_LEVELS + MAX_EXTRA_LEVELS:
            break
    res = _analyze_panels(panels)
    if res.reason == "growing" and j >= MIN_LEVELS + MAX_EXTRA_LEVELS:
        res.reason = "depth_cap"
    if not res.diverged:
        res.error += max([0.0] + gaps) * abs(res.value)
    return res


def _crossover(s):
    s = np.asarray(s, dtype=float)
    return np.where(s > 1e-4, (s / 1e-4) ** -3.0, (s / 1e-4) ** 0.5)


@pytest.mark.parametrize("h,reason", [
    (lambda s: np.asarray(s, dtype=float) ** -0.5, "geometric"),
    (lambda s: 1.0 / np.asarray(s), "depth_cap"),
    (lambda s: np.zeros_like(np.asarray(s, float)), "negligible"),
    (lambda s: np.full_like(np.asarray(s, float), np.inf), "nonfinite"),
    (lambda s: np.asarray(s, dtype=float) ** (-1.0 + 0.05), "geometric"),
    (_crossover, "geometric"),  # grows over several rounds, then settles
], ids=["s^-0.5", "s^-1", "zeros", "inf", "s^-0.95", "crossover"])
def test_rounds_equal_the_sequential_rule(h, reason):
    for grid in ([0.5, 0.25, 0.125], [0.3, 0.2, 0.15]):
        ref = [_sequential_to_zero(h, r) for r in grid]
        assert integrate_to_zero(h, np.array(grid)) == ref  # bit for bit
        assert [integrate_to_zero(h, r) for r in grid] == ref
    assert {res.reason for res in ref} == {reason}


def test_rounds_equal_the_sequential_rule_on_a_density():
    # the density-offcenter bump seen from one of its centers: every panel
    # chooses its angular order on its own, so f is called as often as with
    # one call per panel
    x0 = np.array([0.8, 0.0, 0.0])
    calls = [0]

    def bump(y):
        calls[0] += 1
        d = np.asarray(y, dtype=float) - x0
        return math.exp(-float(d @ d))

    mu = Density(bump, dim=3)
    center = x0 + 0.8 * np.ones(3) / math.sqrt(3.0)
    g = lambda s: np.asarray(s, dtype=float) ** -1.5
    ref = _sequential_to_zero(_integrand(g, mu.radial_mass_density(center)), 0.5)
    n_ref, calls[0] = calls[0], 0
    got = integrate_to_zero(_integrand(g, mu.radial_mass_density(center)), 0.5)
    assert got == ref and got.error > 0.0
    assert calls[0] == n_ref


# --------------------------------------------------------------------------
# the engine: kernels x centers x radii in one dyadic_passes run


def _sequential_outward(h, r0):
    """integrate_outward's rule on one pass, one scalar gauss_panel call per
    panel: the reference for the outward passes of the engine."""
    panels, acc, angular = [], 0.0, 0.0
    for k in range(OUTWARD_MAX_LEVELS):
        p, gap = quadrature.split_error(
            gauss_panel(h, r0 * 2.0**k, r0 * 2.0 ** (k + 1)))
        panels.append(p)
        acc += p
        angular += gap * abs(p)
        if k >= 2 and not math.isfinite(acc):
            return _analyze_panels(panels)
        small = OUTWARD_REL_TOL * max(acc, 1e-300)
        if k >= 2 and p <= small and panels[k - 1] <= small:
            return FunctionalEstimate(value=acc, error=p + angular, reason="negligible", levels=k + 1)
    res = _analyze_panels(panels)
    if not res.diverged:
        res.error += angular
    return res


def _rows_once(m):
    """m evaluated once per distinct argument, so that the references below
    read a Density's angular means at the cost of one engine run."""
    seen = {}

    def served(s):
        key = np.shape(s), np.asarray(s).tobytes()
        if key not in seen:
            seen[key] = m(s)
        return seen[key]

    return served


ENGINE_KERNELS = [
    lambda s: np.asarray(s, dtype=float) ** -0.5,
    lambda s: 1.0 / np.asarray(s),
    lambda s: np.zeros_like(np.asarray(s, float)),
    lambda s: np.full_like(np.asarray(s, float), np.inf),
    _crossover,
    lambda s: np.exp(-np.asarray(s, dtype=float) ** 2),
]


@pytest.mark.parametrize("grid", [[0.5, 0.25, 0.125], [0.3, 0.2, 0.15]],
                         ids=["dyadic", "non-dyadic"])
def test_engine_batch_equals_sequential_passes(grid, monkeypatch):
    # a 2-d Density seen from an off-center point states a relative angular
    # gap per panel row, which must reach the bar of every undiverged pass;
    # with three densities a round's new panels cross a PANEL_BLOCK boundary
    # and the round evaluates rows of several kernels and densities, each
    # kernel and density in one call
    mu = Density(lambda y: math.exp(-float(y @ y) - 0.5 * y[0]), dim=2)
    ms = [lambda s: np.ones_like(np.asarray(s, float)),
          mu.radial_mass_density(np.array([0.2, -0.1])),
          RadialDensity(power_profile(-1.0), dim=2).radial_view(np.array([0.3, 0.0]))[1]]
    gs = ENGINE_KERNELS
    spec = [(k, c, r, False) for k in range(len(gs)) for c in range(len(ms))
            for r in grid]
    spec += [(k, c, r, True) for k in range(len(gs)) for c in range(len(ms))
             for r in grid[1:]]
    k, c, r, outward = map(np.array, zip(*spec))
    rounds = []  # per round: the panels of each gauss_panel call, and the kernel and density calls
    orig, fetch = quadrature.gauss_panel, quadrature._Panels.fetch

    def counted(h, a, b):
        rounds[-1][0].append(np.size(a))
        return orig(h, a, b)

    def traced(fns, side):
        return [lambda s, i=i, f=f: (rounds[-1][side].append(i), f(s))[1] for i, f in enumerate(fns)]

    monkeypatch.setattr(quadrature, "gauss_panel", counted)
    monkeypatch.setattr(quadrature._Panels, "fetch",
                        lambda *args: (rounds.append(([], [], [])), fetch(*args))[1])
    got = dyadic_passes(traced(gs, 1), traced(ms, 2), k, c, r, outward, np.full(len(r), -1), True)
    monkeypatch.undo()
    assert got["ran"].all()
    assert max(n for blocks, _, _ in rounds for n in blocks) == PANEL_BLOCK
    assert any(len(set(ks)) > 1 and len(set(cs)) > 1 and len(blocks) > 1
               for blocks, ks, cs in rounds)
    assert all(len(set(ks)) == len(ks) and len(set(cs)) == len(cs) for _, ks, cs in rounds)
    memo = [_rows_once(m) for m in ms]
    want = [(_sequential_outward if out else _sequential_to_zero)(
        _integrand(gs[kk], memo[cc]), rr) for kk, cc, rr, out in spec]
    # bit for bit, reasons and levels included (repr: a nan bar equals itself)
    assert repr(quadrature._results(got)) == repr(want)
    assert {res.reason for res in want} == set(REASONS)
    # the same passes with the Density's values but no stated gap
    plain = dyadic_passes(gs, [ms[0], lambda s: memo[1](s)[0], ms[2]], k, c, r, outward,
                          np.full(len(r), -1), True)
    gapped = (c == 1) & ~got["diverged"] & (got["value"] > 0) & np.isfinite(got["value"])
    assert gapped.sum() >= 10
    assert np.array_equal(plain["value"][gapped], got["value"][gapped])
    assert (got["error"][gapped] > plain["error"][gapped]).all()
    assert repr(plain[c != 1].tolist()) == repr(got[c != 1].tolist())


def test_engine_starts_a_pass_after_its_prior_pass_converged():
    # pass 1 waits for pass 0 (converges), pass 3 for pass 2 (diverges),
    # pass 4 for pass 3 (never runs)
    gs = [lambda s: np.asarray(s, dtype=float) ** -0.5, lambda s: 1.0 / np.asarray(s)]
    ms = [lambda s: np.ones_like(np.asarray(s, float))]
    got = dyadic_passes(gs, ms, [0, 0, 1, 1, 0], [0] * 5, [1.0, 0.5, 1.0, 0.5, 0.5],
                        [False] * 5, [-1, 0, -1, 2, 3], True)
    assert got["ran"].tolist() == [True, True, True, False, False]
    assert quadrature._results(got)[1] == integrate_to_zero(gs[0], 0.5)


@pytest.mark.parametrize("ahead,want", [(True, [[0], [0, 1], [1]]), (False, [[0], [0], [1], [1]])])
def test_a_waiting_pass_starts_once_its_prior_pass_settles(ahead, want, monkeypatch):
    # pass 1 waits for pass 0, whose first window is geometric: where panels
    # are read ahead it starts in round 2, beside pass 0's settle levels,
    # else once pass 0 has ended; either way its record is the one it reads alone
    g = lambda s: np.asarray(s, dtype=float) ** -0.5
    ms = [lambda s: np.ones_like(np.asarray(s, float))]
    rounds, fetch = [], quadrature._Panels.fetch  # the passes each round runs
    monkeypatch.setattr(quadrature._Panels, "fetch",
                        lambda *args: (rounds.append(args[1].tolist()), fetch(*args))[1])
    got = dyadic_passes([g], ms, [0, 0], [0, 0], [1.0, 0.5], [False] * 2, [-1, 0], ahead)
    assert rounds == want and got["ran"].all()
    assert quadrature._results(got)[1] == integrate_to_zero(g, 0.5)


@pytest.mark.parametrize("h", [
    lambda s: np.exp(-np.asarray(s, dtype=float) ** 2),
    lambda s: np.asarray(s, dtype=float) ** -1.5,
    lambda s: 1.0 / np.asarray(s),
    lambda s: np.zeros_like(np.asarray(s, float)),
    lambda s: np.full_like(np.asarray(s, float), np.inf),
    lambda s: np.where(np.asarray(s) < 1e3, 1.0, 1.0 / np.asarray(s)),
], ids=["gauss", "s^-1.5", "s^-1", "zeros", "inf", "flat-then-1/s"])
def test_outward_verdict_from_all_panels_equals_integrate_outward(h):
    edges = 2.0 ** np.arange(OUTWARD_MAX_LEVELS + 1)
    panels = gauss_panel(h, edges[:-1], edges[1:])
    assert outward_diverges(panels) == integrate_outward(h, 1.0).diverged


def test_jobs_sum_point_mass_atoms_exactly():
    atoms = [((0.0, 0.0), 2.0), ((0.3, 0.0), 1.0), ((0.0, 1.5), 0.5)]
    mu = PointMasses(atoms)
    def g(s):
        with np.errstate(divide="ignore"):
            return np.asarray(s, dtype=float) ** -1.5

    centers = [np.array([0.1, 0.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0])]
    radii = [1.0, 0.5, 0.25]
    balls, whole, led = integrate_jobs(
        mu, centers, [(g, radii, False), (g, None, False), (g, radii, True)])
    assert balls.shape == led.shape == (3, 3) and whole.shape == (3, 1)
    for c, x in enumerate(centers):
        ds = [float(np.linalg.norm(np.array(p) - x)) for p, _ in atoms]
        for rk, est, lead in zip(radii + [INF], [*balls[c], *whole[c]], [*led[c], None]):
            want = sum(w * (INF if d == 0 else d ** -1.5)
                       for d, (_, w) in zip(ds, atoms) if d <= rk)
            assert est["diverged"] == math.isinf(want)
            assert float(est["value"]) == pytest.approx(want, rel=1e-15)
            assert (est["reason"], est["levels"]) == (NO_PASS, 0)  # no diffuse mass
            if lead is not None:
                assert lead.tolist() == est.tolist()
    # led by a center on an atom, the other centers are not integrated
    led = integrate_jobs(mu, centers[1:], [(g, radii, True)])[0]
    assert led[0]["diverged"].all() and not led[1]["ran"].any()


def _rounds(monkeypatch) -> list:
    """Per engine round, the step of each pass it fetches (-1 inward, 1 outward)."""
    rounds, fetch = [], quadrature._Panels.fetch
    monkeypatch.setattr(quadrature._Panels, "fetch", lambda self, t, *args: (
        rounds.append(self.step[t].tolist()), fetch(self, t, *args))[1])
    return rounds


def test_a_sup_whose_first_ball_diverges_ends_in_two_rounds(monkeypatch):
    # the sphere at p = 2.5: G^p ~ s^-2.5 against the chord density ~ s seen
    # from a first center on the sphere; its window grows, then reads every
    # level to the depth cap at once, and no later center starts
    sphere = SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)
    centers = sphere.support_points(3, np.random.default_rng(5)) + [np.array([0.3, 0.5, 0.0])]
    rounds = _rounds(monkeypatch)
    grid = 2.0 ** -np.arange(2, 8)
    got = kato_functional(sphere, GreenKernelSpec(nu=3.0, beta=2.0), 2.5, grid, centers=centers)
    assert all(est.diverged and est.reason == "depth_cap" for est in got)
    assert rounds == [[-1] * len(grid)] * 2


def test_the_outward_pass_starts_in_its_balls_first_round(monkeypatch):
    rounds = _rounds(monkeypatch)
    got = integrate_global(lebesgue(3), np.zeros(3), lambda s: np.exp(-np.asarray(s, float) ** 2))
    assert got.value == pytest.approx(math.pi ** 1.5, rel=1e-12)
    assert sorted(rounds[0]) == [-1, 1]


def test_reading_ahead_changes_the_rounds_not_the_records(monkeypatch):
    # a window that grows, then settles at 33 levels, and one that grows to
    # the depth cap: read ahead, both reach the cap in the second round
    gs = [lambda s: np.asarray(s, float) ** -3 * np.exp(-1e-6 / np.asarray(s, float)),
          lambda s: np.asarray(s, float) ** -2.5]
    ms = [lambda s: np.asarray(s, float)]
    levels, fetch = [], quadrature._Panels.fetch
    monkeypatch.setattr(quadrature._Panels, "fetch", lambda self, t, first, got: (
        levels[-1].append(got.tolist()), fetch(self, t, first, got))[1])
    got = []
    for ahead in (False, True):
        levels.append([])
        got.append(dyadic_passes(gs, ms, [0, 1], [0, 0], [1.0, 1.0], [False, False], [-1, -1],
                                 ahead).tolist())
    assert got[0] == got[1]
    cap = MIN_LEVELS + MAX_EXTRA_LEVELS
    assert [rec[3:5] for rec in got[0]] == [(GEOMETRIC, 33), (DEPTH_CAP, cap)]
    assert levels[0] == [[16, 16], [24, 24], [33, 32], [40], [48]]
    assert levels[1] == [[16, 16], [48, 48], [48]]


def test_the_zero_records_are_the_engines_on_zero_panels():
    zero = lambda s: np.zeros_like(np.asarray(s, float))
    got = dyadic_passes([lambda s: 1.0 / np.asarray(s)], [zero], [0, 0], [0, 0], [0.5, 1.0],
                        [False, True], [-1, -1], True)
    assert got.tolist() == [ZERO_INWARD, ZERO_OUTWARD]


def _nan_outside(s):
    """sqrt(1 - s^2): NaN beyond the unit support."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(1.0 - np.asarray(s, float) ** 2)


def _traced_density(mu, monkeypatch) -> list:
    """The distances each radial mass density of mu (as the engine reads it,
    from radial_view) is called at, per call."""
    seen, view = [], mu.radial_view

    def traced(x):
        atoms, m, support = view(x)
        return atoms, None if m is None else lambda s: (seen.append(np.asarray(s)), m(s))[1], support

    monkeypatch.setattr(mu, "radial_view", traced)
    return seen


def test_a_sphere_seen_from_afar_reads_no_density_inside_its_gap(monkeypatch):
    # seen from distance 3 the unit sphere has mass at distances [2, 4] only:
    # the balls of radius <= 2 are not run and read the all-zero record
    sphere = SphereSurface(np.zeros(3), 1.0, 2.0)
    x = np.array([0.0, 3.0, 0.0])
    assert sphere.radial_view(x)[2] == (2.0, 4.0)
    seen = _traced_density(sphere, monkeypatch)
    g = lambda s: np.asarray(s, dtype=float) ** -1.5
    got = integrate_jobs(sphere, [x], [(g, [2.0, 1.0, 0.5], False)])[0][0]
    assert seen == []
    assert got.tolist() == [ZERO_INWARD] * 3
    assert [est.levels for est in integrate_over_ball(sphere, x, [2.0, 1.0], g)] == [MIN_LEVELS] * 2


@pytest.mark.parametrize("mu,x,skips", [
    (SphereSurface(np.zeros(3), 1.0, 2.0), [0.0, 3.0, 0.0], True),
    (SphereSurface(np.zeros(3), 0.25, 1.0), [0.5, 0.0, 0.0], True),
    (RadialDensity(power_profile(-1.0), dim=3, support_radius=1.0), [0.0, 0.0, 0.0], True),
    (RadialDensity(power_profile(-1.0), dim=3, origin=[0.1, 0, 0], support_radius=0.3),
     [1.9, 0.0, 0.0], True),
    (RadialDensity(_nan_outside, dim=2, support_radius=1.0), [0.0, 2.5], True),
    (Density(lambda y: 1.0 + y[0], dim=2, support_radius=0.5), [0.0, 1.75], True),
    (AhlforsAbstract(eta=1.5, c_lower=1.0, c_upper=2.0, r0=0.5, dim=1), [0.0], True),
    (lebesgue(3), [0.3, -0.2, 0.5], False),
    (PointMasses([([0.3, 0.0], 1.0), ([0.0, 2.5], 2.0)]), [0.0, 0.0], False),
], ids=["sphere-far", "sphere-inside-split", "radial-origin", "radial-far", "radial-nan-outside",
        "density-far", "ahlfors", "lebesgue", "point-masses"])
def test_passes_outside_the_radial_support_keep_their_records(mu, x, skips, monkeypatch):
    # the view the engine skips passes on: atoms as two arrays of one
    # length, 0 <= lo <= hi, and a density (where stated) of exactly 0.0 at
    # every s < lo and s > hi; where skips, some pass of the grid lies
    # outside the support
    x, grid = np.asarray(x, float), [2.0, 1.5, 1.0, 0.75, 0.5, 0.125]
    (ds, ws), m, (lo, hi) = mu.radial_view(x)
    assert ds.shape == ws.shape == (len(ds),) and 0.0 <= lo <= hi
    assert (lo >= grid[-1] or hi <= R_SPLIT) == skips
    outside = np.concatenate([lo * np.array([1e-3, 0.5, 0.999]),
                              hi * np.array([1.001, 1.5, 4.0])])
    outside = outside[(outside > 0.0) & (outside < INF)]
    if m is not None and len(outside):
        values = m(outside)
        assert np.all((values[0] if isinstance(values, tuple) else values) == 0.0)
    # every ball of a grid and the whole space, with the passes outside the
    # support skipped and with every pass run: the same records, bit for bit,
    # from fewer density rows where a pass lies outside, as many elsewhere
    g = lambda s: np.exp(-np.asarray(s, float)) / np.asarray(s, float)
    jobs = [(g, grid, False), (g, None, False)]
    seen = _traced_density(mu, monkeypatch)
    got = integrate_jobs(mu, [x], jobs)
    rows, seen[:] = sum(map(len, seen)), []
    traced = mu.radial_view
    monkeypatch.setattr(mu, "radial_view", lambda x: (*traced(x)[:2], (0.0, INF)))
    want = integrate_jobs(mu, [x], jobs)
    assert repr([rec.tolist() for rec in got]) == repr([rec.tolist() for rec in want])
    if skips:
        assert rows < sum(map(len, seen))
    else:
        assert rows == sum(map(len, seen))


def test_jobs_over_no_center_read_empty_tables():
    jobs = [(np.ones_like, [0.5, 0.25], True), (np.ones_like, None, False)]
    got = integrate_jobs(SphereSurface(np.zeros(3), 1.0, 1.0), [], jobs)
    assert [table.shape for table in got] == [(0, 2), (0, 1)]


def test_atom_sums_call_each_kernel_once_per_job():
    atoms = [((0.0,), 1.0), ((0.4,), 2.0), ((1.5,), 0.5), ((3.0,), 0.0)]
    mu = PointMasses(atoms)
    centers = [np.array([0.0]), np.array([0.3]), np.array([1.2]), np.array([2.5])]
    calls = []

    def g(s):
        calls.append(len(s))
        return np.exp(-np.asarray(s, float))

    jobs = [(g, [1.0, 0.5], True), (g, None, False), (g, [0.25], False)]
    got = integrate_jobs(mu, centers, jobs)
    assert len(calls) == len(jobs)
    for c, x in enumerate(centers):
        one = integrate_jobs(mu, [x], [(g, rs, False) for g, rs, _ in jobs])
        assert [rec[c].tolist() for rec in got] == [rec[0].tolist() for rec in one]


@pytest.mark.parametrize("r,calls", [(0.5, 269_568), (0.25, 209_920),
                                     (0.125, 193_536)])
def test_density_offcenter_calls_f_as_often_as_one_pass_per_center(r, calls):
    # the density-offcenter geometry: a bump seen from four tetrahedral centers
    x0 = np.array([0.8, 0.0, 0.0])
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]])
    centers = [x0 + 0.8 * u / math.sqrt(3.0) for u in tetra]
    count = [0]

    def bump(y):
        count[0] += 1
        d = np.asarray(y, dtype=float) - x0
        return math.exp(-float(d @ d))

    kato_functional(Density(bump, dim=3), GreenKernelSpec(nu=3.0, beta=2.0), 1.5,
                    r, centers=centers)
    assert count[0] == calls


@pytest.mark.parametrize("model,p,calls", [
    (GaussianKernelModel(3), 1.5, 529_472),  # every pass converges
    (GaussianKernelModel(3), 3.0, 208_256),  # balls diverge: no outward pass runs
    (StableEstimateModel(3, 1.0), 1.0, 561_856),  # windows grow, then settle
], ids=["gauss-converges", "gauss-diverges", "stable-grows"])
def test_a_density_classify_evaluates_no_speculative_panel(model, p, calls):
    # every criterion of a classify of the off-center bump: a Density's
    # passes wait until they are needed and a growing window reads
    # GROWING_CHUNK levels a round, so f is called as often as when each
    # pass waited for every pass that could make it unneeded
    x0, count = np.array([0.8, 0.0, 0.0]), [0]

    def bump(y):
        count[0] += 1
        d = np.asarray(y, dtype=float) - x0
        return math.exp(-float(d @ d))

    cfg = ClassifyConfig(centers=CenterStrategy(n_support=2, n_random=1))
    classify_measure(Density(bump, dim=3), model, p, cfg)
    assert count[0] == calls


@pytest.mark.parametrize("mu", [
    Density(lambda y: 1.0, dim=2, support_radius=0.0),
    RadialDensity(power_profile(-1.0), dim=2, origin=[0.5, 0.0], support_radius=0.0),
], ids=["density", "radial-density"])
def test_a_support_of_radius_zero_integrates_to_zero(mu):
    g = lambda s: np.exp(-np.asarray(s, float))
    x = np.array([0.0, 0.3])
    assert mu.radial_view(x)[2] == (0.0, INF)
    got = [integrate_global(mu, x, g), *integrate_over_ball(mu, x, [1.0, 0.25], g)]
    assert [(est.value, est.diverged) for est in got] == [(0.0, False)] * 3


def test_gauss_panel_takes_edge_arrays():
    h = lambda s: np.asarray(s, dtype=float) ** -0.5
    a, b = np.array([0.25, 0.1, 1.0]), np.array([0.5, 0.3, 4.0])
    got = gauss_panel(h, a, b)
    assert got.shape == (3,)
    assert list(got) == [gauss_panel(h, ai, bi) for ai, bi in zip(a, b)]
    values, gaps = gauss_panel(lambda s: (h(s), np.full(len(s), 1e-9)), a, b)
    assert np.array_equal(values, got) and np.array_equal(gaps, [1e-9] * 3)
