"""Dyadic 1-d quadrature with divergence detection for singular integrands.

Integrands here are nonnegative radial profiles that may blow up at the
inner endpoint (s -> 0) or have heavy tails (s -> infinity).  Both cases
are handled the same way: integrate over dyadic panels and inspect whether
the panel contributions decay geometrically.  If the last few panels do
not decay, the integral is declared divergent and the sentinel +inf is
returned together with a flag and the observed growth rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

#: panel-to-panel ratio above which decay is no longer considered geometric
GEOMETRIC_RATIO_MAX = 0.97

#: integrate_to_zero's levels before the first tail-window check, the levels
#: it adds after the first geometric window, the further levels it may add
#: before it stops at the depth cap, and the most levels one round evaluates
#: for a radius whose window still grows
MIN_LEVELS = 16
SETTLE_LEVELS = 9
MAX_EXTRA_LEVELS = 32
GROWING_CHUNK = 8

#: integrate_outward stops once two panels in a row add at most this share
#: of the sum, or after this many panels
OUTWARD_REL_TOL = 1e-9
OUTWARD_MAX_LEVELS = 60

INF = float("inf")


@dataclass
class IntegralResult:
    """Outcome of a dyadic quadrature pass."""

    value: float
    quad_error: float
    diverged: bool
    #: why the pass stopped: "geometric", "negligible", "nonfinite",
    #: "growing" or "depth_cap"
    reason: str
    levels: int  # panels the pass used
    #: increment per unit of log(1/epsilon); meaningful only when diverged
    log_slope: float = 0.0


class RadiusSweep(list):
    """integrate_to_zero's results on a radius grid, one per radius; like a
    single result it is diverged when the integral diverges at any radius."""

    @property
    def diverged(self) -> bool:
        return any(res.diverged for res in self)


def gauss_panel(h: Callable, a, b):
    """32-node Gauss-Legendre rule on [a, b] for a vectorized integrand h; for
    arrays of edges, on every panel [a_i, b_i] from one call of h on an (n, 32)
    node array, one row per panel.  If h returns (values, relative error), as
    inexact values do, the rule returns (integrals, those errors)."""
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    out = h(half[..., None] * _GL_NODES + (0.5 * (np.asarray(a, dtype=float) + b))[..., None])
    y, gap = split_error(out)
    value = half * np.sum(_GL_WEIGHTS * np.asarray(y, dtype=float), axis=-1)
    value = value if np.ndim(value) else float(value)
    return (value, gap) if isinstance(out, tuple) else value


def split_error(out) -> tuple:
    """(values, relative error) of an output that may state no error."""
    return out if isinstance(out, tuple) else (out, 0.0)


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """One-sided three-point end slope, cut to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> Callable:
    """Monotone piecewise-cubic Hermite (PCHIP) interpolant of y over the
    strictly increasing x, held at its end values outside [x[0], x[-1]].

    Slopes, coefficients and the evaluation order are those of
    scipy.interpolate.PchipInterpolator, so on [x[0], x[-1]] the values
    agree with it bit for bit.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        d = np.array([m[0], m[0]])
    else:
        # Fritsch-Carlson: weighted harmonic mean of the neighbouring
        # secants, 0 where they change sign or one is flat
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.concatenate([[_pchip_end_slope(h[0], h[1], m[0], m[1])],
                            np.where(flat, 0.0, inner),
                            [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]])
    t = (d[:-1] + d[1:] - 2 * m) / h
    c3, c2, c1, c0 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    inner_knots = x[1:-1]

    def f(xv):
        xv = np.asarray(xv, dtype=float).clip(x[0], x[-1])
        # piece i covers [x[i], x[i+1]); the last one is closed at x[-1]
        i = inner_knots.searchsorted(xv, "right")
        s = xv - x[i]
        s2 = s * s
        return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return f


def _tail_window(panels: list[float]) -> tuple[str, list[float]]:
    """Verdict on the last five panels, ordered from the coarse end toward
    the limit under scrutiny (s -> 0 for inward passes, s -> inf for
    outward ones): "nonfinite", "negligible" (nothing left near the limit),
    "geometric" (every ratio in the window decays) or "growing".  Also
    returns the window's panel-to-panel ratios."""
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


def _analyze_panels(panels: list[float]) -> IntegralResult:
    """Classify a sequence of panel contributions as convergent or not."""
    state, ratios = _tail_window(panels)
    n = len(panels)
    if state == "nonfinite":
        return IntegralResult(INF, 0.0, True, state, n, INF)
    total = sum(panels)
    if state == "negligible":
        return IntegralResult(total, 1e-16 * abs(total), False, state, n)
    if state == "geometric":
        # the most recent ratio is the best estimate of the asymptotic rate
        rho = ratios[-1] if ratios else 0.0
        geo_tail = panels[-1] * rho / (1.0 - rho) if rho > 0 else 0.0
        return IntegralResult(total + geo_tail, 0.5 * geo_tail + 1e-14 * total,
                              False, state, n)
    slope = float(np.mean(panels[-4:])) / math.log(2.0)
    return IntegralResult(INF, 0.0, True, state, n, slope)


def integrate_to_zero(h: Callable, r) -> IntegralResult | RadiusSweep:
    """Integrate h over (0, r], resolving a possible singularity at 0, for
    one radius r or for each radius of a grid (then a RadiusSweep).

    The panels of r are [r 2^{-j-1}, r 2^{-j}] for j = 0, 1, ...; the panel
    sequence must decay geometrically for the integral to count as
    convergent, in which case the remaining inner tail is extrapolated
    geometrically.  The bar adds the largest relative error h states on any
    of the panels, times the value.  Every radius runs this stopping rule
    on its own panels, read from one store keyed by the panel edges: a
    panel that several radii share (on a dyadic grid the panels of r 2^-k
    are those of r from the k-th on) is evaluated once, and a radius gets
    the same panels, bit for bit, on any grid.  The radii advance in rounds,
    so h sees (n, 32) node arrays and must map each row as it would alone.

    Integrands with an interior boundary layer (kernel time/resolvent
    scales) first rise and then settle into their asymptotic decay; the
    sweep keeps deepening past MIN_LEVELS until the last-window verdict is
    unambiguous: either every recent ratio is geometric (converged) or none
    is (nothing decays toward 0: divergent).
    """
    out = _in_rounds(h, [_to_zero(float(rk)) for rk in np.atleast_1d(r)])
    return RadiusSweep(out) if np.ndim(r) else out[0]


def _in_rounds(h: Callable, passes: list) -> list:
    """Run the generator passes to their results in rounds: a pass yields the
    edges of the panels it reads next and is sent their (value, gap) pairs;
    one round evaluates all asked panels the store, keyed by edges, lacks."""
    store, results = {}, [None] * len(passes)
    asks = dict.fromkeys(range(len(passes)), ())  # a fresh pass is sent None
    while asks:
        new = list(dict.fromkeys(e for edges in asks.values() for e in edges
                                 if e not in store))
        if new:
            store.update(zip(new, _panels(h, new)))
        for i, edges in list(asks.items()):
            try:
                asks[i] = passes[i].send([store[e] for e in edges] or None)
            except StopIteration as done:
                results[i] = done.value
                del asks[i]
    return results


def _panels(h: Callable, edges: list) -> list:
    """(value, gap) of each panel (a, b) of edges, from one gauss_panel call."""
    values, gaps = split_error(gauss_panel(h, *np.array(edges).T))
    return list(zip(values.tolist(), np.broadcast_to(gaps, values.shape).tolist()))


def _to_zero(r: float):
    """integrate_to_zero's pass over (0, r], a generator for _in_rounds: it
    asks for the MIN_LEVELS levels, the SETTLE_LEVELS after a geometric
    window, or up to GROWING_CHUNK levels while the window grows."""
    if r <= 0:
        return IntegralResult(0.0, 0.0, False, "negligible", 0)
    cap = MIN_LEVELS + MAX_EXTRA_LEVELS
    fetched: list = []  # (value, gap) of levels 0, 1, ...
    stop, settling = MIN_LEVELS, False  # next decision after `stop` levels
    for j in range(cap + SETTLE_LEVELS):
        if j == len(fetched):
            end = stop if settling or j < MIN_LEVELS else min(j + GROWING_CHUNK, cap)
            fetched += yield [(r * 2.0 ** -(k + 1), r * 2.0 ** -k) for k in range(j, end)]
        if j + 1 < stop:
            continue
        if settling:
            break
        state, _ = _tail_window([value for value, _ in fetched[:stop]])
        if state in ("nonfinite", "negligible") or state == "growing" and stop >= cap:
            break
        # geometric: decay rate found; deepen a little more so the extrapolated
        # remainder is a small share of the total.  Growing: a growing window
        # can be a transient crossover layer, so deepen up to the depth cap
        settling = state == "geometric"
        stop += SETTLE_LEVELS if settling else 1
    panels, gaps = zip(*fetched[:stop])
    res = _analyze_panels(panels)
    if res.reason == "growing" and stop >= cap:
        res.reason = "depth_cap"
    if not res.diverged:
        res.quad_error += max((0.0,) + gaps) * abs(res.value)
    return res


def integrate_outward(h: Callable, r0: float) -> IntegralResult:
    """Integrate h over [r0, inf) by dyadic doubling with a decay check: it
    stops once two panels in a row add at most OUTWARD_REL_TOL of the sum.
    The bar adds each panel's stated relative error times the panel.  The
    three panels it always reads come from one call of h."""
    fetched = _panels(h, [(r0 * 2.0**k, r0 * 2.0 ** (k + 1)) for k in range(3)])
    acc = angular = 0.0
    for k in range(OUTWARD_MAX_LEVELS):
        if k == len(fetched):
            fetched += _panels(h, [(r0 * 2.0**k, r0 * 2.0 ** (k + 1))])
        p, gap = fetched[k]
        acc += p
        angular += gap * abs(p)
        small = OUTWARD_REL_TOL * max(acc, 1e-300)
        if k >= 2 and p <= small and fetched[k - 1][0] <= small:
            return IntegralResult(acc, p + angular, False, "negligible", k + 1)
    res = _analyze_panels([p for p, _ in fetched])
    if not res.diverged:
        res.quad_error += angular
    return res
