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
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np


def symmetric_rule(nodes, weights) -> tuple[np.ndarray, np.ndarray]:
    """A Gauss-Legendre rule on [-1, 1] from its positive nodes and their
    weights, mirrored: the rules below equal numpy's leggauss bit for bit
    (leggauss makes its rules exactly symmetric), with no solve at import."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


#: the 32-node rule, leggauss(32)
_GL_NODES, _GL_WEIGHTS = symmetric_rule(
    [0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
     0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
     0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
     0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816],
    [0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
     0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
     0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
     0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506])

#: panel-to-panel ratio above which decay is no longer considered geometric
GEOMETRIC_RATIO_MAX = 0.97

#: integrate_to_zero's levels before the first tail-window check, the levels
#: it adds after the first geometric window, the further levels it may add
#: before it stops at the depth cap, and the most levels one round evaluates
#: for a radius whose window still grows where no panel is read ahead
MIN_LEVELS = 16
SETTLE_LEVELS = 9
MAX_EXTRA_LEVELS = 32
GROWING_CHUNK = 8

#: integrate_outward stops once two panels in a row add at most this share
#: of the sum, or after this many panels
OUTWARD_REL_TOL = 1e-9
OUTWARD_MAX_LEVELS = 60

INF = float("inf")

#: the most raw rows a KernelRows keeps (32 floats each: 4 MiB); a store
#: that would grow past it is emptied first
KERNEL_ROW_CAP = 1 << 14


@dataclass
class FunctionalEstimate:
    """A numerical integral value with an error bar and divergence flag."""

    value: float
    error: float = 0.0
    stat_error: float = 0.0
    diverged: bool = False
    #: increment per unit of log(1/epsilon); meaningful only when diverged
    log_slope: float = 0.0
    n_centers: int = 0
    argmax_center: object = None
    #: why the deciding quadrature pass stopped: "geometric", "negligible",
    #: "nonfinite", "growing" or "depth_cap"
    reason: str = ""
    levels: int = 0  # panels it used

    def __float__(self) -> float:
        return INF if self.diverged else float(self.value)


class RadiusSweep(list):
    """integrate_to_zero's results on a radius grid, one per radius; like a
    single result it is diverged when the integral diverges at any radius."""

    @property
    def diverged(self) -> bool:
        return any(res.diverged for res in self)


@dataclass(frozen=True)
class ParamPower:
    """s -> family(param)(s) ** p, family a model's or a measure's family,
    such as qt_radial or RadialDensity.off_origin.  family must also take a
    column of params that broadcasts against an (n, 32) node array, row i as
    family(param_i) would give it: dyadic_passes then evaluates the rows of
    every ParamPower of one (family, p) with one call."""

    family: Callable
    param: float
    p: float

    def __call__(self, s):
        return np.asarray(self.family(self.param)(s)) ** self.p


def call_key(f) -> object:
    """Integrands whose rows one call evaluates share this key: a
    ParamPower's (family, p), another function's identity."""
    return (f.family, f.p) if isinstance(f, ParamPower) else id(f)


def call_rows(f, params: np.ndarray, nodes: np.ndarray, b: np.ndarray) -> tuple:
    """(values, stated relative error) on the rows of nodes, panel i's nodes
    on [b[i]/2, b[i]], from one call, for integrands of f's call_key: row i of
    a ParamPower's at params[i], its raw row read from the KernelRows of the
    model or measure whose method family is, where it has one."""
    if isinstance(f, ParamPower):
        rows = getattr(getattr(f.family, "__self__", None), "kernel_rows", None)
        raw = rows(f.family, params, b) if rows is not None else f.family(params[:, None])(nodes)
        return np.asarray(raw) ** f.p, 0.0
    return split_error(f(nodes))


def panel_nodes(a, b) -> np.ndarray:
    """The nodes of the 32-node rule on [a, b], a row per panel for arrays of edges."""
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    return half[..., None] * _GL_NODES + (0.5 * (np.asarray(a, dtype=float) + b))[..., None]


class KernelRows:
    """The raw rows family(param)(panel_nodes(b/2, b)) of a model's or a
    measure's families (of its ParamPowers: qt_radial and resolvent_radial,
    RadialDensity's at_origin and off_origin) that the engine has read, by
    (family name, param, b).  It is the one place where equal rows are
    shared: only the power of a row changes with p, so a p-sweep on one
    model or measure, and every ParamPower of one (family, param) in one
    run, evaluates each panel's row once.  A row is what family(param) gives
    alone (the ParamPower contract), so a stored row equals a fresh one bit
    for bit, as long as its owner is not changed after its first use.  At
    most KERNEL_ROW_CAP rows; a call may be made from several threads."""

    _NONE = np.zeros(0, complex), np.zeros(0, int)  # a family's keys and rows before any

    def __init__(self):
        # per family name, its keys param + i b in sorted order (complex
        # numbers sort by real part, then imaginary) and each key's row of _buf
        self._keys: dict = {}
        self._buf = np.empty((0, len(_GL_NODES)))
        self._used = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self._used

    def __call__(self, family: Callable, params: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row i: family(params[i]) on the panel [b[i]/2, b[i]].  The distinct
        keys not stored are evaluated in one family call and stored."""
        q = params.astype(complex)
        q.imag = b
        with self._lock:
            keys, at = self._keys.get(family.__name__, self._NONE)
            pos = keys.searchsorted(q)
            hit = keys.take(pos, mode="clip") == q if len(keys) else np.zeros(len(q), bool)
            if hit.all():
                return self._buf[at[pos]]
            new, inv = np.unique(q[~hit], return_inverse=True)
            rows = np.asarray(family(new.real[:, None])(panel_nodes(0.5 * new.imag, new.imag)),
                              dtype=float)
            out = np.empty((len(q), rows.shape[1]))
            out[hit], out[~hit] = self._buf[at[pos[hit]]], rows[inv]
            self._keep(family.__name__, new, rows)
            return out

    def _keep(self, name: str, new: np.ndarray, rows: np.ndarray) -> None:
        if self._used + len(new) > KERNEL_ROW_CAP:
            self._keys, self._used = {}, 0
        end = self._used + len(new)
        if end > KERNEL_ROW_CAP:  # more than a store holds: served, not kept
            return
        if end > len(self._buf):
            grown = np.empty((min(max(end, 2 * len(self._buf)), KERNEL_ROW_CAP), rows.shape[1]))
            grown[:self._used] = self._buf[:self._used]
            self._buf = grown
        self._buf[self._used:end] = rows
        keys, at = self._keys.get(name, self._NONE)
        keys = np.concatenate([keys, new])
        order = keys.argsort(kind="stable")
        self._keys[name] = keys[order], np.append(at, np.arange(self._used, end))[order]
        self._used = end


def gauss_panel(h, a, b):
    """32-node Gauss-Legendre rule on [a, b] for a vectorized integrand h; for
    arrays of edges, on every panel [a_i, b_i] from one call of h on an (n, 32)
    node array, one row per panel.  If h returns (values, relative error), as
    inexact values do, the rule returns (integrals, those errors).  h may also
    be that output itself, the values already on the nodes."""
    half = 0.5 * (np.asarray(b, dtype=float) - a)
    out = h(panel_nodes(a, b)) if callable(h) else h
    y, gap = split_error(out)
    value = half * np.sum(_GL_WEIGHTS * np.asarray(y, dtype=float), axis=-1)
    value = value if np.ndim(value) else float(value)
    return (value, gap) if isinstance(out, tuple) else value


def split_error(out) -> tuple:
    """(values, relative error) of an output that may state no error."""
    return out if isinstance(out, tuple) else (out, 0.0)


REASONS = ("geometric", "negligible", "nonfinite", "growing", "depth_cap")
GEOMETRIC, NEGLIGIBLE, NONFINITE, GROWING, DEPTH_CAP = range(len(REASONS))
NO_PASS = len(REASONS)  # the reason of a record that no pass decided: ""

PANEL_BLOCK = 256  # the most panels (rows of 32 nodes) per gauss_panel call

_WAIT, _RUN, _DONE = range(3)  # pass status in dyadic_passes

#: dyadic_passes' result per pass: FunctionalEstimate's quadrature fields
#: (reason as an index into REASONS, NO_PASS for none), and whether it ran
#: (its `after` pass converged, or settled first)
PASS = np.dtype([("value", float), ("error", float), ("diverged", bool),
                 ("reason", int), ("levels", int), ("log_slope", float), ("ran", bool)])
_NAMES = REASONS + ("",)
#: the records the stopping rule gives a pass whose panels are all 0.0, at
#: its first window (inward) or its first three panels (outward)
ZERO_INWARD = (0.0, 0.0, False, NEGLIGIBLE, MIN_LEVELS, 0.0, True)
ZERO_OUTWARD = (0.0, 0.0, False, NEGLIGIBLE, 3, 0.0, True)


def estimate(record: tuple, n_centers: int, center) -> FunctionalEstimate:
    """The FunctionalEstimate of one PASS record (a tuple, as tolist gives),
    the sup of n_centers centers at center (0 and None for no sup)."""
    v, e, d, k, n, s, _ = record
    # fields by position: keywords would double its cost
    return FunctionalEstimate(v, e, 0.0, d, s, n_centers, center, _NAMES[k], n)


def _results(out: np.ndarray) -> list[FunctionalEstimate]:
    return [estimate(rec, 0, None) for rec in out.tolist()]


def integrate_to_zero(h: Callable, r) -> FunctionalEstimate | RadiusSweep:
    """Integrate h over (0, r], resolving a possible singularity at 0, for
    one radius r or for each radius of a grid (then a RadiusSweep), as
    dyadic_passes of the one integrand h: h sees (n, 32) node arrays and
    must map each row as it would alone.

    The panels of r are [r 2^{-j-1}, r 2^{-j}] for j = 0, 1, ...; the panel
    sequence must decay geometrically for the integral to count as
    convergent, and the remaining inner tail is then extrapolated.  The bar
    adds the largest relative error h states on a panel, times the value.
    An integrand with an interior boundary layer (kernel time/resolvent
    scales) first rises and then decays: the sweep deepens past MIN_LEVELS
    until every recent ratio is geometric (converged) or none is (divergent).
    """
    radii = np.atleast_1d(np.asarray(r, dtype=float))
    zero = np.zeros(len(radii), int)
    out = _results(dyadic_passes([np.ones_like], [h], zero, zero, radii, zero > 0, zero - 1, True))
    return RadiusSweep(out) if np.ndim(r) else out[0]


def integrate_outward(h: Callable, r0: float) -> FunctionalEstimate:
    """Integrate h over [r0, inf) by dyadic doubling with a decay check: it
    stops once two panels in a row add at most OUTWARD_REL_TOL of a finite
    sum, and diverges ("nonfinite") at a sum that is not.  The bar adds each
    panel's stated relative error times the panel.  The three panels it
    always reads come from one call of h."""
    return _results(dyadic_passes([np.ones_like], [h], [0], [0], [r0], [True], [-1], True))[0]


def dyadic_passes(gs: list, ms: list, kernel, center, r, outward, after,
                  ahead: bool) -> np.ndarray:
    """Run many dyadic passes together, in rounds; one PASS record each.
    Pass i integrates gs[kernel[i]](s) * ms[center[i]](s) over (0, r[i]] by
    integrate_to_zero's rule or, where outward[i], over [r[i], inf) by
    integrate_outward's; where after[i] >= 0 it waits for pass after[i]: it
    starts once that one has ended undiverged or, where ahead, is settling
    (its first window was geometric), and never if that one diverged before
    (or never ran).

    A round asks each running pass for its next levels (the MIN_LEVELS, the
    SETTLE_LEVELS after a geometric window; while it grows, every level up to
    the depth cap where panels may be read ahead of a stop (ahead), else
    GROWING_CHUNK; outward three, then one), evaluates the panels no pass
    has read (_Panels) and runs the stopping rule on (pass, stop) arrays at
    every stop a pass has reached, so each pass ends exactly as it would
    alone: ahead changes the rounds a pass takes and the panels evaluated
    past its stop, not its record."""
    r, outward, after = np.asarray(r, float), np.asarray(outward, bool), np.asarray(after)
    n, cap = len(r), MIN_LEVELS + MAX_EXTRA_LEVELS
    grow = cap if ahead else GROWING_CHUNK
    panels = _Panels(gs, ms, np.asarray(kernel, int), np.asarray(center, int), r, outward)
    out = np.zeros(n, PASS)
    out["reason"] = NEGLIGIBLE
    status = np.where(after >= 0, _WAIT, _RUN)
    status[~outward & (r <= 0)] = _DONE  # an empty interval: 0, after no level
    got, stop, settling = np.zeros(n, int), np.full(n, MIN_LEVELS), np.zeros(n, bool)
    while True:
        wait = np.flatnonzero(status == _WAIT)  # start where `after` converged (or settles)
        prior = after[wait]
        ready = (status[prior] == _DONE) & ~out["diverged"][prior]
        status[wait[(ready | settling[prior]) if ahead else ready]] = _RUN
        if not len(run := np.flatnonzero(status == _RUN)):
            out["ran"] = status == _DONE
            return out
        first = got[run]
        got[run] = np.where(outward[run], np.where(first == 0, 3, first + 1),
                            np.where(settling[run] | (first < MIN_LEVELS),
                                     np.maximum(stop[run], first),  # no new level past a read stop
                                     np.minimum(first + grow, cap)))
        panels.fetch(run, first, got[run])
        o = run[outward[run]]
        if len(o):  # stop once the last two panels add <= OUTWARD_REL_TOL of the sum
            P, Q, C = panels.read(o, got[o])
            done, acc = _outward_stop(P, C, got[o])
            with np.errstate(invalid="ignore"):  # an inf panel of no stated error
                angular = np.cumsum(Q * np.abs(P), axis=1)[np.arange(len(o)), got[o]]
            d = o[done]
            out["value"][d], out["error"][d] = acc[done], P[done, got[d]] + angular[done]
            out["levels"][d], status[d] = got[d], _DONE  # reason: NEGLIGIBLE
            if (last := ~done & ((got[o] == OUTWARD_MAX_LEVELS) | ~np.isfinite(acc))).any():
                s = got[o[last]]
                _finish(out, status, o[last], s, _window(P[last], C[last], s), angular[last], False)
        t = run[~outward[run]]
        t = t[stop[t] <= got[t]]
        if len(t):  # a settling pass ends at its stop; another decides at each stop it reached
            P, Q, C = panels.read(t, got[t])
            ends = settling[t]
            s0, last = stop[t], np.where(ends, stop[t], np.minimum(got[t], cap))
            S = np.minimum(s0[:, None] + np.arange(int((last - s0).max(initial=0)) + 1),
                           last[:, None])
            window = _window(P, C, S)
            decides = (window[0] != GROWING) | (S >= cap) | ends[:, None]
            rows, pick = np.arange(len(S)), decides.argmax(axis=1)
            s, decided, *window = (w[rows, pick] for w in (S, decides, *window))  # at its stop
            settling[t] = geo = decided & (window[0] == GEOMETRIC) & ~ends
            stop[t] = np.where(geo, s + SETTLE_LEVELS, np.where(decided, s, last + 1))
            if (end := decided & ~geo).any():
                gap = np.where(np.arange(Q.shape[1]) <= s[end, None], Q[end], 0.0)
                _finish(out, status, t[end], s[end], [w[end] for w in window],
                        np.fmax.reduce(gap, axis=1), True)


def _outward_stop(P: np.ndarray, C: np.ndarray, k) -> tuple:
    """Whether integrate_outward stops converged at k >= 3 panels read (k one
    count or a row per pass, P and C as _Panels.read lays them out), and the sum."""
    rows = np.arange(len(P)).reshape((-1,) + (1,) * (np.ndim(k) - 1))
    acc = C[rows, k]
    small = OUTWARD_REL_TOL * np.maximum(acc, 1e-300)
    return (k >= 3) & np.isfinite(acc) & (P[rows, k] <= small) & (P[rows, k - 1] <= small), acc


def outward_diverges(panels: np.ndarray) -> bool:
    """Whether integrate_outward diverges, from all OUTWARD_MAX_LEVELS of its
    panels evaluated at once: the same test, level by level."""
    P, n = np.concatenate([[0.0], panels])[None], len(panels)
    C = np.cumsum(P, axis=1)
    if _outward_stop(P, C, np.arange(3, n + 1)[None])[0].any():
        return False
    return int(_window(P, C, np.array([n]))[0][0]) in (GROWING, NONFINITE)


def _window(P: np.ndarray, C: np.ndarray, s) -> tuple:
    """The verdict on the last five of the first s panels of a pass (s one
    stop or a row per pass, C the running sums), coarse end first: NONFINITE,
    NEGLIGIBLE (nothing left near the limit), GEOMETRIC (every ratio decays)
    or GROWING; and the sum, the window and its last ratio."""
    rows = np.arange(len(P)).reshape((-1,) + (1,) * (np.ndim(s) - 1))
    total = C[rows, s]
    tail = P[rows[..., None], s[..., None] + np.arange(-4, 1)]
    with np.errstate(invalid="ignore"):  # inf / inf
        ratios = np.divide(tail[..., 1:], tail[..., :-1],
                           out=np.zeros_like(tail[..., 1:]), where=tail[..., :-1] > 0)
    state = np.where((ratios <= GEOMETRIC_RATIO_MAX).all(axis=-1), GEOMETRIC, GROWING)
    state = np.where((total <= 0.0) | (tail.max(axis=-1) <= 1e-300 * np.maximum(total, 1.0)),
                     NEGLIGIBLE, state)
    return np.where(np.isfinite(total), state, NONFINITE), total, tail, ratios[..., -1]


def _finish(out: np.ndarray, status, t, s, window, bar, inward: bool) -> None:
    """End the passes t at their first s panels from their _window there: a
    geometric window extrapolates its tail, a growing ("depth_cap" inward at
    the cap) or non-finite one diverges.  The bar adds bar times the value (inward:
    the largest stated error) or bar (outward: each panel's error times it, summed)."""
    state, total, tail, rho = window
    geo, diverged = state == GEOMETRIC, (state == GROWING) | (state == NONFINITE)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        geo_tail = np.where(rho > 0, tail[:, -1] * rho / (1.0 - rho), 0.0)
        value = np.where(geo, total + geo_tail, total)
        error = np.where(geo, 0.5 * geo_tail + 1e-14 * total, 1e-16 * np.abs(total))
        error = error + (bar * np.abs(value) if inward else bar)
        slope = np.mean(tail[:, 1:], axis=1) / math.log(2.0)
    out["value"][t], out["error"][t] = np.where(diverged, INF, value), np.where(diverged, 0.0, error)
    out["diverged"][t], out["levels"][t], status[t] = diverged, s, _DONE
    out["reason"][t] = np.where(inward & (state == GROWING) & (s >= MIN_LEVELS + MAX_EXTRA_LEVELS),
                             DEPTH_CAP, state)
    out["log_slope"][t] = np.where(state == NONFINITE, INF, np.where(diverged, slope, 0.0))


class _Panels:
    """The panel values dyadic_passes reads, each evaluated once.  A radius
    r = m 2^e (math.frexp) reads the panels [m 2^(n-1), m 2^n] of the ladder
    of its mantissa m, shared by the passes of one (kernel, center).  A value
    is gauss_panel's half * sum(w * g * m), from g evaluated once per panel
    for all centers and m once per panel for all kernels (m may state
    (values, relative error), one error per row), where a node at which m is
    exactly 0 adds 0 even if g overflowed there: a round evaluates the rows
    its new values miss, one call per density, per plain kernel and per
    ParamPower (family, p), before its blocks gather them.  A ParamPower
    reads its raw rows through its owner's KernelRows (call_rows), so equal
    ones share them and only rows no earlier call read are evaluated."""

    def __init__(self, gs, ms, kernel, center, r, outward):
        self.g_calls, self.m_calls, (mant, top) = _calls(gs), _calls(ms), np.frexp(r)
        self.g_finite = True  # every g row evaluated so far is finite
        self.ladders = np.array(sorted(set(mant.tolist())))
        lad, nl = np.searchsorted(self.ladders, mant), len(self.ladders)
        # the exponents n within reach: [lo, lo + width)
        self.lo = int(top.min(initial=0)) - MIN_LEVELS - MAX_EXTRA_LEVELS - SETTLE_LEVELS + 1
        self.width = int(top.max(initial=0)) + OUTWARD_MAX_LEVELS + 1 - self.lo
        self.npid = nl * self.width  # panels (ladder, n)
        # each (kernel, center, ladder) in use owns `width` value keys; level
        # j of pass i has key key0[i] + step[i] * j
        owner = (kernel * len(ms) + center) * nl + lad
        owners = np.flatnonzero(np.bincount(owner))
        (self.o_k, self.o_c), self.o_lad = np.divmod(owners // nl, len(ms)), owners % nl
        self.step = np.where(outward, 1, -1)
        self.key0 = np.searchsorted(owners, owner) * self.width - self.lo + top + outward
        # values, and the rows of g and m, each with its stated error last
        self.value = _store(len(self.o_k) * self.width, 2)
        self.value[1][-1] = 0.0  # what read finds beyond a pass's levels
        self.g = _store(len(gs) * self.npid, len(_GL_NODES) + 1)
        self.m = _store(len(ms) * self.npid, len(_GL_NODES) + 1)

    def fetch(self, t: np.ndarray, first: np.ndarray, end: np.ndarray) -> None:
        """Evaluate levels [first, end) of the passes t where no pass did: the
        round's missing g and m rows first, then the values in blocks of
        PANEL_BLOCK panels, each gathered, multiplied and summed by gauss_panel."""
        count = end - first
        j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
        key = self.key0[np.repeat(t, count)] + self.step[np.repeat(t, count)] * j
        key = key[_missing(self.value, key)]
        o, col = np.divmod(key, self.width)
        pid = self.o_lad[o] * self.width + col
        b = np.ldexp(self.ladders[self.o_lad[o]], col + self.lo)
        k, (_, rows, used) = self.o_k[o], self.g
        before = used[0]
        g = _fill(self.g, self.g_calls, k, k * self.npid + pid, b)
        self.g_finite = self.g_finite and np.isfinite(rows[before:used[0], :-1]).all()
        m = _fill(self.m, self.m_calls, self.o_c[o], self.o_c[o] * self.npid + pid, b)
        for i in range(0, len(key), PANEL_BLOCK):
            at = slice(i, i + PANEL_BLOCK)
            gr, mr = self.g[1].take(g[at], 0), self.m[1].take(m[at], 0)
            y = gr[:, :-1] * mr[:, :-1]
            if not self.g_finite:  # a node where m is exactly 0 adds 0, not inf * 0
                y[mr[:, :-1] == 0.0] = 0.0
            _add(self.value, key[at], *gauss_panel((y, mr[:, -1]), 0.5 * b[at], b[at]))

    def read(self, t: np.ndarray, s: np.ndarray) -> tuple:
        """(values, stated errors, running sums of the values) of the first
        s[i] levels of each pass t[i]: level j in column j + 1 of row i, after
        a 0 that a running sum starts from, and 0 beyond."""
        j = np.arange(-1, int(s.max(initial=0)))
        keep = (j >= 0) & (j < s[:, None])
        key = np.where(keep, self.key0[t, None] + self.step[t, None] * j, 0)
        P, Q = np.moveaxis(self.value[1].take(np.where(keep, self.value[0][key] - 1, -1), 0), -1, 0)
        return P, Q, np.cumsum(P, axis=1)


def _store(keys: int, width: int) -> tuple:
    """(slot, rows, [rows used]): key's row is slot[key] - 1 (0: none yet),
    packed in the order they come, so only rows in use are written."""
    return np.zeros(keys, np.int32), np.empty((keys + 1, width)), [0]


def _missing(store: tuple, key: np.ndarray) -> np.ndarray:
    """Positions in key of keys not stored, one per key (the last of repeats)."""
    slot, i = store[0], (store[0][key] == 0).nonzero()[0]
    slot[key[i]] = tag = -1 - np.arange(len(i))  # of repeats, the last tag stays
    return i[slot[key[i]] == tag]


def _add(store: tuple, key: np.ndarray, value, err) -> None:
    slot, buf, used = store
    at = slice(used[0], used[0] + len(key))
    buf[at, 0], buf[at, 1] = value, err
    slot[key] = np.arange(at.start, at.stop) + 1
    used[0] = at.stop


def _calls(fns: list) -> tuple:
    """Per owner (an index into fns) its call, an index into the calls'
    call_keys; per owner its ParamPower param (else nan); and per call its
    first function."""
    keys = [call_key(f) for f in fns]
    first = {}
    for k, f in zip(keys, fns):
        first.setdefault(k, f)
    call = {k: i for i, k in enumerate(first)}
    return (np.array([call[k] for k in keys], int),
            np.array([f.param if isinstance(f, ParamPower) else np.nan for f in fns]),
            list(first.values()))


def _fill(store: tuple, calls: tuple, owner, key, b) -> np.ndarray:
    """The store rows of key, owner[k]'s function (see _calls) on the panel
    [b[k]/2, b[k]] with its stated error last, each key not yet stored
    evaluated first, one call_rows call per call of its owners, the rows
    written straight into the store."""
    slot, buf, used = store
    new = _missing(store, key)
    if len(new):
        call, param, fns = calls
        new = new[call[owner[new]].argsort(kind="stable")]
        which, edge, n = call[owner[new]], b[new], used[0]
        nodes = panel_nodes(0.5 * edge, edge)
        cut = (np.flatnonzero(which[1:] != which[:-1]) + 1).tolist()
        for lo, hi in zip([0] + cut, cut + [len(new)]):
            y, err = call_rows(fns[which[lo]], param[owner[new[lo:hi]]], nodes[lo:hi], edge[lo:hi])
            buf[n + lo:n + hi, :-1], buf[n + lo:n + hi, -1] = y, err
        slot[key[new]] = np.arange(n, n + len(new)) + 1
        used[0] += len(new)
    return slot[key] - 1
