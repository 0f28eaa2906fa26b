"""Heat-kernel families: pointwise evaluation, time integrals and resolvents.

Every family exposes the same radial interface: the kernel depends on
(t, distance) only.  Families are either in exact scaling form
p_t(r) = t^{-nu/beta} * profile(r / t^{1/beta}) or, for the relativistic
family with positive mass, a two-branch global estimate.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError
from .quadrature import (INF, OUTWARD_MAX_LEVELS, KernelRows, gauss_panel,
                         outward_diverges, symmetric_rule)
from .space import SpaceModel

#: the 16-node rule, leggauss(16)
_GL16_NODES, _GL16_WEIGHTS = symmetric_rule(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
#: radius range that a scaling model's r_1 panels resolve
_R1_LO, _R1_CAP = 1e-12, 1e12
#: `_r1`: nodes per chunk; eps where its Taylor tail takes over; its terms
_R1_CHUNK, _R1_EPS, _R1_TERMS = 64, 0.5, 16
#: widest panel of `_log_panels`, in log s
_LOG_PANEL_WIDTH = 0.5

# ---------------------------------------------------------------------------
# special functions

#: Gamma(s, x): continued fraction depth (x >= 2) and series terms (x < 2)
_GAMMA_CF_DEPTH, _GAMMA_SERIES_TERMS = 60, 30
#: Taylor coefficients c_2 ... c_12 of 1/Gamma(z) = sum c_k z^k
_RGAMMA = (0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
           -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
           -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05)


def _upper_gamma(s: float, x) -> np.ndarray:
    """Gamma(s, x) = int_x^inf e^{-y} y^{s-1} dy for real s < 1, x >= 0, element
    by element: its continued fraction from x = 2 on; below, Gamma(s0) - gamma(s0,
    x) by series for s0 = s - floor(s) (E_1 for an integer s), then Gamma(s - 1,
    x) = (Gamma(s, x) - x^{s-1} e^{-x}) / (s - 1) down to s.  Within 0.05 of an
    integer n <= 0, s0 = s - n by Temme's form, free of the 1/s0 cancellation and
    of a division by s0 - 1.  Relative error about 1e-14."""
    x = np.asarray(x, dtype=float)
    out, far, near = np.zeros(x.shape), (x >= 2.0) & (x < 746.0), x < 2.0  # e^-746 = 0
    if far.any():
        xf, h = x[far], x[far] + (2 * _GAMMA_CF_DEPTH + 1 - s)
        for j in range(_GAMMA_CF_DEPTH, 0, -1):
            h = xf + (2 * j - 1 - s) - j * (j - s) / h
        out[far] = np.exp(-xf) * (xf**s / h)
    # the base s0 = s - floor(s), or s - n within 0.05 of an integer n <= 0
    xn, k, n = x[near], np.arange(1.0, _GAMMA_SERIES_TERMS + 1), round(s)
    s0 = s - n if (temme := s < 0.5 and 0.0 < abs(s - n) <= 0.05) else s - math.floor(s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if s0 == 0.0:  # E_1(x) = -euler - log x - sum_{k>=1} (-x)^k / (k k!)
            g = -np.euler_gamma - np.log(xn) - (np.cumprod(-xn[:, None] / k, axis=1) / k).sum(1)
        elif temme:  # (Gamma(1+s0) - 1)/s0 - expm1(s0 log x)/s0 - x^s0 sum_k>=1 (-x)^k/(k!(k+s0))
            p = np.polyval(_RGAMMA[::-1], s0)  # (1/Gamma(1 + s0) - 1)/s0
            g = (-p / (1.0 + s0 * p) - np.expm1(s0 * np.log(xn)) / s0
                 - xn**s0 * (np.cumprod(-xn[:, None] / k, axis=1) / (k + s0)).sum(1))
        else:  # gamma(s0, x) = x^s0 e^{-x} / s0 sum_{k>=0} x^k / ((s0 + 1) ... (s0 + k))
            g = math.gamma(s0) - xn**s0 * np.exp(-xn) / s0 * (
                1.0 + np.cumprod(xn[:, None] / (s0 + k), axis=1).sum(axis=1))
        for sig in np.arange(s0, s, -1.0):
            g = (g - xn ** (sig - 1.0) * np.exp(-xn)) / (sig - 1.0)
    out[near] = np.where(xn > 0.0, g, math.gamma(s) if s > 0.0 else INF)
    return out


def stable_jump_constant(d: int, alpha: float) -> float:
    """Normalizing constant A(d, -alpha) of the alpha-stable jump density."""
    if not 0.0 < alpha < 2.0:
        raise DomainError("alpha must lie in ]0, 2[")
    return (alpha * 2.0 ** (d + alpha) * math.gamma((d + alpha) / 2.0)
            / (2.0 ** (d + 1) * math.pi ** (d / 2.0) * math.gamma(1.0 - alpha / 2.0)))


def relativistic_psi(d: int, alpha: float, r):
    """Decreasing correction factor Psi(r) = I(r)/I(0) of the relativistic jump
    density, I(r) = int_0^inf s^{k-1} e^{-s/4 - r^2/s} ds = 2 (2r)^k K_k(r) with
    k = (d+alpha)/2: Psi(r) = r^k K_k(r) / (2^{k-1} Gamma(k)), Psi(0) = 1, Psi(r)
    ~ e^{-r}(1 + r^{(d+alpha-1)/2}).  Vectorized; a scalar r gives a float."""
    from scipy import special
    k = (d + alpha) / 2.0
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise DomainError("r must be nonnegative")
    with np.errstate(invalid="ignore", over="ignore"):
        out = r**k * special.kve(k, r) * np.exp(-r) / (2.0 ** (k - 1.0) * math.gamma(k))
    # where r^k or K_k leaves the float range, the limits 1 (r -> 0) and 0
    out = np.where(np.isfinite(out), out, r < 1.0)
    return out if out.ndim else float(out)


def _log_panels(f: Callable, lo, hi, *rows) -> np.ndarray:
    """int_lo^hi f(s, *rows) ds per radius (lo > 0; lo, hi and rows broadcast),
    0 where hi <= lo: 16-point Gauss-Legendre in log s on ceil(log(hi/lo) /
    _LOG_PANEL_WIDTH) equal panels.  Rows run in blocks of 256 and add their
    panel sums in order, so a block's padding panels are exact zeros and a
    batch equals its rows evaluated one by one, bit for bit."""
    lo, hi, *rows = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (lo, hi, *rows)))
    x0 = np.log(lo.ravel())
    span = np.maximum(np.log(hi.ravel()) - x0, 0.0)
    n = np.ceil(span / _LOG_PANEL_WIDTH)
    rows = [v.ravel()[:, None, None] for v in rows]
    out = np.zeros(x0.size)
    for i in range(0, x0.size, 256):
        b = slice(i, i + 256)
        k = np.arange(max(n[b].max(), 1.0))[:, None]
        h = (span[b] / np.maximum(n[b], 1.0))[:, None, None]
        s = np.exp(x0[b, None, None] + h * (k + 0.5 * (_GL16_NODES + 1.0)))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = 0.5 * h * _GL16_WEIGHTS * s * f(s, *(row[b] for row in rows))
        panels = np.where(k < n[b, None, None], vals, 0.0).sum(axis=-1)
        out[b] = np.cumsum(panels, axis=-1)[:, -1]
    return out.reshape(lo.shape)


def _per_value(f: Callable, v):
    """f of a scalar parameter v, or of each distinct element of an array v
    (a column of t or alpha), in v's shape: f takes Python floats, so its
    factors come from libm like a scalar call's, where numpy's vector exp
    and pow may differ in the last bit."""
    if np.ndim(v) == 0:
        return f(float(v))
    vals, inv = np.unique(np.ravel(v), return_inverse=True)
    return np.array([f(x) for x in vals.tolist()])[inv].reshape(np.shape(v))


# ---------------------------------------------------------------------------
# kernel models


class ScalingKernelModel:
    """Kernel of exact scaling form p_t(r) = t^{-nu/beta} profile(r/t^{1/beta})
    over a SpaceModel, with profile sandwich Phi1 <= t^{nu/beta} p_t <= Phi2
    valid for t < t0; Phi1 and Phi2 default to the profile.  Its kernel rows
    are kept for the engine (kernel_rows), so a model must not be changed
    after its first use."""

    family = "custom"
    estimate_only = False
    #: radii where the profile has a kink; the log-space panels break there
    profile_kinks: tuple = ()

    def __init__(self, space: SpaceModel, profile: Callable, t0: float = INF,
                 phi_lower: Callable | None = None,
                 phi_upper: Callable | None = None):
        if not t0 > 0.0:
            raise DomainError(f"t0 must be > 0, not {t0}")
        self.space = space
        self.profile = profile
        self.t0 = t0
        self.kernel_rows = KernelRows()
        self.phi1 = phi_lower if phi_lower is not None else profile
        self.phi2 = phi_upper if phi_upper is not None else profile
        self._check_profile_order()
        self._check_h_phi2()

    def _check_profile_order(self) -> None:
        us = np.geomspace(1e-4, 1e2, 64)
        lo, hi = np.asarray(self.phi1(us)), np.asarray(self.phi2(us))
        if np.any(lo > hi * (1.0 + 1e-9)):
            raise ValidationError("lower profile exceeds the upper profile")

    def _check_h_phi2(self) -> None:
        """Tail test of H(Phi2): int_1^inf t^{nu-1} Phi2(t) dt < inf, by
        integrate_outward's test on its panels, all from one call of Phi2."""
        nu = self.space.nu
        edges = 2.0 ** np.arange(OUTWARD_MAX_LEVELS + 1)
        panels = gauss_panel(lambda t: t ** (nu - 1.0) * np.asarray(self.phi2(t)),
                             edges[:-1], edges[1:])
        if outward_diverges(panels):
            raise ValidationError("Phi2 fails the integrability condition H(Phi2)")

    # -- radial kernel interface ------------------------------------------

    def pt_radial(self, t: float, r):
        r = np.asarray(r, dtype=float)
        nu, beta = self.space.nu, self.space.beta
        return t ** (-nu / beta) * np.asarray(self.profile(r / t ** (1.0 / beta)))

    def _log_w(self, x):
        """log w(x), w(x) = e^{(nu-beta)x} profile(e^x): the weight in x = log u
        that q_t and r_1 integrate."""
        with np.errstate(divide="ignore"):
            return ((self.space.nu - self.space.beta) * x
                    + np.log(np.asarray(self.profile(np.exp(x)), dtype=float)))

    @cached_property
    def _panels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edges, x, w): composite 16-point Gauss-Legendre panels in x, narrowed
        where log w curves and split at `profile_kinks`, with x their nodes and
        w the rule weights times w(x).  They reach from where every radius
        r >= _R1_LO has exp(-(r e^{-x})^beta) < e^-800 to where w
        underflows or past the power-tail reach of r <= _R1_CAP.
        """
        beta = self.space.beta
        probe = np.arange(math.log(_R1_LO) - math.log(800.0) / beta,
                          math.log(_R1_CAP) + 40.0 / beta, 0.01)
        lw = self._log_w(probe)
        last = np.nonzero(lw >= -690.0)[0][-1] + 2
        probe, lw = probe[:last], lw[:last]
        # panels of width min(1/2, curvature^{-1/2}) in x
        curv = np.abs(np.gradient(np.gradient(lw, probe), probe))
        density = np.maximum(2.0, np.sqrt(np.nan_to_num(curv, nan=0.0, posinf=0.0)))
        xi = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1])
                                              * np.diff(probe))])
        edges = np.interp(np.arange(0.0, xi[-1], 1.0), xi, probe)
        kinks = [math.log(u) for u in self.profile_kinks]
        edges = np.sort(np.concatenate([edges, [probe[-1]],
                                        [k for k in kinks if probe[0] < k < probe[-1]]]))
        edges = edges[np.append(True, edges[1:] != edges[:-1])]  # np.union1d loads numpy.ma
        a, b = edges[:-1, None], edges[1:, None]
        x = (0.5 * (b - a) * _GL16_NODES + 0.5 * (a + b)).ravel()
        w = (0.5 * (b - a) * _GL16_WEIGHTS).ravel() * np.exp(self._log_w(x))
        # where w has not underflowed by the last edge, its tail past it,
        # about w / (decay rate per unit x), must be negligible
        if lw[-1] >= -690.0:
            rate = lw[-101] - lw[-1]
            if rate <= 0.0 or lw[-1] - math.log(rate) > math.log(1e-12 * w.sum()):
                raise ValidationError("profile tail moment diverges")
        return edges, x, w

    def qt_radial(self, t) -> Callable:
        """q_t(r) = beta r^{beta-nu} W(log(r / t^{1/beta})), W(y) = int_y^inf w dx;
        t one time or a column of times that broadcasts against r.

        W is exact on the r_1 panels: a suffix sum over the panels right of
        y, a 16-point rule from y to the right edge of its panel, and below
        the panels the continuation of the profile by its value at 0.
        """
        nu, beta = self.space.nu, self.space.beta
        edges, _, w = self._panels
        suffix = np.append(np.cumsum(w.reshape(-1, 16).sum(axis=1)[::-1])[::-1], 0.0)
        phi0 = float(np.asarray(self.profile(np.array([0.0])))[0])
        x0, p = edges[0], nu - beta
        shift = _per_value(lambda t: math.log(t) / beta, t)
        at0 = INF if p >= 0.0 else _per_value(
            lambda t: phi0 * t ** (1.0 - nu / beta) * beta / (beta - nu), t)

        def qt(r):
            r = np.asarray(r, dtype=float)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                y = np.log(r) - shift
                k = np.clip(np.searchsorted(edges, y, side="right") - 1, 0, len(edges) - 2)
                a, b = np.clip(y, x0, edges[-1])[..., None], edges[k + 1][..., None]
                nodes = 0.5 * (b - a) * _GL16_NODES + 0.5 * (a + b)
                W = suffix[k + 1] + (0.5 * (b - a) * _GL16_WEIGHTS
                                     * np.exp(self._log_w(nodes))).sum(axis=-1)
                below = phi0 * (x0 - y if p == 0.0 else (math.exp(p * x0) - np.exp(p * y)) / p)
                out = beta * r ** (beta - nu) * (W + np.where(y < x0, below, 0.0))
            return np.where(r == 0.0, at0, out)

        return qt

    @cached_property
    def _r1_chunks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """-e^{-beta x} and w on the `_panels` nodes in rows of _R1_CHUNK (weight 0
        pads the last), and per row the moments sum w e^{-k beta (x - x_c)}, k <
        _R1_TERMS, over the nodes from its first, x_c, on (zeros past the last)."""
        (_, x, w), beta = self._panels, self.space.beta
        pad = -len(x) % _R1_CHUNK
        xc = np.append(x, np.full(pad, x[-1])).reshape(-1, _R1_CHUNK)
        wc, k = np.append(w, np.zeros(pad)).reshape(-1, _R1_CHUNK), np.arange(_R1_TERMS)
        own = (np.exp(-beta * (xc - xc[:, :1])) ** k[:, None, None] * wc).sum(axis=-1).T
        step = np.exp(-beta * np.diff(xc[:, 0], append=INF))[:, None] ** k
        moments = np.zeros((len(xc) + 1, _R1_TERMS))
        for c in range(len(xc) - 1, -1, -1):
            moments[c] = own[c] + step[c] * moments[c + 1]
        return -np.exp(-beta * xc), wc, moments

    def _r1(self, r) -> np.ndarray:
        """r_1 at every radius r >= 0, exact on the `_panels`: in x = log u,
        r_1(r) = beta r^{beta-nu} int exp(-eps) w dx, eps = r^beta e^{-beta x}.
        Per radius, node chunks where exp(-eps) is 0 in double add nothing,
        each chunk up to the first whose eps is at most _R1_EPS is summed on
        its own and added in order, and from that one on the Taylor series of
        exp(-eps) on its moments adds the rest, so a batch equals its radii one
        by one, bit for bit.  Below the panels the profile is continued by its
        value at 0: phi0 Gamma(1 - nu/beta, (r e^{-x0})^beta), 0 in double for
        r >= _R1_LO and the closed form at r = 0."""
        nu, beta = self.space.nu, self.space.beta
        nx, wc, moments = self._r1_chunks
        r = np.asarray(r, dtype=float)
        rb = r.ravel()[:, None] ** beta
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            lo = (np.exp(rb * nx[:, -1]) == 0.0).sum(axis=1)
            hi = (rb * nx[:, 0] < -_R1_EPS).sum(axis=1)
            neg_eps, m, live = rb[:, 0] * np.append(nx[:, 0], 0.0)[hi], moments[hi], hi - lo
            out = m[:, -1]
            for k in range(_R1_TERMS - 2, -1, -1):  # Horner, with the 1/k!
                out = m[:, k] + neg_eps / (k + 1) * out
            for i in range(0, len(rb), 64):  # row blocks of at most 64 radii
                b, j = slice(i, i + 64), np.arange(max(live[i:i + 64].max(initial=0), 1))
                rows = np.minimum(lo[b, None] + j, len(nx) - 1)
                chunks = (np.exp(rb[b, :, None] * nx[rows]) * wc[rows]).sum(axis=-1)
                out[b] += np.cumsum(np.where(j < live[b, None], chunks, 0.0), axis=1)[:, -1]
            below = _upper_gamma(1.0 - nu / beta, rb[:, 0] * math.exp(-beta * self._panels[0][0]))
            out = (beta * r.ravel() ** (beta - nu) * out
                   + float(np.asarray(self.profile(np.array([0.0])))[0]) * below)
        return out.reshape(r.shape)

    def resolvent_radial(self, alpha) -> Callable:
        """Vectorized r -> r_alpha(r) = alpha^{nu/beta - 1} r_1(alpha^{1/beta} r)
        (s = u/alpha in int_0^inf e^{-alpha s} p_s ds), r_1 the panel sum `_r1`;
        alpha one order or a column that broadcasts against r.  The panels are
        built here: a divergent tail moment raises at once."""
        self._r1_chunks  # builds the panels
        nu, beta = self.space.nu, self.space.beta
        scale = _per_value(lambda a: a ** (1.0 / beta), alpha)
        factor = _per_value(lambda a: a ** (nu / beta - 1.0), alpha)
        return lambda r: factor * self._r1(scale * np.asarray(r, dtype=float))

    def resolvent_scalar(self, alpha: float, r: float) -> float:
        """r_alpha(r) at one radius: a one-point call of resolvent_radial."""
        return float(self.resolvent_radial(alpha)(np.array([r]))[0])


def _erfc(z: np.ndarray) -> np.ndarray:
    """math.erfc element-wise into a float array (no scipy.special)."""
    return np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


class GaussianKernelModel(ScalingKernelModel):
    """Brownian heat kernel p_t(r) = (2 pi t)^{-d/2} exp(-r^2 / 2t).  q_t and
    r_alpha are closed forms; only even d's r_alpha needs scipy.special."""

    family = "gaussian"

    def __init__(self, dim: int):
        space = SpaceModel(ambient_dim=dim, nu=float(dim), beta=2.0)
        c = (2.0 * math.pi) ** (-dim / 2.0)
        profile = lambda u: c * np.exp(-np.asarray(u, dtype=float) ** 2 / 2.0)
        super().__init__(space, profile)
        self.dim = dim

    def _resolvent(self, alpha, r) -> np.ndarray:
        """r_alpha(r) = 2 (2 pi)^{-d/2} (r/k)^{1-d/2} K_{d/2-1}(kr), k = sqrt(2 alpha):
        scipy's K for even d; for odd d, n = |d-2|//2, the finite sum
        K_{n+1/2}(z) = sqrt(pi/2z) e^{-z} sum_{j<=n} (n+j)!/(j!(n-j)!) (2z)^{-j};
        1/k at r = 0 for d = 1.  alpha may be a column against r."""
        d, k = self.dim, _per_value(lambda a: math.sqrt(2.0 * a), alpha)
        n = abs(d - 2) // 2
        r = np.asarray(r, dtype=float)
        z = k * r
        with np.errstate(divide="ignore", invalid="ignore"):
            if d % 2 == 0:
                from scipy import special
                return (2.0 * (2.0 * math.pi) ** (-d / 2.0) * (r / k) ** (1.0 - d / 2.0)
                        * special.kv(d / 2.0 - 1.0, z))
            terms = sum(math.factorial(n + j) / (math.factorial(j) * math.factorial(n - j))
                        * (2.0 * z) ** -j for j in range(n + 1))
            kd = _per_value(lambda a: math.sqrt(2.0 * a) ** (d - 2.0), alpha)
            return kd * (2.0 * math.pi * z) ** ((1.0 - d) / 2.0) * np.exp(-z) * terms

    def resolvent_radial(self, alpha) -> Callable:
        return lambda r: self._resolvent(alpha, r)

    def qt_radial(self, t) -> Callable:
        d = self.dim
        # d = 1: sqrt(2t/pi), per time
        head = _per_value(lambda t: math.sqrt(2.0 * t / math.pi), t) if d == 1 else None

        def qt(r):
            r = np.asarray(r, dtype=float)
            x = r**2 / (2.0 * t)
            if d == 1:
                # sqrt(2t/pi) e^{-z^2} - r erfc(z), z = r / sqrt(2t); for z >= 2
                # the bracket 1 - sqrt(pi) z erfcx(z) = K/(z + K) is a continued
                # fraction, K = (1/2)/(z + 1/(z + (3/2)/(z + ...))), so the far
                # tail does not cancel
                z = np.sqrt(x.ravel())
                out = np.broadcast_to(head, x.shape).ravel() * np.exp(-x.ravel())
                near = z < 2.0
                out[near] -= np.broadcast_to(r, x.shape).ravel()[near] * _erfc(z[near])
                zf, K = z[~near], 0.0
                for j in range(60, 0, -1):
                    K = 0.5 * j / (zf + K)
                out[~near] *= K / (zf + K)
                return out.reshape(x.shape)
            # Gamma(d/2 - 1, x) from Gamma(1/2, x) = sqrt(pi) erfc(sqrt x) (odd d)
            # or Gamma(0, x) = E_1(x) (even d) by Gamma(b + 1, x) = b Gamma(b, x)
            # + x^b e^{-x}
            G = math.sqrt(math.pi) * _erfc(np.sqrt(x)) if d % 2 else _upper_gamma(0.0, x)
            with np.errstate(divide="ignore", invalid="ignore"):
                for b in np.arange(0.5 * (d % 2), d / 2.0 - 1.0):
                    G = b * G + x**b * np.exp(-x)
                out = (2.0 * math.pi) ** (-d / 2.0) * (r**2 / 2.0) ** (1.0 - d / 2.0) * G
            return np.where(r == 0.0, INF, out)

        return qt


class StableEstimateModel(ScalingKernelModel):
    """Midpoint of the two-sided alpha-stable estimate:
    p_t(r) = t^{-d/alpha} min(1, A (r/t^{1/alpha})^{-(d+alpha)}).

    For mass m > 0 the Psi correction is applied inside the jump density;
    the small-time branch is then valid only for t <= 1/m.  r_alpha is one
    closed form per radius for every m, plus `_log_panels` on the late
    branch for m > 0.
    """

    family = "stable_estimate"
    estimate_only = True

    def __init__(self, dim: int, alpha: float, m: float = 0.0):
        if not 0.0 < alpha < 2.0:
            raise DomainError("alpha must lie in ]0, 2[")
        if not 0.0 <= m < INF:
            raise DomainError("m must be >= 0 and finite")
        self.dim = dim
        self.alpha = alpha
        self.m = m
        self.A = A = stable_jump_constant(dim, alpha)
        space = SpaceModel(ambient_dim=dim, nu=float(dim), beta=alpha)
        t0 = INF if m == 0.0 else 1.0 / m

        def tail(u):
            with np.errstate(over="ignore"):  # inf at u = 0
                return np.maximum(np.asarray(u, dtype=float), 1e-300) ** (-(dim + alpha))

        phi1 = phi2 = lambda u: np.minimum(1.0, A * tail(u))
        if m > 0.0:
            phi1 = lambda u: np.minimum(1.0, A * relativistic_psi(dim, alpha, u) * tail(u))
        super().__init__(space, phi2, t0=t0, phi_lower=phi1, phi_upper=phi2)

    def jump_density(self, r):
        r = np.asarray(r, dtype=float)
        return self._a_psi(r) * r ** (-(self.dim + self.alpha))

    def _a_psi(self, r):  # the jump density times r^(d+a)
        d, a, m = self.dim, self.alpha, self.m
        return self.A * (1.0 if m == 0.0 else relativistic_psi(d, a, m ** (1.0 / a) * r))

    def _late_branch(self, t, r):
        """p_t(r) = m^{d/a - d/2} t^{-d/2} exp(-min(m^{1/a} r, m^{2/a-1} r^2/t)),
        the large-time (t > 1/m) branch of the global relativistic estimate."""
        d, a, m = self.dim, self.alpha, self.m
        expo = np.minimum(m ** (1.0 / a) * r, m ** (2.0 / a - 1.0) * r**2 / t)
        return m ** (d / a - d / 2.0) * t ** (-d / 2.0) * np.exp(-expo)

    def _late_branch_integral(self, t1: float, t2, r, alpha):
        """int_{t1}^{t2} e^{-alpha s} p_s(r) ds over the large-time branch,
        vectorized in r (t2 and alpha broadcast against it), with a panel edge
        at s_c = m^{1/a-1} r where its exponent switches from m^{1/a} r to
        m^{2/a-1} r^2/s."""
        s_c = np.clip(self.m ** (1.0 / self.alpha - 1.0) * r, t1, t2)
        f = lambda s, r, alpha: np.exp(-alpha * s) * self._late_branch(s, r)
        return _log_panels(f, t1, s_c, r, alpha) + _log_panels(f, s_c, t2, r, alpha)

    def pt_radial(self, t: float, r):
        r = np.asarray(r, dtype=float)
        d, a, m = self.dim, self.alpha, self.m
        if m > 0.0 and t > 1.0 / m:
            return self._late_branch(t, r)
        with np.errstate(divide="ignore", over="ignore"):
            jump = np.where(r > 0.0, t * self.jump_density(np.maximum(r, 1e-300)), INF)
        return np.minimum(t ** (-d / a), jump)

    def _head(self, r, top) -> tuple:
        """(s*, J min(s*, top)^2) at radii r: p_s(r) turns from s J (J the jump
        density) to s^{-d/a} at s* = J^{-a/(d+a)}.  Where J overflows, s* =
        c^{-a/(d+a)} r^a and J s*^2 = c^{(d-a)/(d+a)} r^{a-d}, c = A psi."""
        d, a = self.dim, self.alpha
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            J = self.jump_density(np.maximum(r, 1e-300))
            s_star = J ** (-a / (d + a))
            Ju2 = J * np.minimum(top, s_star) ** 2
            if (big := np.isinf(J)).any():
                c = self._a_psi(np.where(big, r, 1.0))
                s_star = np.where(big, c ** (-a / (d + a)) * r**a, s_star)
                Ju2 = np.where(big, np.where(s_star <= top, c ** ((d - a) / (d + a))
                                             * r ** (a - d), INF), Ju2)
        return s_star, Ju2

    def qt_radial(self, t) -> Callable:
        """q_t, t one time or a column of times that broadcasts against r; a t
        past 1/m (m > 0) adds the late branch from 1/m to t."""
        d, a, m = self.dim, self.alpha, self.m
        p = 1.0 - d / a
        t_small = t if m == 0.0 else _per_value(lambda t: min(t, 1.0 / m), t)
        t_p = _per_value(lambda t: t ** p, t_small)

        def qt(r):
            r = np.asarray(r, dtype=float)
            s_star, Ju2 = self._head(r, t_small)
            head = np.where(r > 0.0, 0.5 * Ju2, 0.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                mid = (np.log(np.maximum(t_small, 1e-300) / np.maximum(s_star, 1e-300))
                       if d == a else (t_p - s_star**p) / p)
            out = np.where(r == 0.0, INF if d >= a else t_p / p,
                           head + np.where(t_small > s_star, mid, 0.0))
            if m > 0.0 and (late := np.broadcast_to(t > 1.0 / m, out.shape)).any():
                out[late] += self._late_branch_integral(1.0 / m, np.broadcast_to(t, out.shape)[late],
                                                        np.broadcast_to(r, out.shape)[late], 0.0)
            return out

        return qt

    def resolvent_radial(self, alpha) -> Callable:
        """r -> r_alpha(r), closed form up to T = 1/m (inf for m = 0): with u =
        min(s*, T) (`_head`), int_0^u e^{-alpha s} s J ds = J u^2 gamma(2, alpha
        u) / (alpha u)^2 plus int_u^T e^{-alpha s} s^{-d/a} ds = alpha^{d/a-1}
        (Gamma(1-d/a, alpha u) - Gamma(1-d/a, alpha T)); for m > 0 plus the late
        branch from T to past e^{-alpha s} and past the saddle sqrt(c/alpha) of
        e^{-alpha s - c/s}, c = m^{2/a-1} r^2.  alpha may be a column against r."""
        d, a, m = self.dim, self.alpha, self.m
        T, s = (INF if m == 0.0 else 1.0 / m), 1.0 - d / a
        scale = _per_value(lambda al: al ** (d / a - 1.0), alpha)
        past_T = _per_value(lambda al: float(_upper_gamma(s, al * T)), alpha)

        def r_alpha(r):
            r = np.asarray(r, dtype=float)
            s_star, Ju2 = self._head(r, T)
            y = alpha * np.minimum(s_star, T)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                # gamma(2, y) / y^2, by its series below y = 1 where 1 - e^{-y}(1 + y) cancels
                g2 = np.where(y < 1.0, 0.5 * np.exp(-y) * (1.0 + np.cumprod(
                    y[..., None] / np.arange(3.0, 20.0), axis=-1).sum(axis=-1)),
                    -(np.expm1(-y) + y * np.exp(-y)) / y**2)
                out = np.where(r > 0.0, Ju2 * g2, 0.0) + np.where(
                    y < alpha * T, scale * (_upper_gamma(s, y) - past_T), 0.0)
            if m > 0.0:
                s_far = (T + 50.0 / alpha + 4.0 * m ** (1.0 / a - 0.5) * r
                         / _per_value(math.sqrt, alpha))
                out = out + self._late_branch_integral(T, s_far, r, alpha)
            return out

        return r_alpha


class StretchedExponentialModel(ScalingKernelModel):
    """Fractal-type kernel with a stretched-exponential profile.

    Evaluator uses the upper-estimate constants (c4, c2); the lower profile
    (c3, c1) enters only through the sandwich.  Exponent kappa is
    d_w / (d_J - 1); pass d_J = d_w for the usual carpet form.
    """

    family = "stretched_exponential"
    estimate_only = True

    def __init__(self, d_f: float, d_w: float, d_J: float,
                 c1: float, c2: float, c3: float, c4: float,
                 ambient_dim: int = 2):
        if c1 < c2 or c3 > c4:
            raise ValidationError("need c1 >= c2 and c3 <= c4 for Phi1 <= Phi2")
        if d_J == 1.0:
            raise DomainError("d_J must differ from 1: kappa = d_w / (d_J - 1)")
        kappa = d_w / (d_J - 1.0)
        self.kappa = kappa
        space = SpaceModel(ambient_dim=ambient_dim, nu=d_f, beta=d_w)
        profile = lambda u: c4 * np.exp(-c2 * np.asarray(u, dtype=float) ** kappa)
        phi1 = lambda u: c3 * np.exp(-c1 * np.asarray(u, dtype=float) ** kappa)
        super().__init__(space, profile, phi_lower=phi1, phi_upper=profile)


# ---------------------------------------------------------------------------
# factory and evaluation helpers


def make_kernel_model(family: str, **kw) -> ScalingKernelModel:
    """Config-facing factory; a keyword that family does not read is a TypeError."""
    if family == "gaussian":
        model = GaussianKernelModel(dim=kw.pop("dim"))
    elif family in ("stable_estimate", "relativistic"):
        m = kw.pop("m", 0.0)
        if family == "relativistic" and m <= 0.0:
            raise DomainError("relativistic family requires m > 0")
        model = StableEstimateModel(dim=kw.pop("dim"), alpha=kw.pop("alpha"), m=m)
    elif family == "stretched_exponential":
        d_w = kw.pop("d_w")
        model = StretchedExponentialModel(
            d_f=kw.pop("d_f"), d_w=d_w, d_J=kw.pop("d_J", d_w),
            c1=kw.pop("c1", 1.0), c2=kw.pop("c2", 1.0), c3=kw.pop("c3", 1.0),
            c4=kw.pop("c4", 1.0), ambient_dim=kw.pop("dim", 2))
    elif family == "custom":
        space = SpaceModel(ambient_dim=kw.pop("dim", 1), nu=kw.pop("nu"), beta=kw.pop("beta"))
        model = ScalingKernelModel(space, kw.pop("profile"), t0=kw.pop("t0", INF),
                                   phi_lower=kw.pop("phi_lower", None),
                                   phi_upper=kw.pop("phi_upper", None))
    else:
        raise DomainError(f"unknown kernel family {family!r}")
    if kw:
        raise TypeError(f"{family} kernel takes no key {', '.join(map(repr, sorted(kw)))}")
    return model


def synthetic_scaling_model(nu: float, beta: float, dim: int = 1) -> ScalingKernelModel:
    """Gaussian-profile kernel with arbitrary exponents, for regime tests."""
    space = SpaceModel(ambient_dim=dim, nu=nu, beta=beta)
    profile = lambda u: np.exp(-np.asarray(u, dtype=float) ** 2)
    return ScalingKernelModel(space, profile)
