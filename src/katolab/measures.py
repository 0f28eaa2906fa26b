"""Computable representations of positive measures, and integration of
possibly singular radial functions against them over balls and globally.

All integrands used by the classification pipeline are radial about the
integration center, so each representation states its mass about x as
atoms at exact distances from x plus a radial mass density
m_x(s) = d/ds mu_diffuse(B_s(x)); ball and global integrals are then an exact
atom sum plus one-dimensional quadratures with an inner dyadic cutoff sweep
and a geometric-decay divergence test.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .profiles import RadialProfile
from .quadrature import (INF, NO_PASS, PASS, ZERO_INWARD, ZERO_OUTWARD, FunctionalEstimate,
                         KernelRows, ParamPower, dyadic_passes, estimate, symmetric_rule)
from .space import sphere_surface_area, unit_ball_volume

ANGULAR_TOL = 1e-10  # two angular orders in a row agree: the finer serves
MAX_ANGULAR_POINTS = 512  # the most f calls one radius takes, all orders tried
R_SPLIT = 1.0  # integrate_global: the ball B(x, R_SPLIT), then outward
#: radial_support's margin for a support tested node by node, relative to
#: (rho + radius)^2 / radius: far above the rounding of those tests
SUPPORT_MARGIN = 1e-9
ROW_BLOCK = 8  # RadialDensity's rows of nodes per angular batch
#: the 64-node rule, leggauss(64): RadialDensity's u-rule in dimension 3
_GL64_NODES, _GL64_WEIGHTS = symmetric_rule(
    [0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
     0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
     0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
     0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
     0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
     0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
     0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
     0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722],
    [0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
     0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
     0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
     0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
     0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
     0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
     0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
     0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414])


@functools.lru_cache(maxsize=None)
def _cos_rule(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss rule for u = cos(theta) on S^{dim-1}, weight (1-u^2)^{(dim-3)/2}
    (Chebyshev in dim 2, Legendre in 3, Golub-Welsch above); weights sum to 1."""
    if dim == 1:
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if dim == 2:
        return np.cos(np.pi * (np.arange(n) + 0.5) / n), np.full(n, 1.0 / n)
    if dim == 3:
        u, w = (_GL64_NODES, _GL64_WEIGHTS) if n == 64 else np.polynomial.legendre.leggauss(n)
        return u, w / w.sum()
    k, lam = np.arange(1.0, n), (dim - 2) / 2.0
    off = np.sqrt(k * (k + 2 * lam - 1) / (4 * (k + lam) * (k + lam - 1)))
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return u, vecs[0] ** 2


@functools.lru_cache(maxsize=None)
def sphere_rule(dim: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule of order n on S^{dim-1}: 2 n^{dim-1} points (u, sqrt(1 - u^2)
    eta), u from _cos_rule, eta from the rule on S^{dim-2}; weights sum to 1."""
    u, wu = _cos_rule(dim, n)
    if dim == 1:
        return u[:, None], wu
    eta, w = sphere_rule(dim - 1, n)
    ring = (np.sqrt(1.0 - u**2)[:, None, None] * eta).reshape(-1, dim - 1)
    return np.hstack([np.repeat(u, len(w))[:, None], ring]), np.outer(wu, w).ravel()


def _band(rho: float, radius: float) -> tuple[float, float]:
    """radial_support about a point at distance rho from the center of a
    ball of that radius, for a support tested node by node: (rho - radius,
    rho + radius) widened by SUPPORT_MARGIN."""
    if not 0.0 < radius < INF:
        return 0.0, INF
    tol = SUPPORT_MARGIN * (rho + radius) ** 2 / radius
    return max(rho - radius - tol, 0.0), rho + radius + tol


@functools.lru_cache(maxsize=None)
def _orders(dim: int) -> tuple[int, ...]:
    """sphere_rule orders Density tries at a radius, with MAX_ANGULAR_POINTS
    points in all: 2, 4, 8, ..., then the largest that fits (else order 1)."""
    if dim == 1:  # every order is the same exact pair of points
        return (2, 4)
    size = lambda n: 2 * n ** (dim - 1)
    out, left, n = [], MAX_ANGULAR_POINTS, 2
    while size(n) <= left:
        out.append(n)
        left, n = left - size(n), 2 * n
    fits = [k for k in range(max(out, default=0) + 1, n) if size(k) <= left]
    return tuple(out + fits[-1:])


class MeasureRep:
    """Base class; subclasses are the five computable representations.

    A measure states its mass about a point x as atoms at exact distances
    from x (radial_atoms) plus a diffuse part (radial_mass_density); ball
    masses and all ball and global integrals derive from these two.
    """

    dim: int
    #: the Ahlfors exponent the representation states (mu(B_r(x)) ~ r^eta as
    #: r -> 0, at its worst x); None where estimate_eta fits it
    eta = None
    supports_kernel_criteria = True
    costly_density = False  # a density row calls f per node: read no panel ahead

    def radial_mass_density(self, x) -> Callable | None:
        """Vectorized s -> d/ds of the diffuse part of mu(B_s(x)), or None
        if mu has no diffuse mass about x.  Inexact values come as the pair
        (values, relative error)."""
        return None

    def radial_atoms(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(distances, weights) of the mass sitting at exact distances from x."""
        return np.zeros(0), np.zeros(0)

    def radial_support(self, x) -> tuple[float, float]:
        """(lo, hi): the radial mass density about x is exactly 0.0 at every
        distance s < lo and s > hi, as evaluated; (0, inf) if not known."""
        return 0.0, INF

    def view_key(self, x):
        """A hashable key of mu as seen from x: two points of equal keys see
        the same radial atoms, radial mass density and radial support, bit
        for bit; None where mu states none (each point its own view)."""
        return None

    def ball_mass(self, x, r):
        """mu of the closed ball of radius r about x: the ball integral of
        g = 1, inf where the dyadic sweep diverges."""
        return float(integrate_over_ball(self, x, r, np.ones_like))

    def support_points(self, n: int, rng) -> list:
        """Representative centers on or near the support, for sup sweeps."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# representations


class Density(MeasureRep):
    """mu = f(y) dy on R^dim; f a pointwise density, optionally compactly
    supported in a ball of radius support_radius about the origin.

    The radial mass density about x averages f over spheres by sphere_rules
    of _orders(dim), lowest first, until two in a row agree to ANGULAR_TOL;
    the finer serves, paired with the last pair's relative gap on that batch
    of radii (1 if only one order fits)."""

    costly_density = True

    def __init__(self, f: Callable, dim: int, support_radius: float = INF):
        if not support_radius >= 0:
            raise ValidationError("support_radius must be >= 0")
        self.f = f
        self.dim = dim
        self.support_radius = support_radius

    def radial_mass_density(self, x) -> Callable:
        d = self.dim
        area = sphere_surface_area(d)
        x = np.asarray(x, dtype=float)
        f, sup, orders = self.f, self.support_radius, _orders(d)

        def mean(s, order):  # of f over the spheres of radii s about x
            omega, w = sphere_rule(d, order)
            pts = (x + s[:, None, None] * omega).reshape(-1, d)
            # f is called inside its support only: outside, it may be undefined
            inside = np.linalg.norm(pts, axis=1) <= sup if math.isfinite(sup) else slice(None)
            vals, at = np.zeros(len(pts)), pts[inside]
            vals[inside] = np.fromiter(map(f, at), float, len(at))
            return vals.reshape(len(s), -1) @ w

        def m(s):
            s = np.asarray(s, dtype=float)
            if s.ndim == 2:  # one panel per row, each its own batch of radii
                return tuple(map(np.array, zip(*map(m, s))))
            s = np.atleast_1d(s)
            q, gap = mean(s, orders[0]), 1.0
            for n in orders[1:]:
                q2 = mean(s, n)
                scale = max(np.abs(q).max(), np.abs(q2).max(), 1e-300)
                gap, q = float(np.abs(q2 - q).max() / scale), q2
                if not gap > ANGULAR_TOL:  # resolved (or not finite)
                    break
            return q * area * s ** (d - 1), gap

        return m

    def radial_support(self, x) -> tuple[float, float]:
        return _band(float(np.linalg.norm(np.asarray(x, float))), self.support_radius)

    def support_points(self, n: int, rng) -> list:
        scale = self.support_radius if math.isfinite(self.support_radius) else 1.0
        return [np.zeros(self.dim)] + list(rng.normal(scale=scale, size=(n - 1, self.dim)))


class Lebesgue(Density):
    """Lebesgue measure on R^dim: the density 1, with its radial mass density
    and ball mass in closed form; translation invariant, so one center."""

    costly_density = False

    def __init__(self, dim: int):
        super().__init__(lambda y: 1.0, dim)
        self.eta = dim

    def radial_mass_density(self, x) -> Callable:
        d, area = self.dim, sphere_surface_area(self.dim)
        return lambda s: area * np.asarray(s, dtype=float) ** (d - 1)

    def ball_mass(self, x, r):
        return unit_ball_volume(self.dim) * float(r) ** self.dim

    def view_key(self, x):
        return ()  # the same from every x

    def support_points(self, n: int, rng) -> list:
        return [np.zeros(self.dim)]


def lebesgue(dim: int) -> Lebesgue:
    return Lebesgue(dim)


class RadialDensity(MeasureRep):
    """mu = f(|y - o|) dy with a radial profile f about origin o.

    Its radial mass density about x depends on x only through rho = |x - o|:
    it is ParamPower(family, rho, 1.0), family at_origin or off_origin, so the
    engine reads its rows through the measure's KernelRows (kernel_rows), as
    it reads a model's kernel rows: a p-sweep, and centers at one rho,
    evaluate each (rho, panel) row once.  The measure must not be changed
    after its first use."""

    def __init__(self, profile: RadialProfile, dim: int, origin=None,
                 support_radius: float = INF):
        self.profile = profile
        self.dim = dim
        self.origin = np.zeros(dim) if origin is None else np.asarray(origin, float)
        if self.origin.shape != (dim,):
            raise ValidationError(f"origin needs {dim} coordinates")
        if not support_radius >= 0:
            raise ValidationError("support_radius must be >= 0")
        self.support_radius = support_radius
        self.kernel_rows = KernelRows()

    def radial_mass_density(self, x) -> Callable:
        rho = self._rho(x)
        return ParamPower(self.off_origin if rho > 0.0 else self.at_origin, rho, 1.0)

    def at_origin(self, rho) -> Callable:
        """s -> the radial mass density about o (rho is 0): f(s) itself."""
        return lambda s: self._mean(s, None, None, np.ones(1))

    def off_origin(self, rho) -> Callable:
        """s -> the radial mass density about a point at distance rho > 0 from
        o, by the 64-node u-rule; rho may also be a column against (n, 32)
        nodes, row i as for rho_i alone."""
        return lambda s: self._mean(s, rho, *_cos_rule(self.dim, 64))

    def _mean(self, s, rho, us, ws) -> np.ndarray:
        """area s^(dim-1) times the ws-weighted mean of f(sqrt(rho^2 + s^2 +
        2 rho s u)) over u = cos(theta) on S^{dim-1} (seen from o, rho None:
        f(s)), ROW_BLOCK rows of s a batch."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if rho is not None:  # a scalar or column: one rho per row
            rho = np.broadcast_to(rho, s.shape[:1] + (1,) * (s.ndim - 1))[..., None]
        out = np.empty(s.shape)
        for at in (slice(i, i + ROW_BLOCK) for i in range(0, len(s), ROW_BLOCK)):
            rad = s[at][..., None] if rho is None else np.sqrt(np.maximum(
                rho[at] ** 2 + s[at][..., None] ** 2 + 2.0 * rho[at] * s[at][..., None] * us, 0.0))
            vals = self.profile(rad)
            if math.isfinite(self.support_radius):  # f may be NaN outside its support
                vals = np.where(rad <= self.support_radius, vals, 0.0)
            out[at] = vals @ ws * sphere_surface_area(self.dim) * s[at] ** (self.dim - 1)
        return out

    def _rho(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, float) - self.origin))

    view_key = _rho  # the view from x depends on x only through rho

    def radial_support(self, x) -> tuple[float, float]:
        rho = self._rho(x)  # seen from o, f's argument is s itself: no margin
        return (0.0, self.support_radius) if rho == 0.0 else _band(rho, self.support_radius)

    def support_points(self, n: int, rng) -> list:
        pts = [self.origin.copy()]
        for rad in np.geomspace(1e-2, 1.0, max(n - 1, 1)):
            u = rng.normal(size=self.dim)
            pts.append(self.origin + rad * u / np.linalg.norm(u))
        return pts[:n]


class PointMasses(MeasureRep):
    """Finite sum of weighted atoms."""

    def __init__(self, atoms: Sequence[tuple], dim: int | None = None):
        pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p, _ in atoms]
        ws = [float(w) for _, w in atoms]
        if any(w < 0 for w in ws):
            raise ValidationError("atom weights must be nonnegative")
        self.points = np.stack(pts) if pts else np.zeros((0, dim or 1))
        self.weights = np.asarray(ws)
        self.eta = 0.0 if any(w > 0 for w in ws) else None  # the zero measure has none
        self.dim = dim if dim is not None else (self.points.shape[1] or 1)
        if pts and self.points.shape[1] != self.dim:
            raise ValidationError("atom coordinates do not match dim")

    def radial_atoms(self, x) -> tuple[np.ndarray, np.ndarray]:
        ds = np.linalg.norm(self.points - np.atleast_1d(np.asarray(x, float)),
                            axis=1)
        return ds, self.weights

    def support_points(self, n: int, rng) -> list:
        return [p for p in self.points[:n]]


class SphereSurface(MeasureRep):
    """Uniform surface measure on a sphere of radius R in R^3, with given
    total mass.  All reductions below are exact: a sphere intersected with a
    ball centered at distance rho from its center has linear chord-length
    mass density (mass / 4 pi R^2) * 2 pi R s / rho on |rho - R| <= s <= rho + R.
    """


    def __init__(self, center, radius: float, total_mass: float):
        self.center = np.asarray(center, dtype=float)
        if self.center.shape != (3,):
            raise DomainError("surface measure is implemented in R^3 only: "
                              "the center needs 3 coordinates")
        if not (0 < radius < INF and 0 <= total_mass < INF):
            raise ValidationError("need finite radius > 0 and total_mass >= 0")
        self.R = float(radius)
        self.mass = float(total_mass)
        self.dim = 3
        self.eta = 2.0 if self.mass > 0 else None

    def _rho(self, x) -> float:
        return float(np.linalg.norm(np.asarray(x, float) - self.center))

    view_key = _rho  # the view from x depends on x only through rho

    def _shell(self, rho: float) -> tuple[float, float]:
        """The distances from a point at rho from the center where the sphere lies."""
        return abs(rho - self.R), rho + self.R

    def radial_support(self, x) -> tuple[float, float]:
        return self._shell(self._rho(x))

    def radial_mass_density(self, x) -> Callable | None:
        rho = self._rho(x)
        if rho == 0.0:
            return None  # all mass at distance exactly R: see radial_atoms
        (lo, hi), c = self._shell(rho), self.mass / (2.0 * self.R * rho)

        def m(s):
            s = np.asarray(s, dtype=float)
            return np.where((s >= lo) & (s <= hi), c * s, 0.0)

        return m

    def radial_atoms(self, x) -> tuple[np.ndarray, np.ndarray]:
        if self._rho(x) == 0.0:
            return np.array([self.R]), np.array([self.mass])
        return super().radial_atoms(x)

    def ball_mass(self, x, r):
        rho = self._rho(x)
        lo, hi = self._shell(rho)

        if rho == 0.0:
            return self.mass if r >= self.R else 0.0
        b = min(float(r), hi)
        return 0.0 if b <= lo else self.mass / (4.0 * self.R * rho) * (b**2 - lo**2)

    def support_points(self, n: int, rng) -> list:
        return [self.center + self.R * u / np.linalg.norm(u)
                for u in (rng.normal(size=3) for _ in range(n))]


class AhlforsAbstract(MeasureRep):
    """Oracle-only measure defined by its ball-mass envelope
    C1 r^eta <= mu(B_r(x)) <= C2 r^eta for r <= r0; the realized ball mass is
    the geometric midpoint sqrt(C1 C2) r^eta, constant beyond r0.

    Supports ball-mass and radial threshold tests only; there are no actual
    points, so kernel criteria that need sup over centers are unavailable.
    """

    supports_kernel_criteria = False

    def __init__(self, eta: float, c_lower: float, c_upper: float, r0: float, dim: int):
        if not (0 < eta < INF and 0 < c_lower <= c_upper < INF and r0 > 0):
            raise ValidationError("need finite eta > 0 and 0 < C1 <= C2, r0 > 0")
        self.eta = eta
        self.c_lower = c_lower
        self.c_upper = c_upper
        self.r0 = r0
        self.c_mid = math.sqrt(c_lower * c_upper)
        self.dim = dim

    def ball_mass(self, x, r):
        return self.c_mid * min(float(r), self.r0) ** self.eta

    def radial_mass_density(self, x) -> Callable:
        eta, c, r0 = self.eta, self.c_mid, self.r0

        def m(s):
            s = np.asarray(s, dtype=float)
            return np.where(s <= r0, eta * c * s ** (eta - 1.0), 0.0)

        return m

    def radial_support(self, x) -> tuple[float, float]:
        return 0.0, self.r0

    def view_key(self, x):
        return ()  # the same from every x

    def support_points(self, n: int, rng) -> list:
        return [np.zeros(self.dim)]


# ---------------------------------------------------------------------------
# integration operations


def _atom_sums(g_radial: Callable, atoms: list, radii: list, whole: bool) -> tuple:
    """Per center of atoms (its (distances, weights)) and radius r of radii,
    sum_i w_i g(d_i) over the atoms at distance <= r, exact; +inf when an
    atom of positive weight at distance 0 meets a kernel that is infinite at
    0.  For the whole space (whole) also each center's sum over the atoms
    beyond R_SPLIT.  One call of g on every center's atoms within reach (none
    for no radii)."""
    reach = INF if whole else max(radii, default=-INF)
    kept = [(ds[keep], ws[keep]) for ds, ws in atoms for keep in [(ws != 0.0) & (ds <= reach)]]
    flat = np.concatenate([ds for ds, _ in kept])
    values = np.asarray(g_radial(flat)) if len(flat) else flat
    ball, beyond = np.zeros((len(kept), len(radii))), np.zeros(len(kept))
    for c, ((ds, ws), gs) in enumerate(zip(kept, np.split(values, np.cumsum(
            [len(ds) for ds, _ in kept])[:-1]))):
        at_center = ds == 0.0
        g0 = float(gs[at_center][0]) if np.any(at_center) else 0.0
        if not math.isfinite(g0):
            ball[c] = INF
            continue
        center = float(ws[at_center].sum()) * g0
        ball[c] = [center + float(np.dot(ws[far], gs[far]))
                   for far in (~at_center & (ds <= rk) for rk in radii)]
        if whole:
            beyond[c] = 0.0 + float(np.dot(ws[ds > R_SPLIT], gs[ds > R_SPLIT]))
    return ball, beyond


def integrate_jobs(mu: MeasureRep, centers: list, jobs: list) -> list:
    """out[job]: a (center, radius) PASS record array of each job (g_radial,
    radii, led), one column per radius (radii None: one for the whole space),
    every diffuse pass in one dyadic_passes run.  A closed ball is an exact
    atom sum plus the inner dyadic sweep; the whole space, B(x, R_SPLIT) and,
    unless it diverged, the atoms beyond plus the outward pass, which counts
    only where the ball converged; a diverged record reads value inf and
    reason NO_PASS where no pass decided.  A pass outside mu's radial_support
    (a ball of r <= lo, the outward pass where R_SPLIT >= hi) reads only
    zeros of the density: it is not run, and gets the record of an all-zero
    pass (ZERO_INWARD, ZERO_OUTWARD).  A led job integrates the centers after
    the first only where the first center's ball does not diverge (elsewhere
    "ran" is False: a sup is decided there; where the first center's outward
    pass diverges, the first center wins the sup all the same).

    Passes start before they are known to be needed: an outward pass with
    its ball, a led job's later centers with the first center's outward
    pass, and a growing window reads to the depth cap at once (dyadic_passes'
    ahead).  Where mu.costly_density, no pass starts before it is needed
    (an outward pass after its ball, later centers only where every pass of
    the first center ended undiverged) and a growing window reads
    GROWING_CHUNK levels a round: f is called only for panels a needed pass
    reads, up to a growing window's last chunk."""
    if any(rk <= 0 for _, radii, _ in jobs for rk in radii or ()):
        raise DomainError("ball radius must be positive")
    dens = [mu.radial_mass_density(x) for x in centers]
    lo, hi = np.array([mu.radial_support(x) for x in centers], float).reshape(-1, 2).T
    n_c, radii = len(centers), [[R_SPLIT] if rs is None else rs for _, rs, _ in jobs]
    # one entry per (job, center, radius), job by job, center by center
    sizes, lengths = [n_c * len(rs) for rs in radii], [len(rs) for rs in radii]
    start = np.cumsum([0] + sizes)
    job, whole, led = (np.repeat(col, sizes) for col in zip(
        *((j, rs is None, bool(ld)) for j, (_, rs, ld) in enumerate(jobs))))
    center = np.concatenate([np.repeat(np.arange(n_c), len(rs)) for rs in radii])
    r = np.concatenate([np.tile(rs, n_c) for rs in radii])
    first = np.arange(len(job)) - center * np.repeat(lengths, sizes)  # first center's
    atoms, tail = np.zeros(len(job)), np.zeros(len(job))
    held = [(c, at) for c, at in enumerate(map(mu.radial_atoms, centers)) if np.any(at[1] != 0.0)]
    if held:  # the centers with atoms, and their atoms
        rows, held = map(list, zip(*held))
        for j, (g, rs, _) in enumerate(jobs):
            ball, beyond = _atom_sums(g, held, radii[j], rs is None)
            atoms[start[j]:start[j + 1]].reshape(n_c, -1)[rows] = ball
            tail[start[j]:start[j + 1]].reshape(n_c, -1)[rows] = beyond[:, None]
    # each entry's ball pass and (whole space, finite atoms) its outward one
    # from r = R_SPLIT, run where each reads some density
    infinite = np.isinf(atoms)
    skip = led & (center > 0) & infinite[first]
    has_head = np.array([m is not None for m in dens], bool)[center] & ~skip
    has_out = whole & has_head & ~infinite
    run_head, run_out = has_head & (r > lo[center]), has_out & (r < hi[center])
    head = np.where(run_head, np.cumsum(run_head) - 1, -1)
    out = np.where(run_out, np.cumsum(run_out) - 1 + run_head.sum(), -1)
    # a led job's later centers wait for the first center's ball (ahead) or
    # every pass of it; an outward pass waits for its ball unless ahead
    ahead = not mu.costly_density
    after = np.where(led & (center > 0), (head if ahead else np.maximum(head, out))[first], -1)
    after_out = after if ahead else np.where(run_head, head, after)
    res = dyadic_passes(
        [g for g, _, _ in jobs], dens, np.concatenate([job[run_head], job[run_out]]),
        np.concatenate([center[run_head], center[run_out]]),
        np.concatenate([r[run_head], r[run_out]]),
        np.repeat([False, True], [run_head.sum(), run_out.sum()]),
        np.concatenate([after[run_head], after_out[run_out]]), ahead)

    # each entry's ball and outward pass; -3, -2, -1 (not run, no pass) read
    # the records appended
    res = np.append(res, np.array([ZERO_INWARD, ZERO_OUTWARD,
                                   (0.0, 0.0, False, NO_PASS, 0, 0.0, True)], PASS))
    head, out = np.where(has_head & ~run_head, -3, head), np.where(has_out & ~run_out, -2, out)
    ball, beyond = res[head], res[out]
    head_div = ball["diverged"] | infinite
    out_div = whole & ~head_div & beyond["diverged"]
    shown = res[np.where(out_div, out, head)]
    rec = np.zeros(len(job), PASS)
    rec["diverged"] = diverged = head_div | out_div
    value = ball["value"] + atoms
    rec["value"] = np.where(diverged, INF, np.where(whole, value + tail + beyond["value"], value))
    error = ball["error"] + np.where(whole & ~head_div, beyond["error"], 0.0)
    rec["error"] = np.where(out_div, 0.0, error)
    for name in ("reason", "levels", "log_slope"):
        rec[name] = shown[name]
    rec["ran"] = ~skip & ball["ran"]
    return [rec[start[j]:start[j + 1]].reshape(n_c, n) for j, n in enumerate(lengths)]


def integrate_over_ball(mu: MeasureRep, x, r, g_radial: Callable):
    """int_{B_r(x)} g(d(x,y)) mu(dy) over the closed ball (integrate_jobs);
    r is one radius, or a grid of radii that share one panel store: then one
    estimate per radius; g_radial is vectorized in the distance s."""
    radii = [float(rk) for rk in np.atleast_1d(r)]
    out = [estimate(rec, 0, None)
           for rec in integrate_jobs(mu, [x], [(g_radial, radii, False)])[0][0].tolist()]
    return out if np.ndim(r) else out[0]


def integrate_global(mu: MeasureRep, x, g_radial: Callable) -> FunctionalEstimate:
    """Whole-space integral of g(d(x,y)) against mu (integrate_jobs): the
    closed ball B(x, R_SPLIT), then outward."""
    return estimate(integrate_jobs(mu, [x], [(g_radial, None, False)])[0][0, 0].tolist(), 0, None)


def make_measure(kind: str, **kw) -> MeasureRep:
    """Config-facing factory; a keyword that kind does not read is a TypeError."""
    if kind == "lebesgue":
        mu = lebesgue(kw.pop("dim"))
    elif kind == "radial_density":
        mu = RadialDensity(kw.pop("profile"), dim=kw.pop("dim"), origin=kw.pop("origin", None),
                           support_radius=kw.pop("support_radius", INF))
    elif kind == "point_masses":
        mu = PointMasses(kw.pop("atoms"), dim=kw.pop("dim", None))
    elif kind == "sphere_surface":
        if (dim := kw.pop("dim", 3)) != 3:
            raise DomainError(f"sphere_surface lives in R^3, not in dimension {dim}")
        mu = SphereSurface(kw.pop("center", np.zeros(3)), radius=kw.pop("radius", 1.0),
                           total_mass=kw.pop("total_mass", 1.0))
    elif kind == "ahlfors":
        mu = AhlforsAbstract(eta=kw.pop("eta"), c_lower=kw.pop("c_lower", 1.0),
                             c_upper=kw.pop("c_upper", 1.0), r0=kw.pop("r0", 1.0),
                             dim=kw.pop("dim", 1))
    else:
        raise DomainError(f"unknown measure kind {kind!r}")
    if kw:
        raise TypeError(f"{kind} measure takes no key {', '.join(map(repr, sorted(kw)))}")
    return mu
