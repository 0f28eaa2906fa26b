"""Membership functionals: Green-kernel ball integrals, localized/global
semigroup and resolvent integrals, each taken as a sup over a finite center
set.  The sup over finitely many centers is a lower bound for the true
supremum: divergence verdicts are certificates, smallness verdicts are
grid-density heuristics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import ScalingKernelModel
from .measures import (
    FunctionalEstimate,
    MeasureRep,
    integrate_global,
    integrate_over_ball,
)
from .profiles import RadialProfile
from .space import LOG_CAP


@dataclass(frozen=True)
class GreenKernelSpec:
    """Green-type radial kernel determined by the exponent pair (nu, beta):
    r^{beta-nu} when nu > beta, log(1/r) on ]0, 1/e] when nu = beta, and the
    constant 1 (ball-mass test only) when nu < beta."""

    nu: float
    beta: float

    @property
    def regime(self) -> str:
        if self.nu > self.beta:
            return "power"
        if self.nu == self.beta:
            return "log"
        return "trivial"

    @classmethod
    def from_space(cls, space) -> "GreenKernelSpec":
        return cls(nu=space.nu, beta=space.beta)


def green_value(spec: GreenKernelSpec, r: float) -> float:
    if r <= 0:
        raise DomainError("r must be positive")
    if spec.regime == "power":
        return r ** (spec.beta - spec.nu)
    if spec.regime == "log":
        if r > LOG_CAP:
            raise DomainError("log-regime Green kernel is defined for r <= 1/e")
        return math.log(1.0 / r)
    return 1.0


def green_power_profile(spec: GreenKernelSpec, p: float) -> RadialProfile:
    """Vectorized s -> G(s)^p with its singularity exponent as quadrature hint."""
    if spec.regime == "power":
        a = p * (spec.nu - spec.beta)

        def f(s):
            with np.errstate(divide="ignore"):
                return np.asarray(s, dtype=float) ** (-a)

        return RadialProfile(f, singularity=a, label=f"green^{p}")
    if spec.regime == "log":

        def f(s):
            with np.errstate(divide="ignore"):
                return np.maximum(np.log(1.0 / np.asarray(s, dtype=float)), 0.0) ** p

        return RadialProfile(f, singularity=0.0, label=f"green^{p}")
    return RadialProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                         singularity=0.0, label="green^0")


# ---------------------------------------------------------------------------
# center strategy and the sup over centers


@dataclass
class CenterStrategy:
    """Finite center set: user-supplied points, measure-adapted support
    points, and uniform random points in a cube window around the origin."""

    explicit: list = field(default_factory=list)
    n_support: int = 8
    n_random: int = 8
    window: float = 2.0
    seed: int = 7

    def build(self, mu: MeasureRep) -> list:
        rng = np.random.default_rng(self.seed)
        pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in self.explicit]
        if self.n_support > 0:
            pts += [np.atleast_1d(p) for p in mu.support_points(self.n_support, rng)]
        if self.n_random > 0:
            pts += list(rng.uniform(-self.window, self.window,
                                    size=(self.n_random, mu.dim)))
        if not pts:
            raise ConfigError("center strategy produced an empty center set")
        # dedupe while keeping first-seen order (deterministic argmax tie-break)
        first: dict = {}
        for p in pts:
            first.setdefault(tuple(np.round(p, 12)), p)
        return list(first.values())


def sup_over_centers(centers: list, objective) -> tuple:
    """Max of objective(center) over the finite set, reduced in index order.

    objective returns a FunctionalEstimate, or a list of them (one per
    radius of a grid), and each radius is reduced on its own: the first
    center of largest value wins, and divergence at any center wins (it
    certifies divergence of the supremum).  The centers are evaluated in
    order until every radius has diverged: objectives after that are not
    evaluated, so their exceptions do not surface.  Returns (estimate,
    center), or their lists for a list objective.
    """
    if not centers:
        raise ConfigError("empty center set")
    best, best_x = [], []
    for x in centers:
        ests = objective(x)
        single = isinstance(ests, FunctionalEstimate)
        for k, est in enumerate([ests] if single else ests):
            if k == len(best):
                best.append(est)
                best_x.append(x)
            elif not best[k].diverged and (est.diverged
                                           or est.value > best[k].value):
                best[k], best_x[k] = est, x
        if all(est.diverged for est in best):
            break
    for est, x in zip(best, best_x):
        est.n_centers, est.argmax_center = len(centers), x
    return (best[0], best_x[0]) if single else (best, best_x)


# ---------------------------------------------------------------------------
# the membership functionals


def kato_functional(mu: MeasureRep, spec: GreenKernelSpec, p: float, r,
                    centers: CenterStrategy | list | None = None):
    """sup_x int_{d(x,y) < r} G(d(x,y))^p mu(dy); for a grid of radii r, one
    estimate per radius, each center computing the whole grid at once."""
    if p < 1:
        raise DomainError("p must be >= 1")
    if spec.regime == "log" and np.any(np.asarray(r) > LOG_CAP):
        raise DomainError("log-regime radius must satisfy r <= 1/e")
    g = green_power_profile(spec, p)
    pts, gp = _resolve_centers(mu, centers), panel_memo(g)
    est, _ = sup_over_centers(
        pts, lambda x: integrate_over_ball(mu, x, r, gp, hint=g.singularity))
    return est


def semigroup_functional(mu: MeasureRep, model: ScalingKernelModel, p: float,
                         t: float, centers: CenterStrategy | list | None = None,
                         localized_radius=None):
    """sup_x of the (localized) p-th power semigroup integral
    int (int_0^t p_s(x,y) ds)^p mu(dy); localized_radius as kato_functional's r."""
    _require_kernel_support(mu)
    if not 0.0 < t < model.t0:
        raise DomainError("t must lie in ]0, t0[")
    return _radial_kernel_functional(mu, model, model.qt_radial(t), p, centers,
                                     localized_radius)


def resolvent_functional(mu: MeasureRep, model: ScalingKernelModel, p: float,
                         alpha: float,
                         centers: CenterStrategy | list | None = None,
                         localized_radius=None):
    """sup_x of the (localized) p-th power resolvent integral
    int r_alpha(x,y)^p mu(dy); localized_radius as kato_functional's r."""
    _require_kernel_support(mu)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return _radial_kernel_functional(mu, model, model.resolvent_radial(alpha), p,
                                     centers, localized_radius)


def _radial_kernel_functional(mu: MeasureRep, model: ScalingKernelModel, kernel,
                              p: float, centers, localized_radius):
    """sup_x of int kernel(d(x,y))^p mu(dy), over the ball (or each ball of a
    grid) of radius localized_radius around x when given, else over the whole
    space; kernel^p is evaluated once per distinct panel for all the centers."""
    # steepest admissible local slope: the jump branch of an estimate
    # kernel decays like s^-(nu+beta) before the s^-(nu-beta) regime
    hint = p * (model.space.nu + model.space.beta)
    g = panel_memo(lambda s: np.asarray(kernel(s)) ** p)
    if localized_radius is not None:
        objective = lambda x: integrate_over_ball(mu, x, localized_radius, g, hint=hint)
    else:
        objective = lambda x: integrate_global(mu, x, g, hint=hint)
    return sup_over_centers(_resolve_centers(mu, centers), objective)[0]


def panel_memo(f):
    """f evaluated once per distinct argument (its shape and bytes) for as long
    as the returned callable lives; None stays None.  All centers of a sup,
    and all criteria about one center, integrate over panels with
    bit-identical nodes.  A 2-d argument (one panel per row) not seen whole
    is served row by row, f seeing only new rows, in one call; f must treat
    each row as it would alone.  Callers share each result: none may write
    into it."""
    if f is None:
        return None
    memo, rows = {}, {}

    def served(s):
        s = np.asarray(s, dtype=float)
        key = (s.shape, s.tobytes())
        if key not in memo:
            memo[key] = f(s) if s.ndim != 2 else _by_row(f, s, rows)
        return memo[key]

    return served


def _by_row(f, s: np.ndarray, rows: dict):
    """f(s) from rows[row bytes] = (values, stated error or None)."""
    keys = [row.tobytes() for row in s]
    new = {k: i for i, k in enumerate(keys) if k not in rows}
    if new:
        out = f(s[list(new.values())])
        vals, gaps = out if isinstance(out, tuple) else (out, None)
        rows.update(zip(new, zip(vals, np.broadcast_to(gaps, len(new)))))
    vals, gaps = zip(*(rows[k] for k in keys))
    return np.stack(vals) if gaps[0] is None else (np.stack(vals), np.array(gaps))


def _require_kernel_support(mu: MeasureRep) -> None:
    if not mu.supports_kernel_criteria:
        raise DomainError(
            "this measure representation supports ball-mass tests only, "
            "not kernel integrals")


def _resolve_centers(mu: MeasureRep, centers) -> list:
    if centers is None:
        centers = CenterStrategy()
    if isinstance(centers, CenterStrategy):
        return centers.build(mu)
    pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in centers]
    if not pts:
        raise ConfigError("empty center set")
    return pts
