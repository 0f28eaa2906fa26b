"""Membership functionals: Green-kernel ball integrals, localized/global
semigroup and resolvent integrals, each taken as a sup over a finite center
set.  The sup over finitely many centers is a lower bound for the true
supremum: divergence verdicts are certificates, smallness verdicts are
grid-density heuristics.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .kernels import ScalingKernelModel
from .measures import FunctionalEstimate, MeasureRep, integrate_jobs
from .profiles import GreenKernelSpec, green_power_profile
from .quadrature import INF, PASS, ParamPower, estimate
from .space import LOG_CAP

_RAW = np.dtype((np.void, PASS.itemsize))  # a PASS record as raw bytes


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
        # a generator only where points are drawn: numpy.random costs an import
        rng = np.random.default_rng(self.seed) if self.n_support > 0 or self.n_random > 0 else None
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
    """Max of objective(center) over the finite set, reduced in index order
    (sups applies the same rule to integrate_jobs' record arrays).

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
    estimate per radius."""
    return sups(mu, _resolve_centers(mu, centers), [kato_job(spec, p, r)], None)[0][0]


def semigroup_functional(mu: MeasureRep, model: ScalingKernelModel, p: float,
                         t: float, centers: CenterStrategy | list | None = None,
                         localized_radius=None):
    """sup_x of the (localized) p-th power semigroup integral
    int (int_0^t p_s(x,y) ds)^p mu(dy); localized_radius as kato_functional's r."""
    _require_kernel_support(mu)
    job = semigroup_job(model, p, t, localized_radius)
    return sups(mu, _resolve_centers(mu, centers), [job], None)[0][0]


def resolvent_functional(mu: MeasureRep, model: ScalingKernelModel, p: float,
                         alpha: float,
                         centers: CenterStrategy | list | None = None,
                         localized_radius=None):
    """sup_x of the (localized) p-th power resolvent integral
    int r_alpha(x,y)^p mu(dy); localized_radius as kato_functional's r."""
    _require_kernel_support(mu)
    job = resolvent_job(model, p, alpha, localized_radius)
    return sups(mu, _resolve_centers(mu, centers), [job], None)[0][0]


def kato_job(spec: GreenKernelSpec, p: float, r) -> tuple:
    """kato_functional's (g, r): G^p over the ball (or each ball of a grid) r."""
    if p < 1:
        raise DomainError("p must be >= 1")
    if spec.regime == "log" and np.any(np.asarray(r) > LOG_CAP):
        raise DomainError("log-regime radius must satisfy r <= 1/e")
    return green_power_profile(spec, p), r


def semigroup_job(model: ScalingKernelModel, p: float, t: float, r) -> tuple:
    """semigroup_functional's (g, r); r None for the whole space."""
    if not 0.0 < t < model.t0:
        raise DomainError("t must lie in ]0, t0[")
    return ParamPower(model.qt_radial, t, p), r


def resolvent_job(model: ScalingKernelModel, p: float, alpha: float, r) -> tuple:
    """resolvent_functional's (g, r); r None for the whole space."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return ParamPower(model.resolvent_radial, alpha, p), r


def sups(mu: MeasureRep, centers: list, jobs: list, mass_radii) -> tuple:
    """(sups, masses): the sup over the centers of each job (g, r), the
    integral of g(d(x,y)) mu(dy) over the ball B_r(x) (a list over a grid r)
    or the whole space (r None); and each center's ball masses at mass_radii
    (float, inf where divergent; None for None).  All in one integrate_jobs
    run over the first center of each distinct view of mu (mu.view_key),
    where the first center leads each sup; every center then reads its
    view's records, so the sup is the one over all centers.  An estimate is
    built for each sup's winner only."""
    radii = [None if r is None else [float(rk) for rk in np.atleast_1d(r)]
             for _, r in jobs]
    tasks = [(g, rs, True) for (g, _), rs in zip(jobs, radii)]
    if mass_radii is not None:
        tasks.append((np.ones_like, [float(rk) for rk in mass_radii], False))
    if not centers:
        raise ConfigError("empty center set")
    views: dict = {}  # a key per distinct view; a center of no key is its own
    view = [views.setdefault(object() if key is None else key, len(views))
            for key in map(mu.view_key, centers)]
    tables = integrate_jobs(mu, [centers[view.index(v)] for v in range(len(views))], tasks)
    # the sup tables joined as raw records (no structured field promotion),
    # then each center's row is its view's
    rec = np.concatenate([table.view(_RAW) for table in tables[:len(jobs)]], axis=1)
    won = iter(_sup_records(centers, rec.view(PASS)[view]))
    ests = [[next(won) for _ in range(table.shape[1])] for table in tables[:len(jobs)]]
    masses = None if mass_radii is None else tables[-1]["value"][view].tolist()
    return [e if np.ndim(r) else e[0] for e, (_, r) in zip(ests, jobs)], masses


def _sup_records(centers: list, rec: np.ndarray) -> list:
    """sup_over_centers' rule on a (center, radius) record array, radius by
    radius (column): the first diverged center wins, else the first center of
    largest value, and a NaN first value stays.  Records that did not run
    follow a diverged first center, so they never win.  One estimate per
    column."""
    div, v = rec["diverged"], rec["value"]
    best = np.where(div.any(axis=0), div.argmax(axis=0),
                    np.where(np.isnan(v[0]), 0, np.where(np.isnan(v), -INF, v).argmax(axis=0)))
    won = rec[best, np.arange(rec.shape[1])].tolist()
    return [estimate(r, len(centers), centers[c]) for r, c in zip(won, best.tolist())]


def _require_kernel_support(mu: MeasureRep) -> None:
    if not mu.supports_kernel_criteria:
        raise DomainError(
            "this measure representation supports ball-mass tests only, "
            "not kernel integrals")


def _resolve_centers(mu: MeasureRep, centers) -> list:
    if centers is None:
        centers = CenterStrategy()
    if isinstance(centers, CenterStrategy):
        pts = centers.build(mu)
    else:
        pts = [np.atleast_1d(np.asarray(p, dtype=float)) for p in centers]
    if not pts:
        raise ConfigError("empty center set")
    for p in pts:
        if p.shape != (mu.dim,):
            raise ConfigError(f"center {p.tolist()} needs {mu.dim} coordinates")
        if not np.isfinite(p).all():
            raise ConfigError(f"center {p.tolist()} is not finite")
    return pts
