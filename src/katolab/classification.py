"""Turn functional sweeps into membership verdicts.

A measure belongs to the Kato-type class when the relevant functional tends
to zero along the scale grid, and to the Dynkin-type class when it is finite
at some scale.  Divergence verdicts are certificates (a finite center set
already witnesses them); convergence verdicts are evidence from the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientDataError
from .functionals import (
    CenterStrategy,
    LOG_CAP,
    kato_job,
    resolvent_job,
    semigroup_job,
    sups,
    _require_kernel_support,
    _resolve_centers,
)
from .kernels import ScalingKernelModel
from .measures import MeasureRep, integrate_jobs
from .profiles import GreenKernelSpec
from .quadrature import INF

SLOPE_CUTOFF = 0.05
RATIO_GUARD = 10.0
THRESHOLD_BAND = 0.05


def threshold_p_star(eta: float, nu: float, beta: float) -> float:
    """Critical exponent p* = eta / (nu - beta) below which an
    Ahlfors-regular measure of exponent eta is in the Kato-type class."""
    if not 0.0 < eta <= nu:
        raise DomainError("need 0 < eta <= nu")
    if nu <= beta:
        return INF
    return eta / (nu - beta)


# ---------------------------------------------------------------------------
# limit classification from dyadic sweeps


@dataclass
class LimitFit:
    verdict: str  # tends_to_zero | bounded | diverges | undecided
    slope: float
    slope_ci: float
    certified: bool = False  # divergence witnessed by a sentinel


def classify_limit(samples) -> LimitFit:
    """Classify the scale -> 0 limit of positive data on a dyadic grid.

    samples: iterable of (scale, value, error); a non-finite value certifies
    divergence.  Weighted log-log regression over the finest half of the
    grid; slope > +c means the values shrink with scale, slope < -c means
    they blow up.
    """
    rows = [(float(s), float(v), float(e)) for s, v, e in samples]
    if not all(math.isfinite(v) for _, v, _ in rows):
        return LimitFit("diverges", -INF, 0.0, certified=True)
    finite = [row for row in rows if row[1] > 0.0]
    if len(finite) < 6:
        if all(v == 0.0 for _, v, _ in rows) and len(rows) >= 6:
            return LimitFit("tends_to_zero", INF, 0.0)
        raise InsufficientDataError(
            f"need >= 6 positive finite samples, got {len(finite)}")

    finite.sort(key=lambda row: row[0])
    half = finite[: max(len(finite) // 2, 6)]
    s, v, e = (np.array(column) for column in zip(*half))
    x, y = np.log(s), np.log(v)
    sigma = np.maximum(e / v, 1e-6)
    w = 1.0 / sigma**2
    W = w.sum()
    xbar, ybar = (w * x).sum() / W, (w * y).sum() / W
    sxx = (w * (x - xbar) ** 2).sum()
    slope = (w * (x - xbar) * (y - ybar)).sum() / sxx
    resid = y - ybar - slope * (x - xbar)
    dof = max(len(half) - 2, 1)
    se = math.sqrt(max((w * resid**2).sum() / dof / sxx, 1e-24))
    ci = 2.0 * se

    if slope - ci < -SLOPE_CUTOFF and slope + ci > SLOPE_CUTOFF:
        return LimitFit("undecided", slope, ci)
    if slope > SLOPE_CUTOFF:
        return LimitFit("tends_to_zero", slope, ci)
    if slope < -SLOPE_CUTOFF:
        return LimitFit("diverges", slope, ci)
    if v.max() / max(v.min(), 1e-300) >= RATIO_GUARD:
        return LimitFit("diverges", slope, ci)
    return LimitFit("bounded", slope, ci)


# ---------------------------------------------------------------------------
# classification orchestration


@dataclass
class ClassifyConfig:
    r_grid: np.ndarray = field(
        default_factory=lambda: 2.0 ** -np.arange(2, 12, dtype=float))
    centers: CenterStrategy = field(default_factory=CenterStrategy)
    seed: int = 7

    # scale grids shared by every config (class attributes, not fields)
    t_grid = tuple(4.0 ** -k for k in range(1, 9))
    alpha_grid = tuple(4.0 ** k for k in range(1, 9))
    localized_alphas = (1.0, 16.0)
    localized_times = (0.5, 0.125)


@dataclass
class ClassificationReport:
    p: float
    verdict_K: str
    verdict_D: str
    criteria: dict
    fits: dict
    sweeps: dict
    fitted_slope: float
    slope_ci: float
    predicted_threshold: float
    eta_hat: float | None
    findings: list
    n_centers: int  # the centers each sup ran over


def _verdicts(fit: LimitFit) -> tuple[str, str]:
    """(Kato verdict, Dynkin verdict) from a limit fit."""
    if fit.verdict == "tends_to_zero":
        return "in", "in"
    if fit.verdict == "diverges":
        return "out", "out" if fit.certified else "in"
    if fit.verdict == "bounded":
        return "out", "in"
    return "undecided", "undecided"


def estimate_eta(mu: MeasureRep, centers: list, r_grid) -> float | None:
    """Ball-mass growth exponent at small radii (Ahlfors exponent): the one
    mu states (mu.eta), else fitted from the centers with at least 4 finite
    positive masses on the grid, all from one engine run (a diverged ball
    mass reads inf)."""
    if mu.eta is not None:
        return float(mu.eta)
    masses = integrate_jobs(mu, centers, [(np.ones_like, [float(r) for r in r_grid], False)])[0]
    return _fit_eta(r_grid, masses["value"].tolist())


def _radii(cfg: ClassifyConfig, spec: GreenKernelSpec) -> tuple[np.ndarray, np.ndarray]:
    """(r_grid, r_eta): the config's radii (those <= LOG_CAP in the log
    regime) and their finest half, where estimate_eta fits."""
    r_grid = np.asarray(cfg.r_grid, dtype=float)
    if spec.regime == "log":
        r_grid = r_grid[r_grid <= LOG_CAP]
    return r_grid, r_grid[len(r_grid) // 2:]


def fitted_eta(mu: MeasureRep, model: ScalingKernelModel,
               cfg: ClassifyConfig) -> float | None:
    """classify_measure's eta_hat, alone: estimate_eta over the config's
    centers on r_eta."""
    r_eta = _radii(cfg, GreenKernelSpec.from_space(model.space))[1]
    return estimate_eta(mu, _resolve_centers(mu, cfg.centers), r_eta)


def _fit_eta(r_grid, masses: list) -> float | None:
    """estimate_eta's fit from each center's ball masses on r_grid."""
    slopes = []
    for row in masses:
        row = np.array(row)
        pos = np.isfinite(row) & (row > 0)
        if pos.sum() < 4:
            continue
        lr, lm = np.log(r_grid[pos]), np.log(row[pos])
        slopes.append(np.polyfit(lr, lm, 1)[0])
    return float(min(slopes)) if slopes else None


def classify_measure(mu: MeasureRep, model: ScalingKernelModel, p: float,
                     config: ClassifyConfig | None = None) -> ClassificationReport:
    """Run the membership criteria and produce a per-p report.

    Criteria (verdict matrix keys):
      green        ball Green-kernel integral, r -> 0
      res_loc_a1   localized resolvent at alpha = 1, r -> 0
      res_loc_a*   localized resolvent at a larger alpha, r -> 0
      sg_loc_t1    localized semigroup at a fixed t, r -> 0
      sg_loc_t*    localized semigroup at a smaller t, r -> 0
      sg_global    global semigroup, t -> 0
      res_global   global resolvent, alpha -> inf (scale 1/alpha -> 0)
    """
    cfg = config or ClassifyConfig()
    if not 1 <= p < INF:
        raise DomainError("p must be finite and >= 1")
    space = model.space
    nu, beta = space.nu, space.beta
    spec = GreenKernelSpec.from_space(space)
    centers = _resolve_centers(mu, cfg.centers)
    findings: list[str] = []
    fits: dict[str, LimitFit] = {}
    sweeps: dict[str, list] = {}

    def record(key, sweep):
        sweeps[key] = [(float(sc), float(est), est.error) for sc, est in sweep]
        fits[key] = classify_limit(sweeps[key])

    r_grid, r_eta = _radii(cfg, spec)

    # criterion 1: Green-kernel ball integrals (always available; ball
    # masses, G^0 = 1, when nu < beta).  All criteria run in one engine
    # call, each (key, scale, job): a localized one (scale None) over the
    # radius grid; a global one per scale, recorded against the equivalent
    # spatial scale (t^{1/beta}, alpha^{-1/beta}) so the one slope cutoff
    # discriminates the same way on every criterion
    runs = [("green", None, kato_job(spec, p, r_grid))]
    kernel_ok = mu.supports_kernel_criteria
    if kernel_ok:
        (a1, a2), (t1, t2) = cfg.localized_alphas, cfg.localized_times
        t1, t2 = min(t1, 0.5 * model.t0), min(t2, 0.125 * model.t0)
        runs += [("res_loc_a1", None, resolvent_job(model, p, a1, r_grid)),
                 ("res_loc_a*", None, resolvent_job(model, p, a2, r_grid)),
                 ("sg_loc_t1", None, semigroup_job(model, p, t1, r_grid)),
                 ("sg_loc_t*", None, semigroup_job(model, p, t2, r_grid))]
        t_grid = np.asarray(cfg.t_grid, dtype=float)
        runs += [("sg_global", t ** (1.0 / beta), semigroup_job(model, p, float(t), None))
                 for t in t_grid[t_grid < model.t0]]
        runs += [("res_global", a ** (-1.0 / beta), resolvent_job(model, p, float(a), None))
                 for a in np.asarray(cfg.alpha_grid, dtype=float)]
    else:
        findings.append("measure supports ball-mass tests only; kernel "
                        "criteria skipped")
    # where mu states no eta, estimate_eta's ball masses join the engine call;
    # below p* = eta / (nu - beta) every ball integral of a measure of stated
    # eta > 0 converges at every center, so no center waits for the first
    lead = mu.eta is None or not (mu.eta > 0.0 and p * (nu - beta) < mu.eta)
    found, masses = sups(mu, centers, [job for *_, job in runs],
                         r_eta if mu.eta is None else None, lead)
    # (an empty t grid still records sg_global, which then fails its fit)
    rows: dict[str, list] = {key: [] for key, *_ in runs + [("sg_global",)] * kernel_ok}
    for (key, scale, _), est in zip(runs, found):
        rows[key] += zip(r_grid, est) if scale is None else [(scale, est)]
    for key, sweep in rows.items():
        record(key, sweep)

    criteria = {k: _verdicts(f)[0] for k, f in fits.items()}
    certified_div = any(f.verdict == "diverges" and f.certified
                        for f in fits.values())

    if spec.regime == "trivial":
        # equivalence with the kernel criteria is known to fail here:
        # membership reduces to uniform finiteness of unit-ball mass
        fit = fits["green"]
        verdict_K = "in" if fit.verdict in ("tends_to_zero", "bounded") else (
            "out" if fit.verdict == "diverges" else "undecided")
        verdict_D = verdict_K
        criteria["green"] = verdict_K
        disagree = {k for k, v in criteria.items()
                    if k != "green" and v != criteria["green"]}
        if disagree:
            findings.append(
                "criteria disagreement in the nu < beta regime (expected; "
                f"equivalence fails): {sorted(disagree)}")
    else:
        verdict_K, verdict_D = _verdicts(fits["green"])
        seen = set(criteria.values())
        if len(seen) > 1:
            findings.append(f"criteria disagree: {criteria}")
            verdict_K = verdict_D = "out" if certified_div else "undecided"
        else:
            # Dynkin membership is finiteness at some fixed scale, judged
            # from the global semigroup sweep
            verdict_D = _verdicts(fits.get("sg_global", fits["green"]))[1]

    eta_hat = float(mu.eta) if masses is None else _fit_eta(r_eta, masses)
    p_star = (threshold_p_star(min(eta_hat, nu), nu, beta)
              if eta_hat is not None and eta_hat > 1e-6 else INF)

    # near the sharp threshold finite grids cannot distinguish the
    # log-corrected cases, unless divergence was certified outright
    if (eta_hat is not None and nu > beta
            and abs(eta_hat - p * (nu - beta)) < THRESHOLD_BAND
            and not certified_div):
        findings.append("p is within the near-threshold band; verdict forced "
                        "to undecided")
        verdict_K = verdict_D = "undecided"

    primary = fits.get("sg_global", fits["green"])
    return ClassificationReport(
        p=p, verdict_K=verdict_K, verdict_D=verdict_D, criteria=criteria,
        fits=fits, sweeps=sweeps, fitted_slope=primary.slope, slope_ci=primary.slope_ci,
        predicted_threshold=p_star, eta_hat=eta_hat, findings=findings,
        n_centers=len(centers))


def fit_order_delta(mu: MeasureRep, model: ScalingKernelModel, p: float,
                    config: ClassifyConfig | None = None) -> tuple[float, float]:
    """Fitted decay order delta with semigroup functional = O(t^{p delta}),
    every t of the grid in one engine run."""
    cfg = config or ClassifyConfig()
    centers = _resolve_centers(mu, cfg.centers)
    t_grid = [float(t) for t in cfg.t_grid if t < model.t0]
    if not t_grid:
        raise InsufficientDataError("no t of the grid lies below t0")
    _require_kernel_support(mu)
    found, _ = sups(mu, centers, [semigroup_job(model, p, t, None) for t in t_grid], None,
                    True)
    if any(est.diverged for est in found):
        raise InsufficientDataError("semigroup functional diverges; no "
                                    "decay order to fit")
    fit = classify_limit([(t, float(est) ** (1.0 / p), est.error)
                          for t, est in zip(t_grid, found)])
    return fit.slope, fit.slope_ci
