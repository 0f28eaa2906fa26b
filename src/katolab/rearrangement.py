"""Rearrangement-based sufficient conditions for potentials V(x) = f(|x|):
centered radial integrals and layer-cake tail integrals over the
distribution function."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError
from .profiles import GreenKernelSpec, green_power_profile
from .quadrature import INF, integrate_outward, integrate_to_zero
from .space import LOG_CAP, unit_ball_volume

DECREASING_TOL = 1e-9  # relative rise check_decreasing forgives
INVERSE_TOL = 1e-12  # relative bracket width of right_continuous_inverse
TINY = np.finfo(float).tiny  # the smallest normal float


def check_decreasing(f: Callable) -> None:
    v = np.asarray(f(np.geomspace(1e-6, 1e3, 200)), dtype=float)
    if np.any(np.diff(v) > DECREASING_TOL * np.maximum(np.abs(v[:-1]), 1.0)):
        raise ValidationError("profile is not decreasing on the sampled grid")


def right_continuous_inverse(f: Callable) -> Callable:
    """t -> sup{s >= 0 : f(s) > t} for decreasing nonnegative f.

    At continuity points of f the composition f(f^{-1}(t)) recovers t; on
    plateaus the inverse jumps, which is exactly the right-continuous choice.
    """
    check_decreasing(f)
    f_at = lambda s: np.asarray(f(s), dtype=float)

    def inv(t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(arr < 0):
            raise DomainError("inverse is defined for t >= 0")
        tv, out = arr.ravel(), np.zeros(arr.size)
        lo, hi = np.zeros(arr.size), np.ones(arr.size)
        # all t at once, each by the steps of its own search: 0 where f(0) <= t;
        # hi doubles while f(hi) > t (inf past 1e15); lo halves from hi / 2 while
        # f(lo) <= t (0 below 1e-300); then bisection in log space, so that far
        # tails of the inverse keep their relative precision
        live = run = np.flatnonzero(~(f_at(np.zeros(arr.size)) <= tv))
        while len(run) and len(run := run[f_at(hi[run]) > tv[run]]):
            hi[run] *= 2.0
            run = run[hi[run] <= 1e15]
        out[live[hi[live] > 1e15]] = INF
        live = run = live[hi[live] <= 1e15]
        lo[live] = hi[live] / 2.0
        while len(run) and len(run := run[f_at(lo[run]) <= tv[run]]):
            lo[run] /= 2.0
            run = run[lo[run] >= 1e-300]
        live = run = live[lo[live] >= 1e-300]
        while len(run := run[hi[run] - lo[run] > INVERSE_TOL * hi[run]]):
            # sqrt(lo) sqrt(hi) where lo hi is not normal: it would stall at 0
            prod = lo[run] * hi[run]
            mid = np.where(prod < TINY, np.sqrt(lo[run]) * np.sqrt(hi[run]), np.sqrt(prod))
            up = f_at(mid) > tv[run]
            lo[run[up]], hi[run[~up]] = mid[up], mid[~up]
        out[live] = lo[live]
        return out.reshape(arr.shape) if np.ndim(t) else float(out[0])

    return inv


@dataclass
class DistributionFunction:
    """The decreasing distribution function t -> m(|V| >= t)."""

    fn: Callable

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    @classmethod
    def from_radial(cls, profile: Callable, d: int) -> "DistributionFunction":
        """Exact layer-cake form for a decreasing radial potential:
        m(|V| >= t) = omega_d * (f^{-1}(t))^d."""
        inv = right_continuous_inverse(profile)
        vol = unit_ball_volume(d)
        return cls(lambda t: vol * np.asarray(inv(t), dtype=float) ** d)


def radial_criterion(profile: Callable, d: int, alpha_exponent: float,
                     p: float, R: float = 1.0) -> tuple[float, bool]:
    """Centered integral test for |V| m with V = f(|x|) decreasing:
    finiteness of int_0^R r^{d-1} G(r)^p f(r) dr, G the Green kernel of
    (nu, beta) = (d, alpha) (R at most 1/e in its log regime)."""
    spec = GreenKernelSpec(d, alpha_exponent)
    if spec.regime == "log":
        R = min(R, LOG_CAP)
    g = green_power_profile(spec, p)
    res = integrate_to_zero(lambda r: r ** (d - 1.0) * g(r) * np.asarray(profile(r)), R)
    return (INF if res.diverged else res.value), not res.diverged


def layer_cake_criterion(dist: DistributionFunction, d: int,
                         alpha_exponent: float, p: float,
                         a: float = 1.0) -> tuple[float, bool]:
    """Tail test int_a^inf m(|V| >= t)^{(d - p(d-alpha))/d} dt."""
    if a <= 0:
        raise DomainError("a must be positive")
    if d > alpha_exponent:
        expo = (d - p * (d - alpha_exponent)) / d
        if not 0.0 < expo <= 1.0:
            raise DomainError("layer-cake exponent must lie in ]0, 1]")
    else:
        expo = 1.0  # plain variant

    res = integrate_outward(lambda t: np.asarray(dist(t)) ** expo, a)
    return (INF if res.diverged else res.value), not res.diverged

