"""Independent reference values for functionals katolab computes numerically.

d = 3 Brownian motion (katolab's Gaussian kernel, generator Delta/2) has the
resolvent r_alpha(s) = exp(-sqrt(2 alpha) s) / (2 pi s) (DLMF 10.32 with
K_{1/2}).  Powers of it, and of the Green kernel s^-1, integrate against
Lebesgue measure and against uniform sphere surface measure in closed form
through the regularized lower incomplete gamma function.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import special

INF = float("inf")


def _lower_gamma(a: float, k: float, lo: float, hi: float) -> float:
    """int_lo^hi s^(a-1) e^(-k s) ds for a > 0, k > 0."""
    if hi <= lo:
        return 0.0
    return (k ** -a * math.gamma(a)
            * (special.gammainc(a, k * hi) - special.gammainc(a, k * lo)))


def green_ball_lebesgue_d3(p: float, r: float) -> float:
    """int_{B_r} |y|^-p dy = 4 pi r^(3-p) / (3-p)."""
    return 4.0 * math.pi * r ** (3.0 - p) / (3.0 - p) if p < 3.0 else INF


def resolvent_lebesgue_d3(p: float, alpha: float, r: float = INF) -> float:
    """int_{B_r} r_alpha(|y|)^p dy; r = inf gives the global integral."""
    if p >= 3.0:
        return INF
    k = p * math.sqrt(2.0 * alpha)
    return (4.0 * math.pi * (2.0 * math.pi) ** -p
            * _lower_gamma(3.0 - p, k, 0.0, r))


def _sphere_window(x, center, radius: float, mass: float):
    rho = float(np.linalg.norm(np.asarray(x, float) - center))
    c = mass / (2.0 * radius * rho) if rho > 0.0 else 0.0
    return rho, abs(rho - radius), rho + radius, c


def green_ball_sphere(x, p: float, r: float, center, radius: float,
                      mass: float) -> float:
    """int_{B_r(x)} |x-y|^-p sigma(dy), p < 2, for uniform surface measure
    sigma: its radial mass density is c s on [|rho-R|, rho+R],
    c = mass/(2 R rho)."""
    rho, lo, hi, c = _sphere_window(x, center, radius, mass)
    if rho == 0.0:
        return mass * radius ** -p if r > radius else 0.0
    hi = min(hi, r)
    if hi <= lo:
        return 0.0
    return c * (hi ** (2.0 - p) - lo ** (2.0 - p)) / (2.0 - p)


def resolvent_sphere_d3(x, p: float, alpha: float, center, radius: float,
                        mass: float, r: float = INF) -> float:
    """int_{B_r(x)} r_alpha(|x-y|)^p sigma(dy), sigma as above, p < 2."""
    rho, lo, hi, c = _sphere_window(x, center, radius, mass)
    if rho == 0.0:
        val = math.exp(-math.sqrt(2 * alpha) * radius) / (2 * math.pi * radius)
        return mass * val ** p if r > radius else 0.0
    k = p * math.sqrt(2.0 * alpha)
    return c * (2.0 * math.pi) ** -p * _lower_gamma(2.0 - p, k, lo, min(hi, r))
