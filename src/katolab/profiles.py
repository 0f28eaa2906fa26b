"""Symbolic radial profile primitives: small parsed building blocks for
radial densities, and the Green kernel G of the (nu, beta) regime."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RadialProfile:
    """A nonnegative function of radius with known behavior at 0 and inf.

    singularity: growth exponent a with f(s) ~ s^{-a} as s -> 0 (0 if bounded);
    a description only: no quadrature reads or checks it.
    """

    fn: Callable
    singularity: float = 0.0

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))


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


def green_power_profile(spec: GreenKernelSpec, p: float) -> RadialProfile:
    """Vectorized s -> G(s)^p, with its singularity exponent."""
    if spec.regime == "power":
        a = p * (spec.nu - spec.beta)

        def f(s):
            with np.errstate(divide="ignore"):
                return np.asarray(s, dtype=float) ** (-a)

        return RadialProfile(f, singularity=a)
    if spec.regime == "log":

        def f(s):
            with np.errstate(divide="ignore"):
                return np.maximum(np.log(1.0 / np.asarray(s, dtype=float)), 0.0) ** p

        return RadialProfile(f)
    return RadialProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)))


def power_profile(exponent: float, coeff: float = 1.0) -> RadialProfile:
    """coeff * s^exponent (singular at 0 when exponent < 0)."""

    def f(s):
        with np.errstate(divide="ignore"):
            return coeff * s**exponent

    return RadialProfile(f, singularity=max(0.0, -exponent))


def log_profile(coeff: float = 1.0) -> RadialProfile:
    """coeff * log(1/s), truncated at 0 for s >= 1."""

    def f(s):
        with np.errstate(divide="ignore"):
            return coeff * np.maximum(np.log(1.0 / s), 0.0)

    return RadialProfile(f)


def exp_profile(rate: float, coeff: float = 1.0) -> RadialProfile:
    """coeff * exp(-rate * s)."""
    if not rate > 0:
        raise DomainError("exp profile rate must be positive")
    return RadialProfile(lambda s: coeff * np.exp(-rate * s))


def constant_profile(value: float) -> RadialProfile:
    if not value >= 0:
        raise DomainError("profile values must be nonnegative")
    return RadialProfile(lambda s: np.full_like(s, value, dtype=float))

