"""Ambient data of a kernel model on Euclidean R^d."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: upper end of the log-kernel domain ]0, 1/e], where log(1/r) >= 1
LOG_CAP = 1.0 / math.e


def unit_ball_volume(d: float) -> float:
    """Volume of the unit ball in dimension d (real d via the Gamma function)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_area(d: float) -> float:
    """Surface area of the unit sphere in R^d, i.e. d * omega_d."""
    return d * unit_ball_volume(d)


@dataclass(frozen=True)
class SpaceModel:
    """R^d with volume exponent nu and walk exponent beta."""

    ambient_dim: int
    nu: float
    beta: float

    def __post_init__(self):
        if self.nu <= 0 or self.beta <= 0:
            raise ValidationError("nu and beta must be positive")
        if self.ambient_dim < 1:
            raise ValidationError("ambient_dim must be a positive integer")
