"""Metric-measure ambient data for a kernel model."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

#: upper end of the log-kernel domain ]0, 1/e], where log(1/r) >= 1
LOG_CAP = 1.0 / math.e
SPOT_CHECK_PAIRS = 16  # random point pairs on which a metric is checked


def euclidean(x, y) -> float:
    return float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))


def unit_ball_volume(d: float) -> float:
    """Volume of the unit ball in dimension d (real d via the Gamma function)."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def sphere_surface_area(d: float) -> float:
    """Surface area of the unit sphere in R^d, i.e. d * omega_d."""
    return d * unit_ball_volume(d)


@dataclass(frozen=True)
class SpaceModel:
    """Ambient space data: volume exponent nu, walk exponent beta, metric,
    and an increasing ball-volume bound V(r)."""

    ambient_dim: int
    nu: float
    beta: float
    metric: Callable = euclidean
    volume_bound: Callable | None = None

    def __post_init__(self):
        if self.nu <= 0 or self.beta <= 0:
            raise ValidationError("nu and beta must be positive")
        if self.ambient_dim < 1:
            raise ValidationError("ambient_dim must be a positive integer")
        if self.volume_bound is None:
            c = unit_ball_volume(self.nu) if self.nu == self.ambient_dim else 1.0
            object.__setattr__(self, "volume_bound", lambda r, c=c, nu=self.nu: c * r**nu)
        self._spot_check()

    def _spot_check(self) -> None:
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(SPOT_CHECK_PAIRS, 2, self.ambient_dim))
        for x, y in pts:
            dxy, dyx = self.metric(x, y), self.metric(y, x)
            if abs(dxy - dyx) > 1e-12 * (1.0 + abs(dxy)):
                raise ValidationError("metric is not symmetric")
            if abs(self.metric(x, x)) > 1e-12:
                raise ValidationError("metric is nonzero on the diagonal")
        # V(r)/r^nu must be increasing or bounded on a sampled grid
        rs = np.geomspace(1e-3, 1e3, 25)
        ratios = np.array([self.volume_bound(r) / r**self.nu for r in rs])
        increasing = np.all(np.diff(ratios) >= -1e-9 * ratios[:-1])
        bounded = ratios.max() <= 1e6 * max(ratios.min(), 1e-300)
        if not (increasing or bounded):
            raise ValidationError("V(r)/r^nu is neither increasing nor bounded")

    def distance(self, x, y) -> float:
        return self.metric(x, y)
