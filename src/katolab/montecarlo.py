"""Path-simulation oracle: expected additive functionals
E_x[int_0^t V(X_s) ds] of Brownian motion, cross-checked against kernel
quadrature.

Increments have variance dt per coordinate, matching the kernel
normalization exp(-|x-y|^2/2t).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

CLIP_BOUND = 1e12


@dataclass
class PathConfig:
    t: float = 1.0
    dt: float | None = None  # default t/1000
    n_paths: int = 10_000
    seed: int = 0
    x0: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def dim(self) -> int:
        """Dimension of the paths: the length of x0."""
        return len(self.x0)

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))
        if self.dt is None:
            self.dt = self.t / 1000.0
        if not 0.0 < self.dt < self.t:
            raise ValidationError("need 0 < dt < t")
        if self.n_paths < 100:
            raise ValidationError("need n_paths >= 100")


def _walk(cfg: PathConfig, dt: float, rng):
    """The Brownian path ensemble, shape (n_paths, dim), at the left ends
    k dt of the steps, k = 0, ..., t/dt - 1; a step's increments are drawn
    when its state is asked for."""
    x = np.tile(cfg.x0, (cfg.n_paths, 1))
    yield x
    for _ in range(int(round(cfg.t / dt)) - 1):
        x = x + rng.normal(scale=math.sqrt(dt), size=x.shape)
        yield x


def _functional_once(cfg: PathConfig, V, dt: float, rng) -> tuple:
    """Streaming left-Riemann sum of V along paths; returns per-path sums
    and the clip count.  V maps the (n_paths, dim) states of a step to
    their n_paths values."""
    acc = np.zeros(cfg.n_paths)
    clipped = 0
    for x in _walk(cfg, dt, rng):
        v = np.asarray(V(x), dtype=float)
        if v.shape != acc.shape:
            raise ValidationError(f"V maps the ({cfg.n_paths}, {cfg.dim}) states of a "
                                  f"step to shape {v.shape}, not ({cfg.n_paths},)")
        clipped += int((v > CLIP_BOUND).sum())
        acc += dt * np.minimum(v, CLIP_BOUND)
    return acc, clipped


def expected_additive_functional(cfg: PathConfig, V) -> tuple[float, float]:
    """(estimate, standard error) of E_x0[int_0^t V(X_s) ds].

    A half-step Richardson rerun checks that the Euler discretization bias
    is below the statistical error; a clipping warning fires when V exceeds
    the clip bound along paths.
    """
    rng = np.random.default_rng(cfg.seed)
    acc, clipped = _functional_once(cfg, V, cfg.dt, rng)
    mean = float(acc.mean())
    se = float(acc.std(ddof=1) / math.sqrt(cfg.n_paths))
    if clipped:
        warnings.warn(f"potential clipped at {CLIP_BOUND:g} on {clipped} "
                      "path steps", stacklevel=2)
    # Richardson bias check at dt/2 (independent randomness is fine here)
    rng2 = np.random.default_rng(cfg.seed + 1)
    acc2, _ = _functional_once(cfg, V, cfg.dt / 2.0, rng2)
    bias = abs(float(acc2.mean()) - mean)
    se2 = float(acc2.std(ddof=1) / math.sqrt(cfg.n_paths))
    if bias > 3.0 * max(math.hypot(se, se2), 1e-12):
        warnings.warn(f"discretization bias {bias:.3g} exceeds the "
                      f"statistical error {se:.3g}; reduce dt", stacklevel=2)
    return mean, se


def quadrature_additive_functional(model, cfg: PathConfig, V_radial,
                                   center=None) -> float:
    """Deterministic oracle E_x[int_0^t V(X_s) ds] = int_0^t P_s V(x) ds
    computed by Fubini against the time-integrated kernel, for V radial
    about `center` (default: the start point); V_radial is vectorized in
    the distance, as a RadialDensity profile is."""
    from .measures import RadialDensity, integrate_global

    c = cfg.x0 if center is None else np.atleast_1d(np.asarray(center, float))
    mu = RadialDensity(V_radial, dim=cfg.dim, origin=c)
    qt = model.qt_radial(cfg.t)
    est = integrate_global(mu, cfg.x0, lambda s: qt(s))
    return float(est)
