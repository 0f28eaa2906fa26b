"""Path-simulation oracle: expected additive functionals
E_x[int_0^t V(X_s) ds] cross-checked against kernel quadrature.

Brownian increments have variance dt per coordinate, matching the kernel
normalization exp(-|x-y|^2/2t); symmetric stable increments use the
Chambers-Mallows-Stuck sampler with scale dt^{1/alpha}, so alpha = 2
degenerates to a Brownian motion with variance 2t.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import DomainError, ValidationError

CLIP_BOUND = 1e12


@dataclass
class PathConfig:
    process: str = "brownian"  # brownian | stable
    alpha: float = 2.0
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
        if self.process not in ("brownian", "stable"):
            raise DomainError(f"unknown process {self.process!r}")
        if self.process == "stable" and not 0.0 < self.alpha <= 2.0:
            raise DomainError("stable alpha must lie in ]0, 2]")


def _increments(cfg: PathConfig, dt: float, rng):
    """One step of dt of increments, shape (n_paths, dim)."""
    size = (cfg.n_paths, cfg.dim)
    if cfg.process == "brownian":
        return rng.normal(scale=math.sqrt(dt), size=size)
    a = cfg.alpha
    if a == 2.0:
        return rng.normal(scale=math.sqrt(2.0 * dt), size=size)
    # Chambers-Mallows-Stuck, symmetric case
    U = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=size)
    W = rng.exponential(size=size)
    X = (np.sin(a * U) / np.cos(U) ** (1.0 / a)
         * (np.cos(U - a * U) / W) ** ((1.0 - a) / a))
    return dt ** (1.0 / a) * X


def _walk(cfg: PathConfig, dt: float, rng):
    """The path ensemble, shape (n_paths, dim), at the times k dt for
    k = 0, ..., t/dt; a step's increments are drawn when its state is asked for."""
    x = np.tile(cfg.x0, (cfg.n_paths, 1))
    for _ in range(int(round(cfg.t / dt))):
        yield x
        x = x + _increments(cfg, dt, rng)
    yield x


def simulate_paths(cfg: PathConfig) -> np.ndarray:
    """Full path ensemble, shape (n_paths, n_steps + 1, dim)."""
    out = np.empty((cfg.n_paths, int(round(cfg.t / cfg.dt)) + 1, cfg.dim))
    for k, x in enumerate(_walk(cfg, cfg.dt, np.random.default_rng(cfg.seed))):
        out[:, k] = x
    return out


def _functional_once(cfg: PathConfig, V, dt: float, rng) -> tuple:
    """Streaming left-Riemann sum of V along paths; returns per-path sums
    and the clip count."""
    acc = np.zeros(cfg.n_paths)
    clipped = 0
    rowwise = False
    for x in islice(_walk(cfg, dt, rng), int(round(cfg.t / dt))):
        if not rowwise:
            try:
                v = np.asarray(V(x), dtype=float)
            except Exception:
                rowwise = True
            else:
                rowwise = v.shape != (cfg.n_paths,)
        if rowwise:
            v = np.asarray([float(V(p)) for p in x], dtype=float)
        big = v > CLIP_BOUND
        clipped += int(big.sum())
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
    about `center` (default: the start point)."""
    from .measures import RadialDensity, integrate_global
    from .profiles import RadialProfile

    c = cfg.x0 if center is None else np.atleast_1d(np.asarray(center, float))
    prof = V_radial if isinstance(V_radial, RadialProfile) else RadialProfile(V_radial)
    mu = RadialDensity(prof, dim=cfg.dim, origin=c)
    qt = model.qt_radial(cfg.t)
    est = integrate_global(mu, cfg.x0, lambda s: qt(s))
    return float(est)
