"""The `kernel-check` command's code: the heat kernel at two points and the
structural invariant suite of a kernel model.  Classify runs neither, so
`import katolab` does not load this module (katolab resolves its names on
first access)."""
from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
from .kernels import ScalingKernelModel


def eval_heat_kernel(model: ScalingKernelModel, t: float, x, y) -> float:
    """p_t(x, y); AccuracyError where it is not a finite value >= 0."""
    if t <= 0:
        raise DomainError("t must be positive")
    if model.estimate_only and t >= model.t0:
        raise DomainError(f"t={t} is outside the estimate window ]0, {model.t0}[")
    r = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
    val = float(np.asarray(model.pt_radial(t, np.array([r])))[0])
    if not math.isfinite(val) or val < 0:
        raise AccuracyError(f"heat kernel evaluation overflowed at t={t}, r={r}",
                            best_estimate=val)
    return val


def kernel_invariant_suite(model: ScalingKernelModel, n_samples: int = 1000,
                           seed: int = 0) -> list[tuple[str, int, int]]:
    """Run the structural kernel invariants; rows are (name, samples, failures)."""
    rng = np.random.default_rng(seed)
    rows = []

    # Phi1 <= Phi2 on sampled u
    us = rng.uniform(0.0, 10.0, size=256)
    fails = int(np.sum(np.asarray(model.phi1(us)) > np.asarray(model.phi2(us)) * (1 + 1e-9)))
    rows.append(("phi1 <= phi2", 256, fails))

    # sandwich on random (t, x, y) with t < t0
    t_hi = min(model.t0, 1.0)
    nu, beta = model.space.nu, model.space.beta
    fails = 0
    for _ in range(n_samples):
        t = float(rng.uniform(0.01, 0.99)) * t_hi
        r = float(rng.uniform(0.0, 3.0))
        p = float(np.asarray(model.pt_radial(t, np.array([r])))[0])
        u = r / t ** (1.0 / beta)
        lo = float(np.asarray(model.phi1(np.array([u])))[0]) * t ** (-nu / beta)
        hi = float(np.asarray(model.phi2(np.array([u])))[0]) * t ** (-nu / beta)
        if not (lo * (1 - 1e-9) - 1e-300 <= p <= hi * (1 + 1e-9) + 1e-300):
            fails += 1
    rows.append(("profile sandwich", n_samples, fails))

    # symmetry in (x, y)
    fails = 0
    dim = model.space.ambient_dim
    for _ in range(64):
        x, y = rng.normal(size=(2, dim))
        t = float(rng.uniform(0.05, 0.95)) * t_hi
        if eval_heat_kernel(model, t, x, y) != eval_heat_kernel(model, t, y, x):
            fails += 1
    rows.append(("symmetry", 64, fails))

    # time integral / resolvent bridge: int_0^t p_s ds <= e^{alpha t} r_alpha.
    # Estimate-only families realise q_t and r_alpha through separate
    # closed-form surrogates, so the bridge only holds up to the
    # comparability constant; allow that slack for them.
    slack = 8.0 if model.estimate_only else 1.0 + 1e-6
    fails = 0
    for _ in range(32):
        t = float(rng.uniform(0.05, 0.95)) * t_hi
        alpha = float(rng.uniform(0.5, 8.0))
        r = float(rng.uniform(0.05, 2.0))
        q = float(np.asarray(model.qt_radial(t)(np.array([r])))[0])
        ra = model.resolvent_scalar(alpha, r)
        if math.isfinite(q) and q > math.exp(alpha * t) * ra * slack:
            fails += 1
    rows.append(("q_t <= C e^{alpha t} r_alpha", 32, fails))

    return rows
