#!/usr/bin/env python3
"""Time sweep-warm's classify calls under two checkouts in one process.

    python scripts/ab_classify.py PARENT_CHECKOUT [--fresh]

Loads the `katolab` of PARENT_CHECKOUT/src as the module `katolab_parent`
and the one of this checkout's src/ as `katolab_this`, and builds for each
the nine `classify_measure` calls of the sweep-warm workload: the unit
sphere surface in R^3 (16 centers) at p = 1.25, 1.5, 1.75, 2.25, 2.5, 2.75
and |y|^-1.5 on the unit ball (8 centers) at p = 1, 1.25, 2, both under the
Gaussian kernel in R^3 with the resolvents of the classify alphas built
first, centers drawn with seed SEED.  After one untimed round it runs
ROUNDS rounds; in each, op by op, both versions make the same call, in an
order that alternates from op to op and from round to round.  It prints,
per op and per pass (the nine ops), the median CPU time of each version,
the median and quartiles of the per-round ratios this / parent, and each
version's engine rounds (`quadrature._Panels.fetch` calls, counted on the
untimed round), so that a schedule change shows its mechanism.
With --fresh, each round first builds both versions' model and measures
anew, outside the timing: a round then times one sweep on a fresh model,
where without it every round after the first reuses one warm model, as
the workload does.
Interleaving puts both versions in the same moment of a
host whose speed swings, which separate benchmark runs do not.  It also
checks, on the untimed round, that both versions return the same report
(its whole repr: verdicts, sweeps, fits, findings, n_centers and eta_hat),
names each op where they differ, and then exits 1 after the timing.  The nine
calls are a copy of the workload's set-up: the script imports nothing from
the benchmark harness, so the two checkouts may differ there.
"""
from __future__ import annotations

import argparse
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPHERE_P = [1.25, 1.5, 1.75, 2.25, 2.5, 2.75]
RADIAL_P = [1.0, 1.25, 2.0]
SEED, ROUNDS = 7, 25


def load(src: Path, name: str):
    """The katolab package under src, imported as the module name."""
    pkg = src / "katolab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def inv_power(s):
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore"):
        return s ** -1.5


def ops(kl) -> list:
    """(name, call) of the nine classify ops, on one warm model."""
    model = kl.GaussianKernelModel(dim=3)
    sphere = kl.SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)
    radial = kl.RadialDensity(kl.RadialProfile(inv_power, singularity=1.5), dim=3,
                              support_radius=1.0)
    sphere_cfg = kl.ClassifyConfig(seed=SEED, centers=kl.CenterStrategy(
        n_support=8, n_random=8, seed=SEED))
    radial_cfg = kl.ClassifyConfig(seed=SEED, centers=kl.CenterStrategy(
        n_support=4, n_random=4, seed=SEED))
    for a in sorted(set(sphere_cfg.localized_alphas) | set(map(float, sphere_cfg.alpha_grid))):
        model.resolvent_radial(a)
    cases = ([("sphere", sphere, sphere_cfg, p) for p in SPHERE_P]
             + [("radial", radial, radial_cfg, p) for p in RADIAL_P])
    return [(f"{name} p={p:g}", lambda mu=mu, cfg=cfg, p=p: kl.classify_measure(mu, model, p, cfg))
            for name, mu, cfg, p in cases]


def rounds(kl, call) -> int:
    """The engine rounds (_Panels.fetch calls) of one call under kl."""
    panels = kl.quadrature._Panels
    fetch, count = panels.fetch, []
    panels.fetch = lambda *args: (count.append(1), fetch(*args))[1]
    try:
        call()
    finally:
        panels.fetch = fetch
    return len(count)


def cpu(call) -> float:
    t = time.process_time()
    call()
    return time.process_time() - t


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--fresh", action="store_true",
                        help="a new model and new measures for every round")
    args = parser.parse_args()
    versions = [load(args.parent.resolve() / "src", "katolab_parent"),
                load(ROOT / "src", "katolab_this")]
    sides = [ops(kl) for kl in versions]
    names = [name for name, _ in sides[0]]
    differ, engine = [], np.zeros((len(names), 2), int)
    for k, name in enumerate(names):  # the untimed round: the outputs and the rounds
        parent, this = (call() for call in (sides[0][k][1], sides[1][k][1]))
        if repr(parent) != repr(this):
            print(f"{name}: the reports differ")
            differ.append(name)
        engine[k] = [rounds(kl, side[k][1]) for kl, side in zip(versions, sides)]
    times = np.zeros((ROUNDS, len(names), 2))
    for i in range(ROUNDS):
        if args.fresh:
            sides = [ops(kl) for kl in versions]
        for k in range(len(names)):
            order = (0, 1) if (i + k) % 2 == 0 else (1, 0)
            for side in order:
                times[i, k, side] = cpu(sides[side][k][1])
    print(f"{'op':<14}{'parent ms':>11}{'this ms':>10}{'ratio':>8}{'quartiles':>16}"
          f"{'rounds':>12}")
    rows = [(name, times[:, k], engine[k]) for k, name in enumerate(names)]
    for name, t, (r0, r1) in rows + [("pass", times.sum(axis=1), engine.sum(axis=0))]:
        q1, ratio, q3 = statistics.quantiles(t[:, 1] / t[:, 0], n=4, method="inclusive")
        print(f"{name:<14}{1e3 * np.median(t[:, 0]):>11.2f}{1e3 * np.median(t[:, 1]):>10.2f}"
              f"{ratio:>8.3f}{q1:>8.3f}{q3:>8.3f}{r0:>7d} -> {r1}")
    if differ:
        print(f"the reports differ on {len(differ)} of {len(names)} ops")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
