"""Command-line entry points: classify, sweep-p, kernel-check, mc-check.

CSV values are written in full-precision scientific notation so a re-parse
reproduces the in-memory reports bit-exactly.  Exit codes: 0 success,
2 when classify leaves at least one Kato or Dynkin verdict undecided, 1 on
error.
"""
from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .classification import classify_measure, fit_order_delta, fitted_eta
from .config import RunConfig, parse_config_text
from .errors import KatolabError
from .profiles import RadialProfile


def _fmt(v: float) -> str:
    return f"{float(v):.16e}"


def _write_csv(path: Path, header: list, rows) -> None:
    """Write header and rows to the CSV file path, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_classify(run: RunConfig, out_dir: Path) -> int:
    reports = [classify_measure(run.measure, run.model, p, run.classify)
               for p in run.p_list]
    _write_csv(out_dir / "classify.csv",
               ["p", "criterion", "scale", "value", "error", "verdict"],
               ([_fmt(rep.p), key, _fmt(scale), _fmt(value), _fmt(err), rep.criteria[key]]
                for rep in reports for key, rows in rep.sweeps.items()
                for scale, value, err in rows))

    lines = ["classification report", "====================="]
    for rep in reports:
        lines.append(f"p = {rep.p:g}: Kato {rep.verdict_K}, "
                     f"Dynkin {rep.verdict_D}")
        lines.append(f"  predicted threshold p* = {rep.predicted_threshold:g}"
                     f"  (fitted eta = {rep.eta_hat if rep.eta_hat is not None else 'n/a'})")
        lines.append(f"  criteria: {rep.criteria}")
        lines.append(f"  primary slope = {rep.fitted_slope:.4f} "
                     f"+- {rep.slope_ci:.4f}")
        for note in rep.findings:
            lines.append(f"  note: {note}")
        lines.append("  sup over finite center set "
                     f"({rep.n_centers} centers): verdicts are "
                     "lower-bound certificates for divergence only")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))

    verdicts = {v for rep in reports for v in (rep.verdict_K, rep.verdict_D)}
    return 2 if "undecided" in verdicts else 0


def cmd_sweep_p(run: RunConfig, out_dir: Path) -> int:
    space = run.model.space
    nu, beta = space.nu, space.beta
    # the decay order that eta = min(eta_hat, nu) predicts, as for classify's p*
    eta_hat = fitted_eta(run.measure, run.model, run.classify)
    eta = math.nan if eta_hat is None else min(eta_hat, nu)
    rows = []
    for p in run.p_list:
        bound = (eta - p * (nu - beta)) / (p * beta)
        try:
            delta, ci = fit_order_delta(run.measure, run.model, p,
                                        run.classify)
            rows.append((p, delta, delta - ci, delta + ci, bound, "ok"))
        except KatolabError as exc:
            rows.append((p, math.nan, math.nan, math.nan, bound,
                         f"no-fit: {exc}"))
    _write_csv(out_dir / "sweep_p.csv", ["p", "delta_hat", "ci_lo", "ci_hi", "bound", "status"],
               ([*map(_fmt, row[:-1]), row[-1]] for row in rows))
    for p, d, lo, hi, b, status in rows:
        print(f"p={p:g}: delta_hat={d:.4f} ci=[{lo:.4f},{hi:.4f}] "
              f"bound={b:.4f} {status}")
    return 0


def cmd_kernel_check(run: RunConfig, out_dir: Path) -> int:
    # classify never runs kernel-check: it loads here, not with the CLI
    from .kernelcheck import kernel_invariant_suite
    rows = kernel_invariant_suite(run.model, seed=run.classify.seed)
    _write_csv(out_dir / "kernel_check.csv", ["invariant", "samples", "failures"], rows)
    for name, n, fails in rows:
        print(f"{'pass' if fails == 0 else 'FAIL':4s}  {name:32s} {fails}/{n} failures")
    return 0 if all(fails == 0 for *_, fails in rows) else 1


_MC_POTENTIALS = [
    ("gaussian-bump", RadialProfile(lambda s: np.exp(-np.asarray(s, float) ** 2))),
    ("indicator", RadialProfile(lambda s: (np.asarray(s, float) <= 1.0) * 1.0)),
    ("cauchy", RadialProfile(lambda s: 1.0 / (1.0 + np.asarray(s, float) ** 2))),
    ("tent", RadialProfile(lambda s: np.maximum(1.0 - np.asarray(s, float), 0.0))),
    ("constant", RadialProfile(lambda s: np.ones_like(np.asarray(s, float)))),
]


def cmd_mc_check(run: RunConfig, out_dir: Path) -> int:
    # classify never runs montecarlo: it loads here, not with the CLI
    from .montecarlo import (PathConfig, expected_additive_functional,
                             quadrature_additive_functional)

    model = run.model
    dim = model.space.ambient_dim
    if model.family != "gaussian":
        print("mc-check supports the gaussian family only", file=sys.stderr)
        return 1
    starts = [np.r_[shift, np.zeros(dim - 1)] for shift in (0.0, 0.5, -1.0)]
    rows, n_pass = [], 0
    for name, prof in _MC_POTENTIALS:
        for x0 in starts:
            cfg = PathConfig(t=0.5, seed=run.classify.seed, x0=x0)
            mc, se = expected_additive_functional(
                cfg, lambda y: prof(np.linalg.norm(np.atleast_2d(y), axis=-1)))
            quad = quadrature_additive_functional(model, cfg, prof,
                                                  center=np.zeros(dim))
            ok = abs(mc - quad) <= 3.0 * max(se, 1e-12)
            n_pass += ok
            rows.append((name, x0[0], mc, se, quad, ok))
    _write_csv(out_dir / "mc_check.csv", ["potential", "x0", "mc", "se", "quadrature", "pass"],
               ([name, *map(_fmt, vals), str(ok)] for name, *vals, ok in rows))
    for name, x0, mc, se, quad, ok in rows:
        print(f"{'pass' if ok else 'FAIL'}  {name:14s} x0={x0:+.2f} "
              f"mc={mc:.5f}+-{se:.5f} quad={quad:.5f}")
    print(f"{n_pass}/{len(rows)} within 3 SE")
    return 0 if n_pass >= len(rows) - 1 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="katolab",
        description="Classify positive measures into L^p Kato/Dynkin classes "
                    "for symmetric Markov processes with two-sided heat "
                    "kernel estimates.")
    parser.add_argument("command",
                        choices=["classify", "sweep-p", "kernel-check",
                                 "mc-check"])
    parser.add_argument("--config", required=True, help="run config path")
    parser.add_argument("--out", default="out", help="output directory")
    # each flag below sets the config key of its dest, as text that
    # RunConfig.from_dict reads as it reads the file's
    parser.add_argument("--seed", dest="sweep.seed")
    parser.add_argument("--p", dest="sweep.p", help="comma-separated p list")
    parser.add_argument("--grid-depth", dest="sweep.grid_depth",
                        help="finest dyadic level j of the r grid")
    parser.add_argument("--centers", dest="sweep.centers_random",
                        help="number of random centers")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            kv = parse_config_text(fh.read())
        kv.update((key, val) for key, val in vars(args).items()
                  if key.startswith("sweep.") and val not in (None, ""))
        run = RunConfig.from_dict(kv)
        out_dir = Path(args.out)
        if args.command == "classify":
            return cmd_classify(run, out_dir)
        if args.command == "sweep-p":
            return cmd_sweep_p(run, out_dir)
        if args.command == "kernel-check":
            return cmd_kernel_check(run, out_dir)
        return cmd_mc_check(run, out_dir)
    except KatolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
