"""The three workloads.  Each returns a ``Run``: set-up times, and per pass
its wall time, op records and oracle checks.

A run measures passes back to back, one caller in one process (closed
loop), and starts another pass only while it still fits in ``seconds``.
Set-up and op times are CPU seconds at the nominal speed (``speed.py``);
wall times are kept beside them for the trace.
"""
from __future__ import annotations

import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from spans import Tracer, merge
from speed import Speed

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())


@dataclass
class Op:
    name: str
    s: float  # CPU seconds at the nominal speed
    ok: bool
    why: str = ""
    wall: float = 0.0


@dataclass
class Check:
    """A computed functional value against an independent reference."""

    name: str
    value: float
    oracle: float
    error: float  # the error bar katolab reports (error + stat_error)

    @property
    def rel_err(self) -> float:
        return abs(self.value - self.oracle) / abs(self.oracle)

    @property
    def covered(self) -> bool:
        return abs(self.value - self.oracle) <= self.error


@dataclass
class Pass:
    wall: float  # wall seconds, as measured
    ops: list
    checks: list = field(default_factory=list)
    trace: dict | None = None
    notes: dict = field(default_factory=dict)


@dataclass
class Run:
    setup: list
    passes: list
    peak_rss_mb: float
    traced: Pass | None = None


def measure(run_pass, seconds: float) -> list:
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(p.wall for p in passes) > seconds:
            return passes


def self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def verdict_ok(expected: dict, got: dict) -> tuple[bool, str]:
    for p, pair in expected.items():
        if got.get(p) != pair:
            return False, f"p={p}: expected {pair}, got {got.get(p)}"
    return True, ""


def traced_pass(run_pass) -> Pass:
    """One pass with every layer wrapped; the spans go into pass.trace."""
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(tracer)
    finally:
        tracer.uninstall()
    result.trace = tracer.aggregate()
    result.notes["tracer"] = tracer
    return result


# ---------------------------------------------------------------------------
# cli-cold: `katolab classify` on shipped configs, one fresh interpreter each

CLI_CONFIGS = ["ahlfors-eta2", "delta0-d1", "brownian-d3-lebesgue"]
# set-up children per config op, spread over the pass
SETUP_PER_OP = 1


def _spawn(root: Path, cmd: list, log: Path) -> tuple[float, int, float, float]:
    """Run a child to completion: (wall s, exit status, peak RSS MB, CPU s)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(errors="replace"))
    return (wall, proc.returncode, usage.ru_maxrss / 1024.0,
            usage.ru_utime + usage.ru_stime)


def _parse_report(text: str) -> dict:
    return {m[0]: [m[1], m[2]] for m in
            re.findall(r"^p = (\S+): Kato (\w+), Dynkin (\w+)$", text, re.M)}


def _lebesgue_checks(csv_path: Path) -> list:
    """Oracle rows of the brownian-d3-lebesgue sweeps (p < 3)."""
    import csv

    from katolab.classification import ClassifyConfig

    cfg = ClassifyConfig()
    a1, a2 = cfg.localized_alphas
    checks = []
    with open(csv_path, newline="") as fh:
        for row in list(csv.reader(fh))[1:]:
            p, key, scale = float(row[0]), row[1], float(row[2])
            value, err = float(row[3]), float(row[4])
            if p >= 3.0:
                continue
            if key == "green":
                ref = oracles.green_ball_lebesgue_d3(p, scale)
            elif key in ("res_loc_a1", "res_loc_a*"):
                ref = oracles.resolvent_lebesgue_d3(
                    p, a1 if key == "res_loc_a1" else a2, scale)
            elif key == "res_global":
                alpha = min(cfg.alpha_grid, key=lambda a: abs(a ** -0.5 - scale))
                ref = oracles.resolvent_lebesgue_d3(p, float(alpha))
            else:
                continue
            checks.append(Check(f"{key} p={p:g} scale={scale:g}", value, ref, err))
    return checks


def cli_cold(root: Path, seed: int, seconds: float, trace: bool,
             speed: Speed) -> Run:
    out_root = root / ".perfbench-out" / "cli-cold"
    py = sys.executable
    op_script = str(HERE / "cli_op.py")

    def cfg_path(name):
        return str(root / "configs" / f"{name}.cfg")

    setup, rss = [], 0.0

    def time_setup(name):
        nonlocal rss
        a = speed.snap()
        _, status, mb, cpu = _spawn(root, [py, op_script, "--setup-only",
                                           "--config", cfg_path(name),
                                           "--out", str(out_root / name),
                                           "--seed", str(seed)],
                                    out_root / "setup.log")
        if status != 0:
            raise RuntimeError(f"set-up child failed for {name}")
        setup.append(speed.scale(cpu, a, speed.snap()))
        rss = max(rss, mb)

    def run_pass(traced: bool = False) -> Pass:
        nonlocal rss
        ops, checks, aggs, configs = [], [], [], {}
        for name in CLI_CONFIGS:
            if not traced:
                for _ in range(SETUP_PER_OP):
                    time_setup(name)
            out = out_root / name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            cmd = [py, op_script, "--config", cfg_path(name), "--out", str(out),
                   "--seed", str(seed)] + (["--trace"] if traced else [])
            a = speed.snap()
            wall, status, mb, cpu = _spawn(root, cmd, out / "stderr.log")
            b = speed.snap()
            rss = max(rss, mb)
            ok, why = status == 0, f"exit status {status}"
            if ok:
                res = json.loads((out / "op.json").read_text())
                wall -= res["post_s"]
                cpu -= res["post_cpu_s"]
                verdicts = _parse_report((out / "report.txt").read_text())
                ok, why = verdict_ok(EXPECTED["cli-cold"][name], verdicts)
                if res["rc"] != 0:
                    ok, why = False, f"katolab exit code {res['rc']}"
                elif not res["csv_ok"]:
                    ok, why = False, "classify.csv does not re-parse to the sweeps"
                elif Path(res["katolab_file"]).resolve().parents[1] != root / "src":
                    ok, why = False, f"imported katolab from {res['katolab_file']}"
                if name == "brownian-d3-lebesgue":
                    rows = _lebesgue_checks(out / "classify.csv")
                    bad = [c.name for c in rows if not math.isfinite(c.value)]
                    if bad and ok:
                        ok, why = False, f"non-finite where finite expected: {bad[0]}"
                    checks += rows
                if traced:
                    aggs.append(res["trace"])
                    configs[name] = {"wall_s": wall, "trace": res["trace"]}
            ops.append(Op(name, speed.scale(cpu, a, b), ok, "" if ok else why,
                          wall))
        p = Pass(sum(o.wall for o in ops), ops, checks)
        if traced:
            p.trace = merge(aggs)
            p.notes["configs"] = configs
        return p

    passes = measure(run_pass, seconds)
    traced = run_pass(traced=True) if trace else None
    return Run(setup, passes, rss, traced)


# ---------------------------------------------------------------------------
# sweep-warm: a library p-sweep on reused models with warm resolvent tables

SPHERE_P = [1.25, 1.5, 1.75, 2.25, 2.5, 2.75]
RADIAL_P = [1.0, 1.25, 2.0]


def sweep_warm(root: Path, seed: int, seconds: float, trace: bool,
               speed: Speed) -> Run:
    from katolab import (CenterStrategy, ClassifyConfig, GaussianKernelModel,
                         RadialDensity, RadialProfile, SphereSurface)
    # looked up on each call, so that a traced pass sees the wrapped function
    from katolab import classification

    def inv_power(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return s ** -1.5

    start, cpu = speed.snap(), time.process_time()
    model = GaussianKernelModel(dim=3)
    sphere = SphereSurface(np.zeros(3), 1.0, 4.0 * math.pi)
    radial = RadialDensity(RadialProfile(inv_power, singularity=1.5), dim=3,
                           support_radius=1.0)
    sphere_cfg = ClassifyConfig(seed=seed, centers=CenterStrategy(
        n_support=8, n_random=8, seed=seed))
    radial_cfg = ClassifyConfig(seed=seed, centers=CenterStrategy(
        n_support=4, n_random=4, seed=seed))
    alphas = sorted(set(sphere_cfg.localized_alphas)
                    | set(map(float, sphere_cfg.alpha_grid)))
    for a in alphas:
        model.resolvent_radial(a)
    setup = [speed.scale(time.process_time() - cpu, start, speed.snap())]

    cases = ([("sphere", sphere, sphere_cfg, p) for p in SPHERE_P]
             + [("radial", radial, radial_cfg, p) for p in RADIAL_P])
    centers = sphere_cfg.centers.build(sphere)
    oracle_cache: dict = {}

    def sphere_oracle(key: str, p: float, scale: float) -> float | None:
        if p >= 2.0 or key not in ("green", "res_loc_a1", "res_loc_a*",
                                   "res_global"):
            return None
        if (key, p, scale) not in oracle_cache:
            a1, a2 = sphere_cfg.localized_alphas
            geo = (np.zeros(3), 1.0, 4.0 * math.pi)
            if key == "green":
                vals = [oracles.green_ball_sphere(x, p, scale, *geo)
                        for x in centers]
            elif key == "res_global":
                vals = [oracles.resolvent_sphere_d3(x, p, scale ** -2.0, *geo)
                        for x in centers]
            else:
                a = a1 if key == "res_loc_a1" else a2
                vals = [oracles.resolvent_sphere_d3(x, p, a, *geo, r=scale)
                        for x in centers]
            oracle_cache[key, p, scale] = max(vals)
        return oracle_cache[key, p, scale]

    def run_pass(tracer: Tracer | None = None) -> Pass:
        ops, reports = [], []
        t_pass = time.perf_counter()
        for name, mu, cfg, p in cases:
            op = Op(f"{name} p={p:g}", 0.0, True)
            a, cpu, t = speed.snap(), time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    rep = classification.classify_measure(mu, model, p, cfg)
                else:
                    rep = tracer.span("bench.op", classification.classify_measure,
                                      mu, model, p, cfg)
            except Exception as exc:  # an op that raises counts as failed
                op.ok, op.why = False, repr(exc)
            op.wall = time.perf_counter() - t
            op.s = speed.scale(time.process_time() - cpu, a, speed.snap())
            ops.append(op)
            if op.ok:
                reports.append((op, name, rep))
        wall = time.perf_counter() - t_pass

        checks = []
        for op, name, rep in reports:
            want = EXPECTED["sweep-warm"][name][f"{rep.p:g}"]
            if [rep.verdict_K, rep.verdict_D] != want:
                op.ok, op.why = False, f"verdict {rep.verdict_K}/{rep.verdict_D}"
            if name != "sphere":
                continue
            for key, rows in rep.sweeps.items():
                for scale, value, err in rows:
                    ref = sphere_oracle(key, rep.p, scale)
                    if ref is None:
                        continue
                    if not math.isfinite(value) and op.ok:
                        op.ok, op.why = False, f"{key} non-finite at {scale:g}"
                    checks.append(Check(f"sphere {key} p={rep.p:g} "
                                        f"scale={scale:g}", value, ref, err))
        return Pass(wall, ops, checks)

    passes = measure(run_pass, seconds)
    traced = traced_pass(run_pass) if trace else None
    return Run(setup, passes, self_rss_mb(), traced)


# ---------------------------------------------------------------------------
# density-offcenter: Green ball functional against a non-radial Density

X0 = np.array([0.8, 0.0, 0.0])
DENSITY_P = 1.5
DENSITY_RADII = [0.5, 0.25, 0.125]
# four centers at distance 0.8 from the bump, along tetrahedron directions;
# fixed so that the accuracy figures compare the same geometry on every seed.
# One op is the sup over all four (one kato_functional call), which averages
# each op over several seconds of a machine whose speed swings.
TETRA = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3)
DENSITY_CENTERS = [X0 + 0.8 * u for u in TETRA]
DENSITY_TOL = 0.05  # a value this far from the oracle is a wrong answer
SETUP_PER_OP_DENSITY = 10  # timed constructions before each op (see cli-cold)


def density_offcenter(root: Path, seed: int, seconds: float, trace: bool,
                      speed: Speed) -> Run:
    from katolab import Density, GreenKernelSpec, RadialDensity, RadialProfile
    from katolab import functionals

    def bump(y):
        d = np.asarray(y, dtype=float) - X0
        return math.exp(-float(d @ d))

    setup_cpu = []  # too short to sample the speed: scaled at the end

    def build():
        cpu = time.thread_time()
        built = Density(bump, dim=3), GreenKernelSpec(nu=3.0, beta=2.0)
        setup_cpu.append(time.thread_time() - cpu)
        return built

    mu, spec = build()
    # the same bump as a radial density about x0: every center sees the
    # same exact value, computed with katolab's Gauss-Legendre angular rule
    twin = RadialDensity(RadialProfile(
        lambda s: np.exp(-np.asarray(s, dtype=float) ** 2)), dim=3, origin=X0)
    order = list(DENSITY_RADII)
    np.random.default_rng(seed).shuffle(order)
    oracle = {r: functionals.kato_functional(twin, spec, DENSITY_P, r,
                                             centers=DENSITY_CENTERS).value
              for r in order}

    def run_pass(tracer: Tracer | None = None) -> Pass:
        ops, checks = [], []
        for r in order:
            if tracer is None:
                for _ in range(SETUP_PER_OP_DENSITY):
                    build()
            args = (mu, spec, DENSITY_P, r)
            kw = {"centers": DENSITY_CENTERS}
            op = Op(f"r={r:g}", 0.0, True)
            a, cpu, t = speed.snap(), time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    est = functionals.kato_functional(*args, **kw)
                else:
                    est = tracer.span("bench.op", functionals.kato_functional,
                                      *args, **kw)
            except Exception as exc:  # an op that raises counts as failed
                op.ok, op.why = False, repr(exc)
            op.wall = time.perf_counter() - t
            op.s = speed.scale(time.process_time() - cpu, a, speed.snap())
            ops.append(op)
            if not op.ok:
                continue
            check = Check(op.name, est.value, oracle[r],
                          est.error + est.stat_error)
            op.ok = (not est.diverged and math.isfinite(est.value)
                     and check.rel_err <= DENSITY_TOL)
            if not op.ok:
                op.why = f"value {est.value!r} vs oracle {check.oracle!r}"
            checks.append(check)
        return Pass(sum(op.wall for op in ops), ops, checks)

    passes = measure(run_pass, seconds)
    traced = traced_pass(run_pass) if trace else None
    f = speed.factor(speed.start, speed.snap())
    return Run([c * f for c in setup_cpu], passes, self_rss_mb(), traced)


WORKLOADS = {
    "cli-cold": cli_cold,
    "sweep-warm": sweep_warm,
    "density-offcenter": density_offcenter,
}
