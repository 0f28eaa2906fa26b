#!/usr/bin/env python3
"""katolab benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload cli-cold --seed 7 --seconds 20 --trace 0

Workloads: cli-cold, sweep-warm, density-offcenter (see perfbench/README.md);
``--workload all`` runs each of them in turn, in its own process.
``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1`` adds
one traced pass and prints the per-layer metrics.  Metric names and units
come from BENCHMARK.json.  Times of the end-to-end metrics are CPU seconds
at a fixed nominal speed of the benchmark's core (see speed.py); the
per-layer times are wall seconds.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Details, and the raw spans of a traced
run, are written under .perfbench-out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = ["import", "config", "cli", "classification", "functionals",
          "measures", "quadrature", "kernels", "bench"]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def end_to_end(run) -> dict:
    ops = [op for p in run.passes for op in p.ops]
    # deciles, interpolated as numpy.percentile does
    deciles = statistics.quantiles([op.s for op in ops], n=10,
                                   method="inclusive")
    finite = [c for p in run.passes for c in p.checks if math.isfinite(c.value)]
    return {
        "setup_s": statistics.median(run.setup),
        "pass_s": statistics.median(sum(op.s for op in p.ops)
                                    for p in run.passes),
        "op_p50_s": deciles[4],
        "op_p90_s": deciles[8],
        "max_rel_err": max((c.rel_err for c in finite), default=float("nan")),
        "peak_rss_mb": run.peak_rss_mb,
        # not in BENCHMARK.json (zero when all is well, or raw wall time);
        # printed and saved
        "failed_frac": sum(not op.ok for op in ops) / len(ops),
        "err_covered_frac": (sum(c.covered for c in finite) / len(finite)
                             if finite else float("nan")),
        "wall_s": statistics.median(p.wall for p in run.passes),
    }


def per_layer(run, e2e: dict) -> dict:
    tp = run.traced
    agg = tp.trace
    sp = agg["spans"]

    def get(name, key="calls"):
        return sp.get(name, {}).get(key, 0)

    m = {}
    for name in ("kernels.resolvent_radial", "kernels.resolvent_scalar",
                 "kernels.qt_radial", "quadrature.integrate_to_zero",
                 "quadrature.integrate_outward", "measures.integrate_over_ball",
                 "measures.integrate_global", "measures.ball_mass",
                 "functionals.kato_functional", "functionals.semigroup_functional",
                 "functionals.resolvent_functional",
                 "functionals.sup_over_centers",
                 "classification.classify_measure"):
        m[f"{name}.calls"] = get(name)
        m[f"{name}.s"] = get(name, "s")
    for name in ("kernels.kernel_eval", "measures.radial_mass_density"):
        m[f"{name}.points"] = get(name, "payload")
        m[f"{name}.s"] = get(name, "s")
    built, rr = get("kernels.resolvent_table"), get("kernels.resolvent_radial")
    m["kernels.resolvent_tables_built"] = built
    m["kernels.resolvent_hit_ratio"] = (rr - built) / rr if rr else 0.0
    quad_calls = (get("quadrature.integrate_to_zero")
                  + get("quadrature.integrate_outward"))
    m["quadrature.gauss_panel.calls"] = get("quadrature.gauss_panel")
    m["quadrature.panels_per_call"] = (get("quadrature.gauss_panel") / quad_calls
                                       if quad_calls else 0.0)
    m["quadrature.diverged_frac"] = (
        (get("quadrature.integrate_to_zero", "payload")
         + get("quadrature.integrate_outward", "payload")) / quad_calls
        if quad_calls else 0.0)
    m["functionals.sup_over_centers.self_s"] = get(
        "functionals.sup_over_centers", "self_s")
    m["functionals.objective.calls"] = get("functionals.objective")
    m["functionals.pool_busy_frac"] = (agg["pool_cpu_s"] / agg["pool_capacity_s"]
                                       if agg["pool_capacity_s"] else 0.0)
    m["functionals.center_build.s"] = get("functionals.center_build", "s")
    m["classification.classify_limit.s"] = get("classification.classify_limit", "s")
    m["classification.estimate_eta.s"] = get("classification.estimate_eta", "s")
    m["config.from_file.s"] = get("config.from_file", "s")
    m["cli.cmd_classify.self_s"] = get("cli.cmd_classify", "self_s")
    m["import.katolab.s"] = get("import.katolab", "s")

    selfs = {layer: 0.0 for layer in LAYERS}
    for name, row in sp.items():
        selfs[name.split(".", 1)[0]] += row["self_s"]
    for layer, v in selfs.items():
        m[f"layer.{layer}.self_s"] = v
    m["trace.wall_s"] = tp.wall
    m["trace.untraced_wall_s"] = e2e["wall_s"]
    # at nominal speed, as the wall times of the two passes met other speeds
    m["trace.overhead_s"] = sum(op.s for op in tp.ops) - e2e["pass_s"]
    m["trace.self_sum_frac"] = sum(selfs.values()) / tp.wall
    m["trace.spans"] = agg["n_spans"]
    checks = [c for c in tp.checks if math.isfinite(c.value)]
    m["accuracy.oracle_checks"] = len(checks)
    m["accuracy.err_covered_frac"] = (sum(c.covered for c in checks) / len(checks)
                                      if checks else 0.0)
    return m


def config_breakdown(configs: dict) -> dict:
    """cli-cold: per config, the largest layer against resolvent_radial.s."""
    out = {}
    for name, row in configs.items():
        sp = row["trace"]["spans"]
        rr = sp.get("kernels.resolvent_radial", {}).get("s", 0.0)
        selfs = {}
        for span, r in sp.items():
            layer = span.split(".", 1)[0]
            selfs[layer] = selfs.get(layer, 0.0) + r["self_s"]
        rivals = {f"layer.{k}.self_s": v for k, v in selfs.items() if k != "kernels"}
        rivals["kernels.resolvent_radial.s"] = rr
        top = max(rivals, key=rivals.get)
        out[name] = {"wall_s": row["wall_s"], "resolvent_radial_s": rr,
                     "resolvent_share": rr / row["wall_s"], "largest": top}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind, so that the reference process and children stop
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "katolab" / "__init__.py").is_file():
        fail("no katolab sources under ./src: run from the repository root")
    if not (root / "configs").is_dir():
        fail("no ./configs directory: run from the repository root")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload == "all":  # each workload in its own process, in turn
        import subprocess

        codes = [subprocess.call([sys.executable, __file__, "--workload",
                                  w["name"], "--seed", str(args.seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)], cwd=root)
                 for w in bench["workloads"]]
        return max(codes)

    # the program's own defaults: thread pool of min(8, nproc)
    os.environ.pop("KATOLAB_THREADS", None)
    os.environ["PYTHONPATH"] = str(src)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    # the reference process starts before katolab starts any thread
    with workloads.Speed(root / ".perfbench-out") as speed:
        import katolab

        if Path(katolab.__file__).resolve().parent != src / "katolab":
            fail(f"imported katolab from {katolab.__file__}, not from ./src")
        run = workloads.WORKLOADS[args.workload](root, args.seed, args.seconds,
                                                 bool(args.trace), speed)
        run_factor = speed.factor(speed.start, speed.snap())
    e2e = end_to_end(run)
    info = machine()
    info.update(core=speed.core, speed=run_factor)
    ops = [op for p in run.passes for op in p.ops]
    failed = [op for op in ops if not op.ok]

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    units.update(failed_frac="1", err_covered_frac="1", wall_s="s")
    n_checks = sum(len(p.checks) for p in run.passes)
    notes = {"setup_s": f"median of {len(run.setup)} set-ups",
             "pass_s": f"median of {len(run.passes)} passes",
             "wall_s": f"median of {len(run.passes)} passes, wall time "
                       f"at speed {run_factor:.3f} of nominal",
             "op_p50_s": f"{len(ops)} ops pooled over the passes",
             "op_p90_s": f"{len(ops)} ops pooled over the passes",
             "failed_frac": f"{len(failed)}/{len(ops)} ops",
             "max_rel_err": f"{n_checks} oracle checks",
             "err_covered_frac": f"{n_checks} oracle checks"}
    for name, v in e2e.items():
        print(f"  {name:18s} {v:14.6g} {units[name]:6s} {notes.get(name, '')}")
    for op in failed:
        print(f"  FAILED {op.name}: {op.why}")

    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "machine": info, "end_to_end": e2e,
               "setup": run.setup,
               "worst_checks": [
                   {**vars(c), "rel_err": c.rel_err, "covered": c.covered}
                   for c in sorted(run.passes[0].checks,
                                   key=lambda c: -c.rel_err)[:8]],
               "passes": [{"wall": p.wall, "s": sum(op.s for op in p.ops),
                           "ops": [vars(op) for op in p.ops]} for p in run.passes]}
    out_dir = root / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        layers = per_layer(run, e2e)
        details["per_layer"] = layers
        details["spans"] = run.traced.trace["spans"]
        if "configs" in run.traced.notes:
            details["configs"] = config_breakdown(run.traced.notes["configs"])
            for name, row in details["configs"].items():
                print(f"  traced {name}: wall {row['wall_s']:.3f} s, "
                      f"resolvent_radial {row['resolvent_radial_s']:.3f} s "
                      f"({100 * row['resolvent_share']:.1f}%), "
                      f"largest {row['largest']}")
        if "tracer" in run.traced.notes:
            run.traced.notes["tracer"].save(
                out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
        for name in ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                     "trace.self_sum_frac"):
            print(f"  {name:28s} {layers[name]:.6g}")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(details, indent=1, default=str))

    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
