"""One `katolab classify` invocation in a fresh interpreter (a cli-cold op).

    python3 perfbench/cli_op.py --config configs/X.cfg --out DIR --seed N
        [--trace] [--setup-only]

Runs ``katolab.cli.main`` exactly as the console script does, then checks
that ``classify.csv`` re-parses to the in-memory sweep values bit-exactly,
and writes ``DIR/op.json``.  ``--setup-only`` stops after importing katolab
and parsing the config (the cli-cold set-up).  ``--trace`` records spans and
writes their per-name totals into op.json and the raw spans to
``DIR/spans.npz``.  ``PYTHONPATH`` must point at the checkout's ``src``.
"""
import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path


def csv_matches(path: Path, reports) -> bool:
    """classify.csv rows equal the reports' sweeps, value for value."""
    expect = [(rep.p, key, scale, value, err)
              for rep in reports
              for key, rows in rep.sweeps.items()
              for scale, value, err in rows]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != len(expect):
        return False
    for row, (p, key, scale, value, err) in zip(rows, expect):
        got = [float(row[0]), row[1], float(row[2]), float(row[3]), float(row[4])]
        for a, b in zip(got, (p, key, scale, value, err)):
            same = (a == b) or (isinstance(a, float) and math.isnan(a)
                                and math.isnan(b))
            if not same:
                return False
    return True


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_imp = time.perf_counter()
    import katolab  # noqa: F401
    import katolab.cli as cli
    t_imp_end = time.perf_counter()

    if args.setup_only:
        katolab.RunConfig.from_file(args.config)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.add_span("import.katolab", t_imp, t_imp_end)
        tracer.install()

    reports = []
    classify = cli.classify_measure

    def capture(*a, **kw):
        rep = classify(*a, **kw)
        reports.append(rep)
        return rep

    cli.classify_measure = capture
    out = Path(args.out)
    rc = cli.main(["classify", "--config", args.config, "--out", str(out),
                   "--seed", str(args.seed)])
    t_main_end = time.perf_counter()
    cpu_main_end = time.process_time()
    if tracer is not None:
        tracer.uninstall()

    result = {
        "rc": rc,
        "katolab_file": katolab.__file__,
        "verdicts": {f"{rep.p:g}": [rep.verdict_K, rep.verdict_D]
                     for rep in reports},
        "csv_ok": csv_matches(out / "classify.csv", reports),
    }
    if tracer is not None:
        result["trace"] = tracer.aggregate()
        tracer.save(out / "spans.npz")
    # the parent subtracts this checking and trace writing from the op time
    result["post_s"] = time.perf_counter() - t_main_end
    result["post_cpu_s"] = time.process_time() - cpu_main_end
    (out / "op.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
