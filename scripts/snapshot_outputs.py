#!/usr/bin/env python3
"""Write what the CLI produces on every shipped config into one directory.

    python scripts/snapshot_outputs.py DIR

Runs `katolab classify`, `sweep-p`, `kernel-check` and `mc-check` with
`--seed 7` on each `configs/*.cfg`, and `classify` once more with every
flag that sets a config key (`--p 1,1.5 --seed 3 --grid-depth 9
--centers 2`), one fresh interpreter per run, from the `src/` of the
checkout this script sits in.  mc-check exits 1 at once on the configs
whose kernel is not Gaussian.  Run k of config c writes its output files
under DIR/c/k/, with stdout.txt and exit_code.txt beside them (stderr,
whose warnings name source paths, passes through).  Two checkouts'
outputs are byte-identical when `diff -r DIR1 DIR2` is empty.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: run name -> command and flags
RUNS = {"classify": ["classify", "--seed", "7"],
        "sweep-p": ["sweep-p", "--seed", "7"],
        "kernel-check": ["kernel-check", "--seed", "7"],
        "mc-check": ["mc-check", "--seed", "7"],
        "classify-flags": ["classify", "--p", "1,1.5", "--seed", "3",
                           "--grid-depth", "9", "--centers", "2"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", type=Path, help="output directory")
    out = parser.parse_args().dir.resolve()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        for name, (cmd, *flags) in RUNS.items():
            run_dir = out / cfg.stem / name
            run_dir.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "katolab.cli", cmd, "--config", str(cfg),
                 "--out", str(run_dir), *flags],
                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
            (run_dir / "stdout.txt").write_text(proc.stdout)
            (run_dir / "exit_code.txt").write_text(f"{proc.returncode}\n")
            print(f"{cfg.stem} {name}: exit {proc.returncode}")


if __name__ == "__main__":
    main()
