#!/usr/bin/env python3
"""Print the three size figures that ROADMAP.md tracks for `src/katolab`.

    python scripts/size_report.py          # the three figures
    python scripts/size_report.py --list   # one counted option per line

Line 1: the line count of `src/katolab/*.py` (as `wc -l` counts it).
Line 2: the settable-option count, read with `ast`: every parameter with a
default in any function, plus every class field with a default (an
annotated assignment with a value in a class body).  Lambda defaults are
not counted: they bind closure values, which no caller sets.
Line 3: the classify-path line count: the lines of the katolab modules that
a fresh `import katolab.cli` loads (every command's start-up).

`--list` prints each counted option as `file:line owner.name=default`, the
owner being the dotted path of the function or class that declares it.
"""
from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "katolab"


def options(node: ast.AST, owner: str = ""):
    """(line, owner, name, default) of every counted option under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            path = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.ClassDef):
                for s in child.body:
                    if isinstance(s, ast.AnnAssign) and s.value is not None:
                        yield s.lineno, path, ast.unparse(s.target), s.value
            else:
                a = child.args
                pos = a.posonlyargs + a.args
                for arg, d in zip(pos[len(pos) - len(a.defaults):], a.defaults):
                    yield arg.lineno, path, arg.arg, d
                for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        yield arg.lineno, path, arg.arg, d
            yield from options(child, path)
        else:
            yield from options(child, owner)


def classify_path_files() -> list[Path]:
    """The katolab source files that a fresh `import katolab.cli` loads."""
    code = ("import sys, katolab.cli; print(*(m.__file__ for n, m in sys.modules.items()"
            " if n == 'katolab' or n.startswith('katolab.')), sep='\\n')")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return sorted(Path(f) for f in out.split())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print one counted option per line")
    args = parser.parse_args()
    files = sorted(SRC.glob("*.py"))
    texts = [f.read_text() for f in files]
    found = [(f, opt) for f, t in zip(files, texts)
             for opt in options(ast.parse(t))]
    if args.list:
        for f, (line, owner, name, default) in found:
            print(f"{f.relative_to(ROOT)}:{line} {owner}.{name}="
                  f"{ast.unparse(default)}")
        return
    print(f"lines {sum(t.count(chr(10)) for t in texts)}")
    print(f"options {len(found)}")
    print(f"classify-path lines "
          f"{sum(f.read_text().count(chr(10)) for f in classify_path_files())}")


if __name__ == "__main__":
    main()
