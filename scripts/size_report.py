#!/usr/bin/env python3
"""Print the two size figures that ROADMAP.md tracks for `src/katolab`.

    python scripts/size_report.py

Line 1: the line count of `src/katolab/*.py` (as `wc -l` counts it).
Line 2: the settable-option count, read with `ast`: every parameter with a
default in any function, plus every class field with a default (an
annotated assignment with a value in a class body).  Lambda defaults are
not counted: they bind closure values, which no caller sets.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "katolab"


def count_options(tree: ast.AST) -> int:
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            n += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                     for s in node.body)
    return n


def main() -> None:
    files = sorted(SRC.glob("*.py"))
    texts = [f.read_text() for f in files]
    print(f"lines {sum(t.count(chr(10)) for t in texts)}")
    print(f"options {sum(count_options(ast.parse(t)) for t in texts)}")


if __name__ == "__main__":
    main()
