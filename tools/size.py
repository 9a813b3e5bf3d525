#!/usr/bin/env python3
"""Source size of src/repro: lines per package and the longest functions.

The numbers ROADMAP re-anchors and simplicity issues quote (``wc -l`` per
package; a function's length is its ``def`` line through its last line).
Report only, stdlib only, no options: ``python tools/size.py``.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"
TOP = 10

lines, functions = Counter(), []
for path in sorted(ROOT.rglob("*.py")):
    rel = path.relative_to(ROOT)
    text = path.read_text(encoding="utf-8")
    package = rel.parts[0] if len(rel.parts) > 1 else "(top level)"
    lines[package] += text.count("\n")
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append((node.end_lineno - node.lineno + 1, package,
                              f"{node.name}  ({rel}:{node.lineno})"))
functions.sort(reverse=True)
print(f"{'package':<14}{'lines':>7}")
for package, n in sorted(lines.items(), key=lambda kv: -kv[1]):
    print(f"{package:<14}{n:>7}")
print(f"{'total':<14}{sum(lines.values()):>7}")
for title, ranked in (("", functions), (" under runtime", [
        f for f in functions if f[1] == "runtime"])):
    print(f"\nlongest functions{title}:")
    for length, _, where in ranked[:TOP]:
        print(f"{length:>5}  {where}")
