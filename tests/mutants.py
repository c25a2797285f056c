"""Mutation census: each mutant of the named modules runs tier-1 with -x, and the mutants
that no test kills are printed, sorted by file and line, so that two runs diff cleanly.

    python3 tests/mutants.py src/quadshadow/checker.py src/quadshadow/lift.py

A mutant swaps one comparison, arithmetic or boolean operator, drops one "not" or unary
minus, flips one boolean constant or adds one to one integer constant.  The checkout is
copied to a temporary directory and only the copy is mutated.  Each mutant costs up to one
tier-1 run, so a census of the package takes about an hour; pytest does not collect this
file, and the count of mutants, kills and seconds goes to stderr.
"""

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE,
    ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
}


def variants(node):
    """Each one-place change of node, as the expression that replaces it."""
    if type(getattr(node, "op", None)) in SWAPS:
        new = copy.copy(node)
        new.op = SWAPS[type(node.op)]()
        yield new
    for i, op in enumerate(getattr(node, "ops", [])):
        if type(op) in SWAPS:
            new = copy.copy(node)
            new.ops = [*node.ops[:i], SWAPS[type(op)](), *node.ops[i + 1:]]
            yield new
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
        yield node.operand
    if isinstance(node, ast.Constant) and type(node.value) in (bool, int):
        yield ast.Constant(not node.value if type(node.value) is bool else node.value + 1)


def mutants(source: str):
    """(line, replaced text, mutant text, mutated source) of every mutant that compiles."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    tree = ast.parse(source)
    # annotations are never evaluated: the package imports annotations from __future__
    annotations = {id(n) for a in ast.walk(tree) for field in ("annotation", "returns")
                   if getattr(a, field, None) for n in ast.walk(getattr(a, field))}
    for node in ast.walk(tree):
        if not hasattr(node, "end_lineno") or id(node) in annotations:
            continue
        begin = starts[node.lineno - 1] + node.col_offset  # offsets count UTF-8 bytes
        end = starts[node.end_lineno - 1] + node.end_col_offset
        for new in variants(node):
            text = f"({ast.unparse(new)})".encode()
            mutated = (data[:begin] + text + data[end:]).decode()
            try:
                compile(mutated, "mutant", "exec")
            except SyntaxError:
                continue
            yield node.lineno, data[begin:end].decode(), text.decode(), mutated


def main(paths: list[str]) -> None:
    start, killed, survivors = time.monotonic(), 0, []
    with tempfile.TemporaryDirectory() as tmp:
        copy_root = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        for path in paths:
            target = copy_root / Path(path).resolve().relative_to(ROOT)
            original = target.read_text(encoding="utf-8")
            for line, old, new, mutated in mutants(original):
                target.write_text(mutated, encoding="utf-8")
                try:
                    run = subprocess.run(
                        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                        cwd=copy_root, env={**os.environ, "PYTHONPATH": "src"},
                        capture_output=True, timeout=900)
                    survived = run.returncode == 0
                except subprocess.TimeoutExpired:
                    survived = False
                killed += not survived
                if survived:
                    survivors.append((path, line, f"{old!r} -> {new!r}"))
            target.write_text(original, encoding="utf-8")
    for path, line, change in sorted(survivors):
        print(f"{path}:{line}: {change}")
    print(f"{killed + len(survivors)} mutants, {killed} killed, {len(survivors)} survived, "
          f"{time.monotonic() - start:.0f} s", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
