"""Sample mutants of one module and print those that a test subset does not kill.

    python tests/mutants.py src/qleb/qlan.py tests/test_qlan.py tests/test_stacks.py

The mutation operators swap ``<`` and ``<=``, ``>`` and ``>=``, ``+`` and
``-``, ``*`` and ``/``, and multiply a float constant by 10. Every site of
the module is listed in source order, and ``--count`` of them (default 50)
are drawn with ``random.Random(--seed)``, so a run is deterministic. Each
mutant is the module's syntax tree with one node changed, written back with
``ast.unparse`` into a copy of ``src/`` (comments are dropped, behaviour is
not). The named tests then run against the copy with
``python -m pytest -x -q``; a mutant is killed when pytest fails or runs
past ``--timeout`` seconds. The unmutated, unparsed module runs first and
must pass. Survivors are printed with their source lines.

Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: operator swaps, by AST class
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}

SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def sites(tree: ast.Module) -> list[tuple[int, int, tuple, str]]:
    """Every mutation site as (line, column, node path, description), in source order.

    The node path is the chain of child fields from the module down to the
    mutated node, so ``mutate`` finds it again in a fresh parse.
    """
    found = []

    def visit(node: ast.AST, path: tuple) -> None:
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            found.append((node.lineno, node.col_offset, path, _swap_text(node.op)))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node.lineno, node.col_offset, path + (("ops", i),),
                                  _swap_text(op)))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and node.value != 0.0):
            found.append((node.lineno, node.col_offset, path,
                          f"{node.value!r} -> {node.value * 10.0!r}"))
        for field, value in ast.iter_fields(node):
            if isinstance(value, list):
                for i, child in enumerate(value):
                    if isinstance(child, ast.AST):
                        visit(child, path + ((field, i),))
            elif isinstance(value, ast.AST):
                visit(value, path + ((field, None),))

    visit(tree, ())
    return sorted(found, key=lambda s: (s[0], s[1], s[3]))


def _swap_text(op: ast.AST) -> str:
    return f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}"


def mutate(tree: ast.Module, path: tuple) -> str:
    """The source of ``tree`` with the node at ``path`` mutated."""
    tree = copy.deepcopy(tree)
    node = tree
    for field, index in path:
        node = getattr(node, field)
        if index is not None:
            if field == "ops":
                node[index] = SWAPS[type(node[index])]()
                return ast.unparse(tree)
            node = node[index]
    if isinstance(node, ast.BinOp):
        node.op = SWAPS[type(node.op)]()
    else:
        node.value = node.value * 10.0
    return ast.unparse(tree)


def run_tests(src: Path, tests: list[str], timeout: float) -> str:
    """"passed", "failed" or "timeout" of the tests against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests],
                              cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("module", help="module to mutate, e.g. src/qleb/qlan.py")
    parser.add_argument("tests", nargs="+", help="test files or node ids to run per mutant")
    parser.add_argument("--count", type=int, default=50, help="mutants to sample")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    args = parser.parse_args(argv)

    module = (ROOT / args.module).resolve()
    rel = module.relative_to(ROOT / "src")
    source = module.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    every = sites(tree)
    picked = sorted(random.Random(args.seed).sample(range(len(every)),
                                                    min(args.count, len(every))))
    print(f"{args.module}: {len(every)} sites, {len(picked)} sampled (seed {args.seed})")

    start = time.monotonic()
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / rel
        target.write_text(ast.unparse(tree), encoding="utf-8")
        if run_tests(src, args.tests, args.timeout) != "passed":
            print("the unmutated module fails the tests; nothing to sample")
            return 2
        for k, i in enumerate(picked, 1):
            line, _, path, what = every[i]
            target.write_text(mutate(tree, path), encoding="utf-8")
            outcome = run_tests(src, args.tests, args.timeout)
            verdict = "SURVIVED" if outcome == "passed" else f"killed ({outcome})"
            print(f"[{k}/{len(picked)}] line {line}: {what}: {verdict}", flush=True)
            if outcome == "passed":
                survivors.append((line, what))
    print(f"{len(picked) - len(survivors)} of {len(picked)} killed, {len(survivors)} survived, "
          f"{time.monotonic() - start:.0f} s")
    for line, what in survivors:
        print(f"  survivor line {line}: {what}: {lines[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
