"""Mutation testing of evidist: rewrite one operator or constant at a time
and see whether the tier-1 tests notice.

    python tools/mutants.py --list --module pignistic
    python tools/mutants.py --module pignistic --lines 120-150,215-235
    python tools/mutants.py --sample 40 --seed 1

Each site is one of these rewrites in a module of ``src/evidist``:
``+``/``-``, ``*``/``/``, ``&``/``|`` (also in augmented assignments),
``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``and``/``or``, a dropped ``not``, and a number constant plus one. Sites
are listed in module and source order, so a site's number names the same
rewrite on the same source. ``--sample N --seed S`` draws N of the
selected sites with ``random.Random(S)``.

The tests run on a temporary copy of the repository, whose modules are
rewritten with ``ast.unparse``. The unmutated copy must pass tier-1 first,
or nothing runs. Then each mutant runs tier-1 with ``-x`` and a fixed
hypothesis seed, and prints one row: module, line, rewrite, and killed or
survived. A mutant whose tests run past the time limit counts as killed.
Uses the standard library only, with pytest and hypothesis as the tests do.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "evidist"
TIER1 = [
    "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
    "--continue-on-collection-errors",
]

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.BitAnd: "&", ast.BitOr: "|",
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
}


def _swap(op: ast.AST) -> tuple[ast.AST, str]:
    new = SWAPS[type(op)]
    return new(), f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]}"


def _annotations(tree: ast.Module) -> set[int]:
    """The ids of the nodes inside annotations, which never run here
    (``from __future__ import annotations``)."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign):
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            roots.append(node.returns)
    return {id(inner) for root in roots if root is not None for inner in ast.walk(root)}


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int, str]]:
    """Every site of ``tree`` outside annotations as (node, operand index,
    description), in source order; ties keep ``ast.walk``'s order."""
    skip = _annotations(tree)
    found = []
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            found.append((node, 0, _swap(node.op)[1]))
        elif isinstance(node, ast.BoolOp):
            found.append((node, 0, _swap(node.op)[1]))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    found.append((node, i, _swap(op)[1]))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((node, 0, "drop not"))
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            found.append((node, 0, f"{node.value!r} -> {node.value + 1!r}"))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset))
    return found


class _DropNot(ast.NodeTransformer):
    def __init__(self, target: ast.UnaryOp):
        self.target = target

    def visit_UnaryOp(self, node):
        if node is self.target:
            return self.generic_visit(node.operand)
        return self.generic_visit(node)


def mutated_source(source: str, index: int) -> str:
    """``source`` unparsed with site ``index`` rewritten."""
    tree = ast.parse(source)
    node, i, _ = _sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[i] = _swap(node.ops[i])[0]
    elif isinstance(node, ast.UnaryOp):
        tree = _DropNot(node).visit(tree)
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        node.op = _swap(node.op)[0]
    return ast.unparse(tree)


def _line_filter(text: str | None):
    if text is None:
        return lambda line: True
    ranges = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        ranges.append((int(first), int(last or first)))
    return lambda line: any(first <= line <= last for first, last in ranges)


def selected_sites(modules: list[str], lines: str | None) -> list[tuple[str, int, int, str]]:
    """(module, site index, line, description) of every selected site."""
    keep = _line_filter(lines)
    chosen = []
    for path in sorted((ROOT / PACKAGE).glob("*.py")):
        if modules and path.stem not in modules:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for index, (node, _, text) in enumerate(_sites(tree)):
            if keep(node.lineno):
                chosen.append((path.stem, index, node.lineno, text))
    return chosen


def _copy_repository(target: Path, modules: set[str]) -> None:
    shutil.copytree(
        ROOT, target,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"),
    )
    for stem in modules:
        path = target / PACKAGE / f"{stem}.py"
        path.write_text(ast.unparse(ast.parse(path.read_text(encoding="utf-8"))), encoding="utf-8")


def _tier1(copy: Path, timeout: float) -> bool | None:
    """True if tier-1 passes in ``copy``, False if it fails, None past ``timeout``."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)  # no example carries over
    # No bytecode cache: one keyed on mtime and size could outlive a mutant
    # written in the same second with the same length.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=copy, env=env, timeout=timeout,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return None
    return done.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", action="append", default=[],
                        help="a module of src/evidist, without .py (repeatable; default all)")
    parser.add_argument("--lines", help="line ranges to keep, as 10-20,31")
    parser.add_argument("--list", action="store_true", help="print the selected sites and stop")
    parser.add_argument("--sample", type=int, help="run this many sites, drawn at random")
    parser.add_argument("--seed", type=int, default=0, help="seed of --sample")
    args = parser.parse_args(argv)

    sites = selected_sites(args.module, args.lines)
    if args.module and not sites:
        parser.error(f"no sites in {args.module} on lines {args.lines}")
    if args.sample is not None and args.sample < len(sites):
        drawn = sorted(random.Random(args.seed).sample(range(len(sites)), args.sample))
        sites = [sites[i] for i in drawn]
    if args.list:
        for module, index, line, text in sites:
            print(f"{module}\t{index}\t{line}\t{text}")
        return 0

    modules = {module for module, *_ in sites}
    with tempfile.TemporaryDirectory(prefix="evidist-mutants-") as scratch:
        copy = Path(scratch) / "repo"
        _copy_repository(copy, modules)
        started = time.monotonic()
        if _tier1(copy, timeout=3600) is not True:
            print("the unmutated, unparsed copy fails tier-1; no mutant was run", file=sys.stderr)
            return 2
        limit = 3 * (time.monotonic() - started) + 10
        print("| module | line | rewrite | result |")
        print("|---|---|---|---|")
        survivors = 0
        for module, index, line, text in sites:
            path = copy / PACKAGE / f"{module}.py"
            unmutated = path.read_text(encoding="utf-8")
            source = (ROOT / PACKAGE / f"{module}.py").read_text(encoding="utf-8")
            path.write_text(mutated_source(source, index), encoding="utf-8")
            passed = _tier1(copy, limit)
            path.write_text(unmutated, encoding="utf-8")
            result = "survived" if passed else "killed" if passed is False else "killed (time limit)"
            survivors += bool(passed)
            cell = text.replace("|", "\\|")  # a bar inside a table cell is escaped
            print(f"| {module} | {line} | `{cell}` | {result} |", flush=True)
        print(f"\n{len(sites) - survivors} of {len(sites)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
