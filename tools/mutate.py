"""Mutation score of the verdict path: one AST edit per mutant, judged by tier 1.

    python tools/mutate.py WORKDIR

Copies the repository (without .git) to WORKDIR, which must not exist, and
for every mutant rewrites one function there, runs the tier-1 suite with
``-x`` and restores the module.  A mutant is killed when a test fails,
killed by timeout when the suite exceeds ``TIMEOUT`` seconds, and survives
when the suite passes.  Each edit flips one operator, shifts one integer
constant by +-1, negates a boolean constant, drops a ``not``, a unary minus
or an ``abs``, or swaps ``min`` and ``max``.  Prints one line per mutant and
the score; exits 1 when the unmutated suite fails, else 0.  It never writes
to the repository it is run from.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

TARGETS = {
    "verifier": ("verify_witness",),
    "linalg": ("span_membership", "_pivot_row", "_fold", "_ldl"),
    "lattice": ("_enumerate", "minimum"),
    "criteria": ("_divides_no_row", "_certify_family", "conjecture_sweep"),
    "constructions": ("_glued_search",),
}
TIMEOUT = 90
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
}
# Verdict tests first, so that most mutants die within seconds under -x.
PYTEST = [
    sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
    "tests/test_verifier.py", "tests/test_linalg.py", "tests/test_lattice.py",
    "tests/test_criteria.py", "tests", "perfbench",
]


def edits(node: ast.AST):
    """(description, apply) pairs: each apply edits ``node`` in place."""
    def setter(field, value, text):
        return text, lambda: setattr(node, field, value)

    def op_text(op, new):
        return f"{type(op).__name__} -> {new.__name__}"

    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                new = SWAPS[type(op)]
                yield op_text(op, new), lambda i=i, new=new: node.ops.__setitem__(i, new())
    elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
        new = SWAPS[type(node.op)]
        yield setter("op", new(), op_text(node.op, new))
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield setter("value", not node.value, f"{node.value} -> {not node.value}")
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        for d in (1, -1):
            yield setter("value", node.value + d, f"{node.value} -> {node.value + d}")
    elif isinstance(node, ast.Name) and node.id in ("min", "max"):
        other = "max" if node.id == "min" else "min"
        yield setter("id", other, f"{node.id} -> {other}")
    for field, value in ast.iter_fields(node):
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.Not, ast.USub)):
            yield setter(field, value.operand, f"drop {ast.unparse(value)[:40]!r} -> operand")
        elif isinstance(value, ast.Call) and getattr(value.func, "id", "") == "abs":
            yield setter(field, value.args[0], f"drop {ast.unparse(value)[:40]!r} -> operand")


def mutants(path: Path, name: str):
    """(line, description, module source) for every edit of function ``name``."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    count = sum(1 for node in ast.walk(_function(source, name)) for _ in edits(node))
    for k in range(count):
        func = _function(source, name)
        node, (text, apply) = [(n, e) for n in ast.walk(func) for e in edits(n)][k]
        apply()
        mutated = lines[: func.lineno - 1] + [ast.unparse(func) + "\n"] + lines[func.end_lineno :]
        yield node.lineno, text, "".join(mutated)


def _function(source: str, name: str) -> ast.FunctionDef:
    # The targets are undecorated module-level functions.
    return next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == name)


def main(workdir: str) -> int:
    repo, work = Path(__file__).resolve().parents[1], Path(workdir)
    shutil.copytree(repo, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    if subprocess.run(PYTEST, cwd=work, env=env, capture_output=True).returncode:
        print("the unmutated suite fails in", work)
        return 1
    tally = {"KILLED": 0, "TIMEOUT": 0, "SURVIVED": 0}
    for module, names in TARGETS.items():
        path = work / "src" / "hassett" / f"{module}.py"
        original = path.read_text()
        for name in names:
            for line, text, mutated in mutants(path, name):
                path.write_text(mutated)
                try:
                    run = subprocess.run(PYTEST, cwd=work, env=env, capture_output=True, timeout=TIMEOUT)
                    verdict = "SURVIVED" if run.returncode == 0 else "KILLED"
                except subprocess.TimeoutExpired:
                    verdict = "TIMEOUT"
                finally:
                    path.write_text(original)
                tally[verdict] += 1
                print(f"{verdict:8} {module}.{name}:{line} {text}", flush=True)
    total = sum(tally.values())
    print(f"killed {tally['KILLED']} + {tally['TIMEOUT']} by timeout of {total}; {tally['SURVIVED']} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
