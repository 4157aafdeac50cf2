"""Mutation score of the verdict path: one AST edit per mutant, judged by tier 1.

    python tools/mutate.py WORKDIR [MODULE.QUALNAME ...]

Copies the repository (without .git) to WORKDIR, which must not exist, and
for every mutant rewrites one function there, runs the tier-1 suite with
``-x`` and restores the module.  The targets are every function of the
verdict core that a verdict enters, as the trace gate defines it (every def
of ``verifier`` and ``lattice`` outside ``CORE_NOT_ENTERED`` in
``tests/test_package.py``), and the functions named in ``NAMED`` outside the
core.  A def nested in a target is a target of its own, so each edit belongs
to one target.  Names such as ``criteria._sieve`` or
``verifier.Certificate.from_json`` after WORKDIR limit the run to those
targets; a name that is no target exits 2 before anything is copied.  Each
edit flips one operator, shifts one integer constant by +-1, negates a
boolean constant, drops a ``not``, a unary minus or an ``abs``, or swaps
``min`` and ``max``.

A suite that runs past ``TIMEOUT`` seconds runs once more with twice the
limit, and a mutant is TIMEOUT only when that run also expires.  When the
suite fails, the first failing test runs again alone on the mutant: the
mutant is KILLED when it fails there too, and UNREPRODUCED, which is no
kill, when it passes alone; a mutant that breaks the package's import is
KILLED with no test to name.  It SURVIVED when the suite passes.  Prints one
line per mutant, with the failing test of a kill, and the score; exits 1
when the unmutated suite fails, else 0.  It never writes to the repository
it is run from.
"""

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # the package and its tests are on pytest's path, not a script's
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
from test_package import CORE_NOT_ENTERED, _defined_functions  # noqa: E402

CORE = ("verifier", "lattice")
# Targets outside the verdict core.
NAMED = {
    "criteria": ("_sieve", "_divides_no_row", "_certify_family", "conjecture_sweep"),
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
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE"]
SUITE = [*PYTEST, "-x", "tests", "perfbench"]


def targets(src: Path) -> dict[str, tuple[str, ...]]:
    """Qualified names of the functions to mutate, per module of the package at src."""
    found = {}
    for module in CORE:
        tree = ast.parse((src / f"{module}.py").read_text())
        defs = (qualname for _, _, qualname in _defined_functions(tree))
        found[module] = tuple(q for q in defs if f"{module}.{q}" not in CORE_NOT_ENTERED)
    return found | NAMED


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


def _first_line(node: ast.AST) -> int:
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _target(tree: ast.Module, qualname: str) -> tuple[ast.stmt, ast.AST]:
    """The def named ``qualname`` in tree and the module-level statement that holds it."""
    first = next(line for line, _, q in _defined_functions(tree) if q == qualname)
    name = qualname.rsplit(".", 1)[-1]
    func = next(n for n in ast.walk(tree) if isinstance(n, _DEFS) and n.name == name and _first_line(n) == first)
    top = next(s for s in tree.body if _first_line(s) <= first <= s.end_lineno)
    return top, func


def _own_edits(func: ast.AST) -> list:
    """(node, edit) for every edit of func outside the defs nested in it."""
    found, todo = [], [func]
    for node in todo:  # breadth first, as ast.walk
        found += [(node, e) for e in edits(node)]
        todo += [c for c in ast.iter_child_nodes(node) if not isinstance(c, _DEFS)]
    return found


def splice(source: str, tree: ast.Module, qualname: str) -> str:
    """source with the module-level statement holding ``qualname`` rewritten from tree."""
    top, _ = _target(tree, qualname)
    lines = source.splitlines(keepends=True)
    return "".join(lines[: _first_line(top) - 1] + [ast.unparse(top) + "\n"] + lines[top.end_lineno :])


def mutants(path: Path, qualname: str):
    """(line, description, module source) for every edit of function ``qualname``."""
    source = path.read_text()
    for k in range(len(_own_edits(_target(ast.parse(source), qualname)[1]))):
        tree = ast.parse(source)
        node, (text, apply) = _own_edits(_target(tree, qualname)[1])[k]
        apply()
        yield node.lineno, text, splice(source, tree, qualname)


def _first_failure(output: str) -> str | None:
    """The id of the first FAILED or ERROR test in pytest's short summary."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def judge(work: Path, env: dict) -> tuple[str, str]:
    """Verdict on the mutant now in work, and the first failing test of a kill."""
    for limit in (TIMEOUT, 2 * TIMEOUT):
        try:
            run = subprocess.run(SUITE, cwd=work, env=env, capture_output=True, text=True, timeout=limit)
            break
        except subprocess.TimeoutExpired:
            continue
    else:
        return "TIMEOUT", ""
    if run.returncode == 0:
        return "SURVIVED", ""
    test = _first_failure(run.stdout)
    if test is None:  # no test ran: the package fails to import
        return "KILLED", f"no test ran, exit code {run.returncode}"
    try:
        alone = subprocess.run([*PYTEST, test], cwd=work, env=env, capture_output=True, timeout=2 * TIMEOUT)
    except subprocess.TimeoutExpired:
        return "KILLED", test
    return ("UNREPRODUCED" if alone.returncode == 0 else "KILLED"), test


def main(workdir: str, *only: str) -> int:
    work = Path(workdir)
    plan = targets(REPO / "src" / "hassett")
    if only:
        unknown = set(only) - {f"{module}.{name}" for module, names in plan.items() for name in names}
        if unknown:
            print("not a mutation target:", " ".join(sorted(unknown)))
            return 2
        plan = {module: tuple(n for n in names if f"{module}.{n}" in only) for module, names in plan.items()}
    shutil.copytree(REPO, work, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
    env = dict(os.environ, PYTHONPATH=str(work / "src"))
    if subprocess.run(SUITE, cwd=work, env=env, capture_output=True).returncode:
        print("the unmutated suite fails in", work)
        return 1
    tally = {"KILLED": 0, "UNREPRODUCED": 0, "TIMEOUT": 0, "SURVIVED": 0}
    for module, names in plan.items():
        path = work / "src" / "hassett" / f"{module}.py"
        original = path.read_text()
        for name in names:
            for line, text, mutated in mutants(path, name):
                path.write_text(mutated)
                try:
                    verdict, test = judge(work, env)
                finally:
                    path.write_text(original)
                tally[verdict] += 1
                print(f"{verdict:12} {module}.{name}:{line} {text}" + (f"  [{test}]" if test else ""), flush=True)
    total = sum(tally.values())
    print(
        f"killed {tally['KILLED']} + {tally['TIMEOUT']} by timeout of {total}; "
        f"{tally['UNREPRODUCED']} unreproduced, {tally['SURVIVED']} survived"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
