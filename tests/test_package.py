import ast
import gc
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hassett
from hassett import constructions, lattice, verifier

# The public API, reviewed in one place.  The test-only reference code
# (determinant, inertia, integer_solver, invariant_factors, rational_inverse,
# oracle_short_vectors, conjecture_shape, quadratic_form, mul_vector,
# gram_delta, vector_difference) lives in tests/oracles.py and is not exported.
PUBLIC_API = (
    "A1", "A2", "AMBIENT_GRAM", "AmbientVector", "COROLLARY_DISCRIMINANTS",
    "CaseId", "Certificate", "CertificateError", "CriterionReport",
    "DiscriminantReport", "E8_GRAM", "H_SQUARED", "IntMatrix", "LabellingCheck",
    "Mode", "RealizationOutcome", "RealizationStatus", "SLOT_POOL", "SlotSpec",
    "U_GRAM", "WitnessReport", "build", "build_generic",
    "case_slots", "certificate_for", "check_identity",
    "conjecture_sweep",
    "discriminant_report", "e_vec", "factorize", "generic_slots", "gram_of",
    "has_associated_k3", "i3_vector", "ideal_gram", "inner_product",
    "is_positive_definite", "is_saturated", "minimum", "norm",
    "realize_perturbations", "reference_gram", "satisfies_double_star",
    "satisfies_star", "short_vectors", "smith_normal_form", "span_membership",
    "squares_value", "t_vec", "verify_witness",
)


def test_public_api_is_pinned():
    assert tuple(hassett.__all__) == PUBLIC_API


# The exact integer arithmetic may use these names from ``math`` and no other.
MATH_ALLOWED = ("isqrt", "gcd", "prod")


def _float_use(node: ast.AST) -> str | None:
    """What makes node floating point, or None when it is exact."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
        return f"float literal {node.value!r}"
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
        return "true division"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
        return "float()"
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "math"
        and node.attr not in MATH_ALLOWED
    ):
        return f"math.{node.attr}"
    return None


def _truncating_int(node: ast.AST) -> bool:
    """Whether node is an ``int(...)`` call that could truncate: its argument is no comparison.

    ``int()`` turns 2.9 into 2 and "3" into 3; a caller's number is coerced
    with ``operator.index``, which refuses both.
    """
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "int"
        and not (len(node.args) == 1 and not node.keywords and isinstance(node.args[0], ast.Compare))
    )


def test_package_uses_neither_rationals_floats_nor_test_oracles():
    src = Path(hassett.__file__).resolve().parent
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            assert _float_use(node) is None, (path.name, node.lineno, _float_use(node))
            assert not _truncating_int(node), (path.name, node.lineno, "int() of a non-comparison")
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
                if node.module == "math":
                    assert all(a.name in MATH_ALLOWED for a in node.names), (path.name, names)
            else:
                continue
            for name in names:
                root = name.split(".")[0]
                assert root not in ("fractions", "oracles"), (path.name, name)



# Functions and methods that nothing in the package references, each with the
# reason it stays.  A function that only its own tests call is deleted, not
# added here.
UNREFERENCED = {
    "short_vectors": "bound by the benchmark tracer (ROADMAP item 2)",
    "is_saturated": "bound by the benchmark tracer (ROADMAP item 2)",
    "integer_rank": "bound by the benchmark tracer (ROADMAP item 2)",
    "smith_normal_form": "bound by the benchmark tracer (ROADMAP item 2)",
    "is_positive_definite": "bound by the benchmark tracer (ROADMAP item 2)",
    "build": "named-case API of acceptance criterion 2 and the README",
    "check_identity": "named-case API of acceptance criterion 5 and the README",
    "squares_value": "named-case API of acceptance criterion 5 and the README",
    "has_associated_k3": "public predicate: the K3 condition on a discriminant",
    "norm": "public helper: the norm of an ambient vector",
}


def test_only_pinned_functions_go_unreferenced():
    src = Path(hassett.__file__).resolve().parent
    defined, referenced = set(), set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("__"):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined - referenced == UNREFERENCED.keys()

def _package_imports(path: Path) -> set[str]:
    """The hassett modules that the source file at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "hassett" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [f"{module}.{a.name}" for a in node.names] if module == "hassett" else [module]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("hassett.")}
    return found


# The verdict is decided by verifier over lattice alone, and criteria is the
# arithmetic of d alone; no builder feeds either.  linalg, the builder's Smith
# kernel, lies outside the verdict core: it may import lattice, never the
# reverse, so no verdict can run a Smith normal form.
ALLOWED_IMPORTS = {
    "verifier": {"lattice", "_version"},
    "lattice": set(),
    "linalg": {"lattice"},
    "criteria": set(),
}


def test_verdict_modules_import_no_builder():
    src = Path(hassett.__file__).resolve().parent
    imports = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    assert imports["cli"] >= {"constructions", "criteria", "verifier"}  # the scan sees imports
    for module, allowed in ALLOWED_IMPORTS.items():
        assert imports[module] <= allowed, (module, imports[module] - allowed)


# Functions of the verdict core that no verdict enters, each with its reason.
# Every other function of verifier and lattice must run, under
# Certificate.from_json or verify_witness, on the inputs of the test below.
CORE_NOT_ENTERED = {
    "lattice.IntMatrix.__init__": "constants at import; parsed and computed rows use _unchecked",
    "lattice.IntMatrix.identity": "a constant built at import: I3_GRAM",
    "lattice.IntMatrix.block_diagonal": "a constant built at import: AMBIENT_GRAM",
    "lattice.IntMatrix.to_lists": "serialisation (realizedGram) and the tracer-bound Smith forms",
    "lattice.IntMatrix.__hash__": "a dunder",
    "lattice.IntMatrix.__repr__": "a dunder",
    "lattice.AmbientVector.__init__": "a builder's constructor; parsed rows use _unchecked",
    "lattice.AmbientVector.__add__": "a builder's constructor: glue and perturbation",
    "lattice.AmbientVector.__rmul__": "a builder's constructor: scaled generators",
    "lattice.AmbientVector.i3_part": "a builder's constructor: the perturbation search",
    "lattice.AmbientVector.__setattr__": "a dunder",
    "lattice.AmbientVector.__delattr__": "a dunder",
    "lattice.AmbientVector.__reduce__": "a dunder",
    "lattice.AmbientVector.__hash__": "a dunder",
    "lattice.AmbientVector.__repr__": "a dunder",
    "lattice._unit": "a builder's constructor, under t_vec and e_vec",
    "lattice.t_vec": "a builder's constructor",
    "lattice.e_vec": "a builder's constructor",
    "lattice.i3_vector": "constants at import (H_SQUARED, A1, A2); a builder's constructor",
    "lattice.norm": "a public helper that no verdict needs",
    "lattice.is_saturated": "tracer-bound (ROADMAP item 2)",
    "lattice.short_vectors": "tracer-bound (ROADMAP item 2)",
    "lattice._canonical": "serves only the tracer-bound short_vectors",
    "verifier.CriterionReport.passed": "serialisation: read only by to_dict",
    "verifier.CriterionReport.to_dict": "serialisation",
    "verifier.LabellingCheck.to_dict": "serialisation",
    "verifier.WitnessReport.to_dict": "serialisation",
    "verifier.Certificate.to_dict": "serialisation",
    "verifier.Certificate.to_json": "serialisation",
}


def _defined_functions(node: ast.AST, prefix: str = ""):
    """(first line, name, qualified name) of every def under node; decorators count."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _defined_functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield first, child.name, prefix + child.name
            yield from _defined_functions(child, f"{prefix}{child.name}.<locals>.")
        else:
            yield from _defined_functions(child, prefix)


def test_every_core_function_runs_in_some_verdict(tmp_path_factory, monkeypatch):
    # The trace gate of the verdict core: new dead code in verifier or lattice
    # fails here.  Inputs: the golden pool, the corollary certificate and
    # every input of TestVerifyFileMutations.
    from test_cli import TestVerifyFileMutations
    from test_verifier import golden_pool

    core = {}
    for module in (lattice, verifier):
        path = module.__file__
        tree = ast.parse(Path(path).read_text(), filename=path)
        stem = module.__name__.rsplit(".", 1)[1]
        for first, name, qualname in _defined_functions(tree):
            core[path, first, name] = f"{stem}.{qualname}"
    files = {path for path, _, _ in core}
    entered = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    def traced(fn):
        # fn and every call under it are seen; the caller's frames are not.
        # The trace makes frame objects, so a collection could run a
        # finalizer inside the deepest JSON nesting, past the recursion limit,
        # and print "Exception ignored" to stderr; no collection runs here.
        def run(*args):
            previous = sys.gettrace()
            gc.disable()
            sys.settrace(on_call)
            try:
                return fn(*args)
            finally:
                sys.settrace(previous)
                gc.enable()

        return run

    from_json = traced(verifier.Certificate.from_json.__func__)
    monkeypatch.setattr(verifier.Certificate, "from_json", classmethod(from_json))
    for basis, targets, reference in golden_pool():
        traced(verifier.verify_witness)(basis, targets, reference)
    verifier.Certificate.from_json(constructions.corollary20_certificate().to_json())
    # The mutation test's own function under a fresh @given draws the same
    # inputs (the seed is a digest of that function), and the original keeps
    # pytest's instance as its one executor.
    test = TestVerifyFileMutations.test_every_mutation_ends_in_a_report_or_one_error_line
    given(st.data())(test.hypothesis.inner_test)(TestVerifyFileMutations(), tmp_path_factory)
    not_entered = {qualname for key, qualname in core.items() if key not in entered}
    assert not_entered == CORE_NOT_ENTERED.keys()


def test_float_scan_flags_each_kind():
    def flagged(snippet):
        return any(_float_use(node) for node in ast.walk(ast.parse(snippet)))

    floating = ("x = 0.5", "x = 2j", "x = a / b", "x /= 2", "x = float(y)", "x = math.sqrt(y)")
    for snippet in floating:
        assert flagged(snippet), snippet
    for snippet in ("x = a // b", "x //= 2", "x = int(y)", "x = math.isqrt(y)"):
        assert not flagged(snippet), snippet


def test_int_scan_flags_truncating_coercion_only():
    def flagged(snippet):
        return any(_truncating_int(node) for node in ast.walk(ast.parse(snippet)))

    for snippet in ("x = int(x)", "x = int(s, 16)", "x = [int(v) for v in xs]", "x = int(a + b)"):
        assert flagged(snippet), snippet
    for snippet in ("x = int(i == j)", "x = int(a < b < c)", "x = index(x)", "f(type=int)"):
        assert not flagged(snippet), snippet


def test_non_integer_inputs_raise_type_error():
    basis = (lattice.H_SQUARED, lattice.e_vec(1, 1) + 2 * lattice.e_vec(1, 2))
    calls = {
        "IntMatrix float": lambda: lattice.IntMatrix([[2.9, 0], [0, 3.5]]),
        "IntMatrix str": lambda: lattice.IntMatrix([["3"]]),
        "span_membership row": lambda: lattice.span_membership([[1.5, 0]], [0, 0]),
        "span_membership target": lambda: lattice.span_membership([[1, 0]], ["1", 0]),
        "AmbientVector": lambda: lattice.AmbientVector((2.7,) * 23),
        "i3_vector": lambda: lattice.i3_vector(1, 1, Fraction(1)),
        "generic_slots": lambda: constructions.generic_slots([14.0, 20]),
        "case_slots": lambda: constructions.case_slots(hassett.CaseId.R4_000, (2, 2, "4")),
        "_r21_all2_gram": lambda: constructions._r21_all2_gram((4.0,) * 20),
        "squares_value point": lambda: constructions.squares_value(
            hassett.CaseId.R4_000, (2, 2, 4), (1.5, 0, 0, 0)
        ),
        "squares_value params": lambda: constructions.squares_value(
            hassett.CaseId.R4_000, (2, 2, Fraction(4)), (1, 0, 0, 0)
        ),
        "verify_witness targets": lambda: verifier.verify_witness(basis, (14.0,)),
        "SlotSpec n": lambda: constructions.SlotSpec("U1", 2.5, 2),
        "SlotSpec residue": lambda: constructions.SlotSpec("U1", 2, 2.0),
        "SlotSpec _replace": lambda: constructions.SlotSpec("U1", 2, 2)._replace(n=2.5),
        "factorize integral float": lambda: hassett.factorize(14.0),
        "factorize float": lambda: hassett.factorize(2.5),
        "has_associated_k3": lambda: hassett.has_associated_k3(Fraction(26)),
        "satisfies_star": lambda: hassett.satisfies_star(14.0),
        "satisfies_double_star": lambda: hassett.satisfies_double_star(26.0),
        "discriminant_report": lambda: hassett.discriminant_report(14.0),
    }
    for name, call in calls.items():
        try:
            call()
        except TypeError:
            continue
        pytest.fail(f"{name} accepted a non-integer")


def test_no_public_callable_samples():
    # A verdict is computed, never sampled: no exported function, class or
    # public method takes a seed or a trial count.
    for name in hassett.__all__:
        value = getattr(hassett, name)
        if not callable(value):
            continue
        members = [value]
        if inspect.isclass(value):
            members += [m for k, m in vars(value).items() if not k.startswith("_") and callable(m)]
        for member in members:
            try:
                params = inspect.signature(member).parameters
            except ValueError:  # a builtin without a signature
                continue
            assert not {"seed", "trials"} & set(params), name


def test_all_exports_functions_classes_and_constants_only():
    assert hassett.__all__
    for name in hassett.__all__:
        value = getattr(hassett, name)
        assert not isinstance(value, types.ModuleType), name
        is_constant = name.isupper() and not callable(value)
        assert inspect.isfunction(value) or inspect.isclass(value) or is_constant, name


def test_benchmark_traced_names_resolve():
    # perfbench/tracing.py rebinds these names by lookup; a deleted or renamed
    # function would break the traced benchmark run.  This check names the
    # missing function directly, before the slower perfbench self-tests.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, qualname in tracing.TRACED:
        module = importlib.import_module(f"hassett.{module_name}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert attr in vars(getattr(module, cls_name)), qualname
        else:
            assert callable(getattr(module, qualname)), qualname


def test_every_export_imports_from_package():
    namespace: dict = {}
    exec("from hassett import *", namespace)
    assert set(hassett.__all__) <= set(namespace)
    for name in hassett.__all__:
        assert namespace[name] is getattr(hassett, name), name


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # A cold ``hassett`` process pays for every module it imports; dataclasses
    # (which imports inspect) cost about 17 ms and nothing needs them.  -S keeps
    # site-packages start-up files out of the count.
    src = Path(hassett.__file__).resolve().parents[1]
    code = 'import sys, hassett.cli; print(sorted({"dataclasses", "inspect"} & set(sys.modules)))'
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
