import ast
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

import hassett
from hassett import constructions, lattice, linalg, verifier

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


# The verdict is decided by verifier over lattice and linalg alone, and
# criteria is the arithmetic of d alone; no builder feeds either.
ALLOWED_IMPORTS = {
    "verifier": {"lattice", "linalg", "_version"},
    "lattice": {"linalg"},
    "linalg": set(),
    "criteria": set(),
}


def test_verdict_modules_import_no_builder():
    src = Path(hassett.__file__).resolve().parent
    imports = {path.stem: _package_imports(path) for path in src.glob("*.py")}
    assert imports["cli"] >= {"constructions", "criteria", "verifier"}  # the scan sees imports
    for module, allowed in ALLOWED_IMPORTS.items():
        assert imports[module] <= allowed, (module, imports[module] - allowed)


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
        "IntMatrix float": lambda: linalg.IntMatrix([[2.9, 0], [0, 3.5]]),
        "IntMatrix str": lambda: linalg.IntMatrix([["3"]]),
        "span_membership row": lambda: linalg.span_membership([[1.5, 0]], [0, 0]),
        "span_membership target": lambda: linalg.span_membership([[1, 0]], ["1", 0]),
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
