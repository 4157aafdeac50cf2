import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import hassett


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
