import inspect
import types

import hassett


def test_all_exports_functions_classes_and_constants_only():
    assert hassett.__all__
    for name in hassett.__all__:
        value = getattr(hassett, name)
        assert not isinstance(value, types.ModuleType), name
        is_constant = name.isupper() and not callable(value)
        assert inspect.isfunction(value) or inspect.isclass(value) or is_constant, name
