"""The benchmark tracer's entry points exist where it looks for them.

perfbench/tracing.py wraps package functions and methods by name, in the
class body that defines them.  A refactor that moves or renames one of
them would otherwise only show up when the traced benchmark runs.
"""

import importlib
import importlib.util
import os

HERE = os.path.dirname(__file__)
TRACING = os.path.join(HERE, os.pardir, "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_resolve():
    tracing = load_tracing()
    assert tracing.TRACED
    for module_name, path, span in tracing.TRACED:
        module = importlib.import_module("mixshuffle." + module_name)
        owner, attr = tracing._resolve(module, path)
        assert attr in owner.__dict__, (module_name, path, span)
