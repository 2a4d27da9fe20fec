"""The benchmark's tracer wraps package functions by name, so a rename in the
package breaks `perfbench/run.py --trace 1`.  These tests load the tracer's
tables as they are and resolve every name against the package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("span", sorted(tracing.FUNCTIONS))
def test_traced_function_resolves(span):
    module, name = tracing.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), name, None)), f"{span}: {module}.{name}"


@pytest.mark.parametrize("span", sorted(tracing.METHODS))
def test_traced_method_resolves(span):
    module, cls, name = tracing.METHODS[span]
    owner = getattr(importlib.import_module(module), cls, None)
    assert callable(getattr(owner, name, None)), f"{span}: {module}.{cls}.{name}"
