"""The benchmark's tracer names every function and method it wraps by
(module, attribute); each of them must exist in logint, or a traced
run fails when it installs.  tracer.py is read, not changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module,attr", tracer.FUNCTIONS)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"logint.{module}"), attr))


@pytest.mark.parametrize("module,cls,attr", tracer.METHODS)
def test_traced_method_exists(module, cls, attr):
    # The tracer rebinds cls.__dict__[attr], so an inherited method will not do.
    owner = getattr(importlib.import_module(f"logint.{module}"), cls)
    assert callable(vars(owner).get(attr))
