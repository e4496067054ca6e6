"""The traced benchmark replaces the functions listed in bench/tracer.py's
WRAPPED table by module attribute; renaming or deleting one breaks only the
benchmark, so this guards the names from the test suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = _load_tracer().WRAPPED


@pytest.mark.parametrize("module_name,attr", [
    (module_name, attr) for module_name, attrs in WRAPPED.items() for attr in attrs
])
def test_traced_attribute_is_callable(module_name, attr):
    module = importlib.import_module(f"partlab.{module_name}")
    assert callable(getattr(module, attr, None)), f"partlab.{module_name}.{attr}"

