"""The traced benchmark replaces the functions listed in bench/tracer.py's
WRAPPED table by module attribute, and counts what they return; renaming or
deleting one, or changing what it returns, breaks only the benchmark, so
this guards those contracts from the test suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from partlab import enumeration, families, qseries

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


def test_partition_series_inverted_once_per_larger_order(monkeypatch):
    # series-deep's REACHED list needs qseries.inverse.calls > 0; the shared
    # partition series keeps it at one call per order larger than any built.
    monkeypatch.setattr(qseries, "_partition_series", [])
    calls = []
    original = qseries.inverse

    def counting(a):
        calls.append(a.order)
        return original(a)

    monkeypatch.setattr(qseries, "inverse", counting)
    cells = families.closed_form_cells()
    assert len(cells) == 212
    for order, inverted in ((100, [100]), (50, [100]), (150, [100, 150])):
        for family, params in cells:
            qseries.gf_family(family, params, order)
        assert calls == inverted, order


@pytest.mark.parametrize("family,family_kind", [("d_e", "class"), ("a", "stat")])
def test_fold_count_is_one_int_per_weight(family, family_kind):
    # The tracer counts the rows of a counting call as
    # enumeration.pair_sequences.items, so a generator or list here would
    # zero or skew that metric.
    spec = families.get_spec(family)
    assert spec.kind == family_kind
    kind = spec.enum_kind({}) if spec.enum_kind is not None else enumeration.ALL
    got = enumeration.pair_sequences(12, kind, None, spec.make_fold())
    assert type(got) is tuple and len(got) == 13
    assert all(type(value) is int for value in got)
    assert got == families.enum_values(family, 12)
