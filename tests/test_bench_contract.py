"""The traced benchmark replaces the functions listed in bench/tracer.py's
WRAPPED table by module attribute, and counts what they return; renaming or
deleting one, or changing what it returns, breaks only the benchmark, so
this guards those contracts from the test suite."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from partlab import acceptance, bijections, enumeration, families, identities, qseries
from partlab.partition import Partition

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


def test_series_builds_reach_mul_and_inverse(monkeypatch):
    # series-deep's REACHED list needs qseries.mul.calls and
    # qseries.inverse.calls > 0: an s build inverts (q;q)_inf once, the
    # closed forms with a theta numerator (q^k;q^k)_inf multiply it by their
    # sum, and the 62 with a dense numerator apply it factor by factor.
    calls = {"mul": 0, "inverse": 0, "times_pochhammer": 0}
    for name in calls:
        def counting(*args, name=name, original=getattr(qseries, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(qseries, name, counting)
    qseries.gf_family("s", {}, 100)
    assert calls == {"mul": 0, "inverse": 1, "times_pochhammer": 0}
    cells = families.closed_form_cells()
    assert len(cells) == 212
    for family, params in cells:
        qseries.gf_family(family, params, 100)
    assert calls == {"mul": 149, "inverse": 2, "times_pochhammer": 62}


def test_every_series_read_builds_once(monkeypatch):
    # series-deep's REACHED list needs families.series_for.builds > 0: the
    # tracer counts the qseries.gf_family calls made inside series_for, and
    # each read builds its series afresh, repeated reads included.
    builds = []
    original = qseries.gf_family

    def counting(*args, **kwargs):
        builds.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(qseries, "gf_family", counting)
    reads = [("s", None, 50), ("s", None, 50), ("s", None, None),
             ("a_np", {"p": 5}, 60), ("a_np", {"p": 5}, 60), ("d_e", None, 10)]
    for family, params, order in reads:
        families.series_for(family, params, order)
    assert builds == [family for family, _, _ in reads]


@pytest.mark.parametrize("family,family_kind", [
    ("d_e", "class"), ("a", "stat"), ("c", "stat"), ("b_prime", "class")])
def test_fold_count_is_one_int_per_weight(family, family_kind):
    # The tracer counts the rows of a counting call as
    # enumeration.pair_sequences.items, so a generator or list here would
    # zero or skew that metric.
    spec = families.get_spec(family)
    assert spec.kind == family_kind
    kind = spec.enum_kind({}) if spec.enum_kind is not None else enumeration.ALL
    got = enumeration.pair_sequences(12, kind, fold=spec.make_fold())
    assert type(got) is tuple and len(got) == 13
    assert all(type(value) is int for value in got)
    assert got == families.enum_values(family, 12)


def test_bijection_sweep_reaches_its_layers(monkeypatch):
    # bijection-sweep's REACHED list needs bijections.maps.calls,
    # partition.Partition.init_calls, families.enumerate_class.calls and
    # families.membership.calls > 0.  The sweep maps through untraced cores,
    # so it reaches these names only through the splitting maps, one
    # Partition(...) per image, the domain enumeration and one codomain
    # predicate per cell.
    calls = {}
    targets = [(bijections, "glaisher"), (bijections, "glaisher_inv"), (Partition, "__init__"),
               (families, "enumerate_class"), (families, "membership")]
    for owner, name in targets:
        def counting(*args, name=name, original=getattr(owner, name)):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)
        monkeypatch.setattr(owner, name, counting)
    checks = 0
    for name, params in acceptance._bijection_cells():
        for n in range(9):
            assert bijections.exhaustive_cell_check(name, params, n) == []
            checks += 1
    assert all(calls.get(name, 0) > 0 for _, name in targets), calls
    assert calls["membership"] == checks == 225


def test_verify_path_reaches_its_layers(monkeypatch):
    # verify-all's REACHED list needs identities.verify.calls,
    # families.count_enum.calls and qseries.gf_family.calls > 0, and its
    # BYPASSED list partition.Partition.init_calls == 0.  A serial sweep runs
    # identities.verify once per cell; its family reads go through
    # families.values to enum_values (which checks each request through
    # count_enum) or series_for, and no cell builds a Partition.
    calls = {}
    targets = [(identities, "verify"), (families, "count_enum"), (families, "series_for"),
               (qseries, "gf_family"), (Partition, "__init__")]
    for owner, name in targets:
        def counting(*args, name=name, original=getattr(owner, name), **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    reports = identities.verify_cells(identities.identity_ids(), n_max=10, jobs=1)
    assert len(reports) == calls["verify"] == 62
    assert all(calls.get(name, 0) > 0 for name in ("count_enum", "series_for", "gf_family")), calls
    assert "__init__" not in calls
