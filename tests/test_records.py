"""The record contract: every result partlab hands out is a small immutable
record, built by keyword or position, with a field-by-field repr and
equality, and the identity reports survive the process pool's pickling."""

import inspect
import pickle

import pytest

from partlab.acceptance import CriterionResult
from partlab.bijections import Bijection, BijectionTrace, TraceStep
from partlab.identities import Counterexample, IdentityReport, IdentitySpec
from partlab.partition import parse_partition

REQUIRED = inspect.Parameter.empty
EMPTY = "an empty sequence"  # a default that reads as no items

STEP = TraceStep("input", parse_partition("4,2"))
CE = Counterexample(3, 1, 2)

# record, its fields with their defaults (REQUIRED if none), a value for
# every field in order, its repr, and whether it is frozen.  Builtins stand
# in for callables, so that the reprs are stable.
RECORDS = [
    (TraceStep, {"label": REQUIRED, "value": REQUIRED}, ("input", parse_partition("4,2")),
     "TraceStep(label='input', value=Partition('4,2'))", True),
    (BijectionTrace, {"input": REQUIRED, "output": REQUIRED, "steps": REQUIRED},
     (parse_partition("4,2"), parse_partition("1^6"), (STEP,)),
     "BijectionTrace(input=Partition('4,2'), output=Partition('1^6'), "
     "steps=(TraceStep(label='input', value=Partition('4,2')),))", True),
    (Bijection, {"params": REQUIRED, "classes": REQUIRED, "forward": REQUIRED,
                 "inverse": REQUIRED, "bare": False},
     (("t",), len, abs, max, True),
     "Bijection(params=('t',), classes=<built-in function len>, "
     "forward=<built-in function abs>, inverse=<built-in function max>, bare=True)", True),
    (Counterexample, {"n": REQUIRED, "lhs": REQUIRED, "rhs": REQUIRED}, (3, 1, 2),
     "Counterexample(n=3, lhs=1, rhs=2)", True),
    (IdentitySpec, {"id": REQUIRED, "description": REQUIRED, "kind": REQUIRED, "grid": REQUIRED,
                    "engines": REQUIRED, "enum_n_max": REQUIRED, "sides": REQUIRED,
                    "n_lo": 0, "modulus": None},
     ("X", "a claim", "equality", ((("p", 2),),), ("enum",), 30, len, 1, 5),
     "IdentitySpec(id='X', description='a claim', kind='equality', grid=((('p', 2),),), "
     "engines=('enum',), enum_n_max=30, sides=<built-in function len>, n_lo=1, modulus=5)", True),
    (IdentityReport, {"id": REQUIRED, "params": REQUIRED, "n_max": REQUIRED, "engine": REQUIRED,
                      "status": REQUIRED, "counterexample": REQUIRED, "ms": REQUIRED},
     ("I1", (("p", 2),), 10, "enum", "fails", CE, 0),
     "IdentityReport(id='I1', params=(('p', 2),), n_max=10, engine='enum', status='fails', "
     "counterexample=Counterexample(n=3, lhs=1, rhs=2), ms=0)", True),
    (CriterionResult, {"number": REQUIRED, "title": REQUIRED, "passed": REQUIRED,
                       "seconds": REQUIRED, "notes": EMPTY},
     (1, "worked example", False, 0.5, ["x = 1 != 2"]),
     "CriterionResult(number=1, title='worked example', passed=False, seconds=0.5, "
     "notes=['x = 1 != 2'])", False),
]


@pytest.mark.parametrize("record, fields, values, text, frozen", RECORDS,
                         ids=[entry[0].__name__ for entry in RECORDS])
def test_record_contract(record, fields, values, text, frozen):
    parameters = inspect.signature(record).parameters
    assert list(parameters) == list(fields)
    assert [p.default is REQUIRED for p in parameters.values()] == [
        want is REQUIRED for want in fields.values()]
    required = [name for name, want in fields.items() if want is REQUIRED]
    bare = record(*values[:len(required)])
    for name, want in fields.items():
        if want is EMPTY:
            assert len(getattr(bare, name)) == 0
        elif want is not REQUIRED:
            assert getattr(bare, name) == want

    built = record(*values)
    assert record(**dict(zip(fields, values))) == built
    assert [getattr(built, name) for name in fields] == list(values)
    assert repr(built) == text
    assert built == record(*values) and built != record(*values[:-1], None)
    if frozen:
        assert hash(built) == hash(record(*values))
        with pytest.raises(AttributeError):
            setattr(built, next(iter(fields)), values[0])


def test_a_failing_report_survives_the_pools_pickling():
    report = IdentityReport("I15", (("p", 2),), 30, "enum", "fails", Counterexample(2, 1, 0), 4)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert type(copy) is IdentityReport and type(copy.counterexample) is Counterexample
    assert copy.counterexample.n == 2 and not copy.holds
