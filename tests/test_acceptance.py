"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The heavy sweeps share memoized enumeration counts with the unit-test
modules, so a full ``pytest`` run pays for each enumeration only once.
"""

from types import SimpleNamespace

import pytest

from partlab import acceptance, bijections, families, numtheory, qseries


def _check(result):
    print(result.line())
    for note in result.notes:
        print("   ", note)
    assert result.passed, result.notes


def test_criterion_1_recurrence_worked_example():
    _check(acceptance.criterion_1())


def test_criterion_2_heavy_part_worked_example():
    _check(acceptance.criterion_2())


def test_criterion_3_heavy_multiplicity_worked_example():
    _check(acceptance.criterion_3())


def test_criterion_4_theorem_suite_enumeration():
    _check(acceptance.criterion_4())


def test_criterion_5_series_engine_suite():
    _check(acceptance.criterion_5())


def test_criterion_6_recurrence_and_parity_corollaries():
    _check(acceptance.criterion_6())


def test_criterion_7_bijectivity_sweeps():
    _check(acceptance.criterion_7())


def test_criterion_8_parity_grid_and_adjudication():
    _check(acceptance.criterion_8())


def test_time_budget_overrun_fails():
    result = acceptance._run(9, "t", 0.0, lambda notes: True)
    assert not result.passed
    assert result.notes[0].startswith("time budget exceeded")


def test_a_raising_criterion_fails_with_its_error(monkeypatch):
    monkeypatch.setattr(bijections, "_genr_d_to_f_core", lambda k, partition, steps=None: dict(partition.pairs))
    result = acceptance.criterion_2()
    assert not result.passed
    assert any(note.startswith("raised DomainError:") for note in result.notes)


def _off_by_one(monkeypatch, family, n):
    """Make ``families.enum_values`` read ``family`` one too high at ``n``."""
    real = families.enum_values

    def enum_values(name, n_max, params=None):
        values = real(name, n_max, params)
        if name != family or n_max < n:
            return values
        return values[:n] + (values[n] + 1,) + values[n + 1:]

    monkeypatch.setattr(families, "enum_values", enum_values)


def _zero_gamma(monkeypatch):
    # A fresh recurrence memo, so values built with the broken gamma are
    # dropped with the fault.
    monkeypatch.setattr(families, "_recurrence_memo", {0: 0})
    monkeypatch.setattr(numtheory, "gamma", lambda n: 0)


_FAULTS = {
    1: (_zero_gamma, "gamma(4)"),
    2: (lambda mp: mp.setattr(families, "enumerate_class", lambda *args: ()), "class members"),
    3: (lambda mp: mp.setattr(bijections, "dp_to_dpk", lambda p, k, x: SimpleNamespace(output=x)),
        "inverse"),
    4: (lambda mp: _off_by_one(mp, "c", 5), "I1"),
    5: (lambda mp: mp.setitem(qseries.CLOSED_FORMS, "d_e", qseries.CLOSED_FORMS["d_o"]), "d_e"),
    6: (lambda mp: mp.setattr(families, "recurrence_d_e", lambda n: 7), "I9"),
    7: (lambda mp: mp.setattr(bijections, "_genr_d_to_f_core", lambda k, y, steps=None: dict(y.pairs)), "genr"),
    8: (lambda mp: _off_by_one(mp, "h", 5), "I7"),
}


@pytest.mark.parametrize("number", sorted(_FAULTS))
def test_a_broken_check_fails_its_criterion(monkeypatch, number):
    inject, named = _FAULTS[number]
    inject(monkeypatch)
    result = acceptance.run_all([number])[0]
    assert not result.passed
    assert any(named in note for note in result.notes), result.notes
