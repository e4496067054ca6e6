"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The heavy sweeps share memoized enumeration counts with the unit-test
modules, so a full ``pytest`` run pays for each enumeration only once.
"""

from partlab import acceptance, bijections


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
    monkeypatch.setattr(bijections, "_genr_d_to_f_core", lambda k, partition, steps=None: partition)
    result = acceptance.criterion_2()
    assert not result.passed
    assert any(note.startswith("raised DomainError:") for note in result.notes)
