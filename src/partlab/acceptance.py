"""The acceptance suite: eight criteria covering the worked examples, the
theorem grids, the series engine, the recurrences and the bijections.

Criteria 1-3 compare tables of worked-example values; criteria 4-6 and 8
name their claims and engine, and each claim runs to its default n_max.
Each criterion returns a CriterionResult; ``run_all`` prints one pass/fail
line per criterion.  The same functions back both ``partlab selftest`` and
the pytest acceptance module.
"""

from __future__ import annotations

import io
import time
from contextlib import redirect_stdout
from typing import Callable, NamedTuple

from . import bijections, families, identities, numtheory
from .partition import parse_partition


class CriterionResult(NamedTuple):
    number: int
    title: str
    passed: bool
    seconds: float
    notes: tuple[str, ...] = ()

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number}: {state} ({self.seconds:.2f}s) {self.title}"


def _run(number: int, title: str, budget: float, body: Callable[[list[str]], bool]) -> CriterionResult:
    notes: list[str] = []
    start = time.perf_counter()
    try:
        ok = body(notes)
    except Exception as exc:  # a crash is a failure, not an abort
        notes.append(f"raised {type(exc).__name__}: {exc}")
        ok = False
    elapsed = time.perf_counter() - start
    if ok and elapsed > budget:
        notes.append(f"time budget exceeded: {elapsed:.1f}s > {budget:.0f}s")
        ok = False
    return CriterionResult(number, title, ok, elapsed, tuple(notes))


def _reports_ok(notes: list[str], reports) -> bool:
    lines = identities.failures(reports)
    notes += lines
    return not lines


def _checks_ok(notes: list[str], checks: dict[str, tuple[object, object]]) -> bool:
    """Note every check, label -> (got, want), whose value is not the one wanted."""
    lines = [f"{label} = {got} != {want}" for label, (got, want) in checks.items() if got != want]
    notes += lines
    return not lines


def criterion_1() -> CriterionResult:
    """Recurrence worked example: table value, recurrence value and the
    gamma/index-set intermediates at n = 8."""

    def body(notes: list[str]) -> bool:
        from . import cli

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(["table", "d_e", "8", "8", "--format", "csv"])
        (a8, b8), (a4, b4) = numtheory.sets_AB(8), numtheory.sets_AB(4)
        return _checks_ok(notes, {
            "table d_e 8 8 (exit, csv)": ((code, buffer.getvalue().strip()), (0, "8,6")),
            "recurrence at 8": (families.recurrence_d_e(8), 6),
            "gamma(4)": (numtheory.gamma(4), 1),
            "gamma(8)": (numtheory.gamma(8), 1),
            "A(8)": (a8, frozenset({1})),
            "B(8)": (b8, frozenset({1})),
            "A(4)": (a4, frozenset()),
            "B(4)": (b4, frozenset({1})),
        })

    return _run(1, "recurrence worked example at n=8", 1.0, body)


_CLASS_9_341 = ["5,1^4", "4,1^5", "3,2,1^4", "3,1^6", "2^2,1^5", "2,1^7", "1^9"]
_IMAGES_9_341 = {
    "1^9": "4^2,1",
    "5,1^4": "5,4",
    "4,1^5": "4,1^5",
    "3,2,1^4": "4,3,2",
    "3,1^6": "4,3,1^2",
    "2^2,1^5": "4,2^2,1",
    "2,1^7": "4,2,1^3",
}


def criterion_2() -> CriterionResult:
    """Heavy-part worked example: the seven weight-9 class members at
    (p,k,r) = (3,4,1) and their stated images."""

    def body(notes: list[str]) -> bool:
        members = families.enumerate_class("d_pkr", 9, {"p": 3, "k": 4, "r": 1})
        checks = {"class members": (sorted(map(str, members)), sorted(_CLASS_9_341))}
        for source_text, image_text in _IMAGES_9_341.items():
            source = parse_partition(source_text)
            image = bijections.genr_d_to_f(3, 4, 1, source).output
            checks[f"image of {source_text}"] = (image, parse_partition(image_text))
            checks[f"round trip of {source_text}"] = (bijections.genr_f_to_d(3, 4, 1, image).output, source)
        return _checks_ok(notes, checks)

    return _run(2, "heavy-part worked example at n=9, (p,k,r)=(3,4,1)", 1.0, body)


# The published final union of this example drops the 7^6 block (weight 391
# instead of 433); the decomposition and the inverse force it to be present.
_DPK_INPUT = "13^10,10^5,7^30,6^2,4^5,1^11"
_DPK_OUTPUT = "21^8,13^10,10^5,7^6,6^2,4^5,1^11"


def criterion_3() -> CriterionResult:
    """Large worked example for the heavy-multiplicity map at (p,k)=(3,4),
    including the trace intermediates and the inverse."""

    def body(notes: list[str]) -> bool:
        source = parse_partition(_DPK_INPUT)
        trace = bijections.dpk_to_dp(3, 4, source)
        blocks = {str(step.value) for step in trace.steps}
        return _checks_ok(notes, {
            "output": (trace.output, parse_partition(_DPK_OUTPUT)),
            "output weight": (trace.output.weight, source.weight),
            "converted block 21^8 traced": ("21^8" in blocks, True),
            "merged block 6^2 traced": ("6^2" in blocks, True),
            "inverse": (bijections.dp_to_dpk(3, 4, trace.output).output, source),
        })

    return _run(3, "heavy-multiplicity worked example at n=433, (p,k)=(3,4)", 1.0, body)


def criterion_4() -> CriterionResult:
    """Theorem suite on the enumeration engine."""

    def body(notes: list[str]) -> bool:
        ids = ["I1", "I2", "I3", "I4", "I8", "I11", "I12", "I13", "I16"]
        return _reports_ok(notes, identities.verify_cells(ids, engine="enum"))

    return _run(4, "theorem suite via enumeration", 600.0, body)


def criterion_5() -> CriterionResult:
    """Series engine suite: oracle/series agreement to n = 40 plus the
    congruence and series-identity checks at the default order."""

    def body(notes: list[str]) -> bool:
        for family, params in families.closed_form_cells():
            enum, series = (families.values(family, 40, params, e) for e in ("enum", "series"))
            if enum != series:
                n = next(n for n in range(41) if enum[n] != series[n])
                notes.append(f"{family} {params} disagrees at n={n}: enum={enum[n]} series={series[n]}")
        agree = not notes
        reports = identities.verify_cells(["I5", "I6", "I14"], engine="series")
        reports += identities.verify_cells(["I14"], engine="enum")
        return _reports_ok(notes, reports) and agree

    return _run(5, "series engine suite and oracle agreement", 120.0, body)


def criterion_6() -> CriterionResult:
    """Recurrence and parity corollaries up to n = 60."""

    def body(notes: list[str]) -> bool:
        return _reports_ok(notes, identities.verify_cells(["I9", "I10"], engine="enum"))

    return _run(6, "recurrence and parity corollaries to n=60", 300.0, body)


def _bijection_cells() -> list[tuple[str, dict[str, int]]]:
    cells: list[tuple[str, dict[str, int]]] = []
    for t in (2, 3, 4, 5):
        cells.append(("glaisher", {"t": t}))
    for p in (2, 3):
        for k in (2, 3, 4):
            for r in range(p):
                cells.append(("genr", {"p": p, "k": k, "r": r}))
    for p, k in ((2, 2), (2, 3), (3, 2), (3, 4)):
        cells.append(("dpk", {"p": p, "k": k}))
    for r in (0, 1):
        cells.append(("var0", {"r": r}))
    return cells


def criterion_7() -> CriterionResult:
    """Exhaustive bijectivity for every map and parameter cell, n <= 30."""

    def body(notes: list[str]) -> bool:
        ok = True
        for name, params in _bijection_cells():
            for n in range(31):
                failures = bijections.exhaustive_cell_check(name, params, n)
                if failures:
                    notes.append(f"{name} {params} n={n}: {failures[0]}")
                    ok = False
                    break
        return ok

    return _run(7, "bijectivity sweeps to n=30", 600.0, body)


def criterion_8() -> CriterionResult:
    """Parity-piece identities plus the orientation adjudication."""

    def body(notes: list[str]) -> bool:
        reports = identities.verify_cells(["I7", "I15"], engine="enum")
        ok = _reports_ok(notes, reports)
        for p, verdict in identities.orientation_verdicts(reports).items():
            notes.append(f"orientation verdict (p={p}): {verdict}")
        return ok

    return _run(8, "parity-piece grid and orientation adjudication", 300.0, body)


_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
             criterion_5, criterion_6, criterion_7, criterion_8)


def run_all(numbers: list[int] | None = None,
            echo: Callable[[str], None] | None = None) -> list[CriterionResult]:
    """Run the acceptance criteria (all by default), echoing one line each.
    Every number is checked before any criterion runs."""
    chosen = numbers or list(range(1, len(_CRITERIA) + 1))
    for number in chosen:
        if not 1 <= number <= len(_CRITERIA):
            raise ValueError(f"criterion number must be 1..{len(_CRITERIA)}, got {number}")
    results = []
    for number in chosen:
        result = _CRITERIA[number - 1]()
        results.append(result)
        if echo is not None:
            echo(result.line())
            for note in result.notes:
                echo(f"    {note}")
    return results
