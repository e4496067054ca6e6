import json
import multiprocessing
import os
import signal
import time

import pytest

from partlab import enumeration, families, identities, qseries
from partlab.errors import DomainError, ResourceLimitError, UnknownIdentityError
from partlab.identities import (
    Counterexample,
    IdentityReport,
    IdentitySpec,
    failures,
    format_params,
    identity_ids,
    list_identities,
    orientation_verdicts,
    reports_to_csv,
    reports_to_json,
    verify,
    verify_cells,
)


def test_registry_complete_and_unique():
    ids = identity_ids()
    for k in range(1, 17):
        assert f"I{k}" in ids
    assert "I15-swapped" in ids
    assert len(ids) == len(set(ids))
    assert len(list_identities()) == len(ids)
    # every claim is registry data run by one runner
    relations = {"equality", "signed-equality", "divisibility", "congruence"}
    assert all(callable(s.sides) and s.kind in relations for s in list_identities())


def test_smoke_all_default_grids():
    reports = verify_cells(n_max=20)
    assert not failures(reports)
    # every registered identity appears in the batch
    assert {r.id for r in reports} == set(identity_ids())


def test_verify_i8_both_engines():
    report = verify("I8", None, 40, "both")
    assert report.holds
    assert report.engine == "both"


def test_verify_i6_series_to_order_200():
    report = verify("I6", {"p": 5, "offset": 4}, 200, "series")
    assert report.holds
    assert report.n_max == 200


def test_i6_cell_past_n_max_is_not_reported():
    # A congruence first checks n = offset; a run that stops short of it
    # checks nothing, so it must not report the cell as holding.
    for engine in ("series", "enum"):
        with pytest.raises(DomainError, match="first checked index is 6"):
            verify("I6", {"p": 11, "offset": 6}, 5, engine)
    assert verify("I6", {"p": 11, "offset": 6}, 6, "both").holds
    # An explicit id drops such cells and errors only when none is left.
    assert [r.params for r in verify_cells(["I6"], n_max=5)] == [
        (("offset", 4), ("p", 5)), (("offset", 5), ("p", 7))]
    with pytest.raises(DomainError, match="first checked index is 4"):
        verify_cells(["I6"], n_max=3)
    with pytest.raises(DomainError, match="first checked index is 6"):
        verify_cells(["I6"], {"p": 11}, n_max=5)
    # A sweep of every identity skips them.
    assert {r.id for r in verify_cells(n_max=3)} == set(identity_ids()) - {"I6"}


def test_verify_i1_enum():
    assert verify("I1", None, 25, "enum").holds


def test_default_engines_and_n_max():
    report = verify("I9")
    assert report.engine == "enum" and report.n_max == 60 and report.holds
    report = verify("I5", {"p": 2})
    assert report.engine == "series" and report.n_max == 200 and report.holds


def test_adjudication_exactly_one_orientation():
    assert orientation_verdicts(verify_cells(["I15"], n_max=30)) == {2: "swapped", 3: "swapped"}

    def report(identity_id, p, holds):
        return IdentityReport(identity_id, (("p", p),), 30, "enum",
                              "holds" if holds else "fails", None, 0)

    reports = [report("I15", 2, True), report("I15-swapped", 2, True),
               report("I15", 3, False), report("I15-swapped", 3, False),
               report("I15", 5, True), report("I1", 7, False)]
    # a p with only one orientation reported gets no verdict
    assert orientation_verdicts(reports) == {2: "both", 3: "neither"}


def test_failures_lines():
    def report(identity_id, params, ce=None):
        return IdentityReport(identity_id, params, 30, "enum",
                              "fails" if ce else "holds", ce, 0)

    p2, p3 = (("p", 2),), (("p", 3),)
    printed_fails = report("I15", p2, Counterexample(2, 1, 0))
    swapped_fails = report("I15-swapped", p3, Counterexample(3, 0, 1))
    # exactly one orientation per p: no line, whichever holds
    assert failures([printed_fails, report("I15-swapped", p2),
                     report("I15", p3), swapped_fails]) == []
    # a lone orientation must hold
    assert failures([report("I15-swapped", p2)]) == []
    assert failures([printed_fails]) == ["expected exactly one orientation to hold for p=2"]
    # both and neither; a plain failure gives its counterexample, and comes first
    plain = report("I4", (("p", 3), ("r", 1)), Counterexample(5, 2, 3))
    reports = [report("I15", p3, Counterexample(3, 1, 0)), swapped_fails,
               report("I15", p2), report("I15-swapped", p2), plain,
               report("I1", (), Counterexample(4, 1, 2)), report("I16", (("t", 2),))]
    assert orientation_verdicts(reports) == {2: "both", 3: "neither"}
    assert failures(reports) == [
        "I4 {'p': 3, 'r': 1} fails at n=5: lhs=2 rhs=3",
        "I1 {} fails at n=4: lhs=1 rhs=2",
        "expected exactly one orientation to hold for p=2",
        "expected exactly one orientation to hold for p=3",
    ]


def test_printed_orientation_counterexample_reproducible():
    report = verify("I15", {"p": 2}, 30, "enum")
    assert not report.holds
    ce = report.counterexample
    assert (ce.n, ce.lhs, ce.rhs) == (2, 1, 0)
    again = verify("I15", {"p": 2}, ce.n, "enum")
    assert again.counterexample == ce


def test_pair_auto_included_and_counts_as_holding():
    reports = verify_cells(["I15"], n_max=20)
    assert {r.id for r in reports} == {"I15", "I15-swapped"}
    assert not failures(reports)


def test_overall_ok_fails_when_plain_identity_fails():
    reports = verify_cells(["I1"], n_max=20)
    assert not failures(reports)
    broken = [identities.IdentityReport(
        id="I1", params=(), n_max=5, engine="enum", status="fails",
        counterexample=identities.Counterexample(3, 1, 2), ms=0)]
    assert failures(broken)


def test_unknown_identity_and_bad_params():
    with pytest.raises(UnknownIdentityError):
        verify("I99")
    with pytest.raises(DomainError):
        verify("I4", {"p": 9, "r": 0})
    with pytest.raises(DomainError):
        verify("I4")  # grid has many cells, parameters required
    with pytest.raises(DomainError):
        verify("I1", None, 0)
    with pytest.raises(DomainError):
        verify("I1", None, 10, "series")  # no closed form on both sides


def test_grid_filtering():
    reports = verify_cells(["I11"], params={"p": 3, "k": 4}, n_max=15)
    assert len(reports) == 3  # r in 0..2
    assert all(dict(r.params)["p"] == 3 and dict(r.params)["k"] == 4 for r in reports)


def test_blanket_engine_request_skips_unsupported():
    reports = verify_cells(n_max=30, engine="series")
    ran = {r.id for r in reports}
    assert "I5" in ran and "I14" in ran
    assert "I1" not in ran and "I16" not in ran
    assert not failures(reports)
    # explicitly requested ids still reject an unsupported engine
    with pytest.raises(DomainError):
        verify_cells(["I1"], engine="series")


def test_i5_enum_engine():
    assert verify("I5", {"p": 3}, 25, "enum").holds
    assert verify("I5", {"p": 3}, 25, "both").holds


def test_enum_n_max_beyond_cap_fails_fast():
    from partlab.errors import ResourceLimitError

    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        verify("I9", None, 100, "enum")
    assert time.perf_counter() - start < 1.0


def test_i2_sign_is_checked_as_signed_integers():
    # b(n) itself is negative at n = 3; the identity is about signed values.
    from partlab import families

    assert families.count_enum("b", 3) == -1
    assert families.count_enum("c", 3) == 1
    assert verify("I2", None, 10, "enum").holds


def test_parallel_jobs_match_sequential(monkeypatch):
    # A 4-CPU machine, so jobs=3 cuts the 62 default cells into shares of
    # 21, 21 and 20.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    strip = lambda rs: [r._replace(ms=0) for r in rs]
    seq = strip(verify_cells())
    assert len(seq) == 62
    for jobs in (2, 3):
        assert strip(verify_cells(jobs=jobs)) == seq
        assert multiprocessing.active_children() == []
    for bad in (0, -3):
        with pytest.raises(DomainError):
            verify_cells(["I4"], n_max=12, jobs=bad)


# The failure paths patch the relation runner in this process; only a forked
# child sees the patch.
forked = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="children must inherit the monkeypatch")


@pytest.fixture
def deadline():
    """Fail, rather than hang, if the test still runs after 60 s."""
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _raise_at(monkeypatch, faults):
    """Patch the relation runner to call faults[(id, cell)] at that cell.
    On a 4-CPU machine the cells of FAULT_IDS are cut into shares of 7 and
    6 with two processes: I1, I2, I3 and I4 at (p, r) = (2, 0), (3, 0) |
    (3, 1) to (5, 3).  With three, shares of 5, 5 and 3: ... (3, 0) |
    (3, 1) to (5, 0) | (5, 1) to (5, 3)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    run = identities._run_relation

    def faulty(spec, cell, n_max, engine):
        fault = faults.get((spec.id, tuple(sorted(cell.items()))))
        if fault is not None:
            fault()
        return run(spec, cell, n_max, engine)
    monkeypatch.setattr(identities, "_run_relation", faulty)


def _raiser(exc):
    def fault():
        raise exc
    return fault


FAULT_IDS = ["I1", "I2", "I3", "I4"]
LAST_I4 = ("I4", (("p", 5), ("r", 3)))


@forked
@pytest.mark.parametrize("jobs, cells", [
    (2, [("I2", ()), LAST_I4]),  # in the caller's share, ahead of one in the child's
    (2, [LAST_I4]),  # in the child's share only
    (3, [("I4", (("p", 4), ("r", 0))), LAST_I4]),  # in the second and third shares
])
def test_a_raising_cell_reraises_the_first_error_in_cell_order(jobs, cells, monkeypatch, deadline):
    _raise_at(monkeypatch, {cell: _raiser(ValueError(f"bad cell {cell}")) for cell in cells})
    with pytest.raises(ValueError) as caught:
        verify_cells(FAULT_IDS, n_max=10, jobs=jobs)
    assert type(caught.value) is ValueError and str(caught.value) == f"bad cell {cells[0]}"
    assert multiprocessing.active_children() == []


@forked
def test_a_child_that_dies_without_sending_names_its_exit_code(monkeypatch, deadline):
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(3)
    _raise_at(monkeypatch, {LAST_I4: die})
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its reports"):
        verify_cells(FAULT_IDS, n_max=10, jobs=2)
    assert multiprocessing.active_children() == []


def test_json_and_csv_serialization():
    reports = verify_cells(["I13"], n_max=10)
    payload = json.loads(reports_to_json(reports))
    assert len(payload) == 4
    assert set(payload[0]) == {"id", "params", "n_max", "engine", "status", "counterexample", "ms"}
    assert payload[0]["status"] == "holds"

    csv_text = reports_to_csv(reports)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ",".join(identities.CSV_FIELDS)
    assert len(lines) == 5
    assert lines[1].startswith("I13,p=2;k=2,")
    # every row keeps the same column count
    assert {line.count(",") for line in lines} == {len(identities.CSV_FIELDS) - 1}


def test_format_params_order_is_stable():
    assert format_params({"k": 4, "p": 3, "r": 1}) == "p=3,k=4,r=1"
    assert format_params({}) == ""


def _relation(kind, sides, n_lo=0, modulus=None):
    return IdentitySpec("X", "deliberately false", kind, ((),), ("enum",), 30,
                        sides=lambda cell, engine: sides, n_lo=n_lo, modulus=modulus)


S, A, D_E = ("s", None), ("a", None), ("d_e", None)  # s: 1,1,2,3,5 a: 0,0,1,1,1 d_e: 0,0,0,0,1
N = (lambda params, engine, n_max: range(n_max + 1), None)  # a derived side: 0,1,2,3,4


@pytest.mark.parametrize("spec, cell, expected", [
    # equality: side 0 against the first side that differs
    (_relation("equality", ((S, S, A),), n_lo=1), {}, (1, 1, 0)),
    # groups are checked in order, each over the whole range
    (_relation("equality", ((S, S), (A, D_E))), {}, (2, 1, 0)),
    # signed equality: rhs is (-1)^n times side 1
    (_relation("signed-equality", ((S, S),), n_lo=1), {}, (1, 1, -1)),
    # divisibility: both raw values, modulus fixed or the cell's p
    (_relation("divisibility", ((S, A),), n_lo=2, modulus=2), {}, (2, 2, 1)),
    (_relation("divisibility", ((S, D_E),), n_lo=4), {"p": 3}, (4, 5, 1)),
    # congruence along offset + p*m: (index, value, 0)
    (_relation("congruence", ((S,),)), {"p": 5, "offset": 3}, (3, 3, 0)),
    # a derived side is a sequence function of (params, engine, n_max)
    (_relation("equality", ((N, S),), n_lo=1), {}, (4, 4, 5)),
])
def test_relation_counterexample_convention(spec, cell, expected):
    assert identities._run_relation(spec, cell, 30, "enum") == Counterexample(*expected)


def test_relation_runner_passes_true_claims():
    # Ramanujan's s(5m + 4) = 0 mod 5
    holds = _relation("congruence", ((S,),))
    assert identities._run_relation(holds, {"p": 5, "offset": 4}, 60, "enum") is None
    assert identities._run_relation(holds, {"p": 5, "offset": 4}, 200, "series") is None


@pytest.mark.parametrize("identity_id,params", [
    ("I1", None), ("I9", None), ("I10", None), ("I14", {"p": 2, "k": 2, "alpha": 2}),
])
def test_enum_engine_past_the_cap_fails_before_walking(identity_id, params, monkeypatch):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked partitions past the cap")

    monkeypatch.delenv(enumeration.CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(enumeration, "pair_sequences", no_walk)
    with pytest.raises(ResourceLimitError, match="n=81 exceeds the cap 80"):
        verify(identity_id, params, n_max=81, engine="enum")


def test_i9_past_the_cap_fails_before_the_recurrence(monkeypatch):
    def no_recurrence(n):
        raise AssertionError("ran the recurrence past the cap")

    monkeypatch.delenv(enumeration.CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(families, "recurrence_d_e", no_recurrence)
    with pytest.raises(ResourceLimitError, match="n=100000 exceeds the cap 80"):
        verify("I9", None, n_max=100_000, engine="enum")


def test_i14_enum_engine_past_the_default_order(monkeypatch):
    # The series side is built to n_max, not only to qseries.DEFAULT_ORDER.
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "210")
    report = verify("I14", {"p": 2, "k": 2, "alpha": 2}, n_max=210, engine="enum")
    assert report.holds
    assert report.n_max == 210


# Fault injection: a perturbed derived sequence or closed form must surface
# as a counterexample in each claim's (n, lhs, rhs) convention.
G_CELL = {"p": 2, "k": 2, "alpha": 2}  # g_alpha_odd: 0,0,1,1,2,3,5,7  even: 0,0,0,0,1,1,1,2


def test_i9_counterexample_is_recurrence_against_d_e(monkeypatch):
    original = families.recurrence_d_e
    monkeypatch.setattr(families, "recurrence_d_e", lambda n: original(n) + (n == 6))
    assert verify("I9", None, 30, "enum").counterexample == Counterexample(6, 3, 2)


@pytest.mark.parametrize("engine", ["enum", "series"])
def test_i10_counterexample_is_parity_sum_against_divisor_parity(engine, monkeypatch):
    original = families.triangular_parity
    monkeypatch.setattr(families, "triangular_parity",
                        lambda values, n: original(values, n) ^ (n in (6, 8)))
    # parity sum of d_o at 6 is 0, sigma0(3) = 2 is even
    assert verify("I10", None, 30, engine).counterexample == Counterexample(6, 1, 0)


def _bump_closed_form(monkeypatch, family, at):
    """Add q^at to the family's Lambert-type sum: the series gains 1 at n = at.
    The added term's only exponent up to any allowed order is at."""
    original = qseries.CLOSED_FORMS[family]
    far = qseries.DEFAULT_MAX_ORDER + 1

    def bumped(**params):
        numerator, terms = original(**params)
        return numerator, (*terms, (at, far, 1, 1, far))

    monkeypatch.setitem(qseries.CLOSED_FORMS, family, bumped)


@pytest.mark.parametrize("family, engine, expected", [
    # by series: odd - even against the signed series
    ("g_alpha", "series", (5, 2, 3)),
    ("g_alpha_even", "series", (5, 1, 2)),
    # by enumeration: each unsigned piece against its series
    ("g_alpha_even", "enum", (7, 2, 3)),
])
def test_i14_counterexample_convention(family, engine, expected, monkeypatch):
    _bump_closed_form(monkeypatch, family, 5 if engine == "series" else 7)
    assert verify("I14", G_CELL, 30, engine).counterexample == Counterexample(*expected)


def test_i14_enum_engine_does_not_read_the_signed_series(monkeypatch):
    _bump_closed_form(monkeypatch, "g_alpha", 5)
    assert verify("I14", G_CELL, 30, "enum").holds
    assert not verify("I14", G_CELL, 30, "series").holds


def test_series_groups_that_compare_one_closed_form():
    # A series group whose two family sides map to equal CLOSED_FORMS data
    # compares one series with itself and cannot fail.  Exactly I8's two
    # groups and I11's fifteen cells are such groups; a series engine on a
    # claim like I1 (a/c), I4 (a_r/g_r) or I7 (o_p pieces/h) would add more.
    same = []
    for spec in list_identities():
        if "series" not in spec.engines:
            continue
        for cell in spec.cells():
            for group in spec.sides(cell, "series"):
                if len(group) != 2 or not all(isinstance(source, str) for source, _ in group):
                    continue
                (f, f_params), (g, g_params) = group
                if qseries.CLOSED_FORMS[f](**(f_params or {})) == qseries.CLOSED_FORMS[g](**(g_params or {})):
                    same.append((spec.id, format_params(cell), f, g))
    i11_cells = identities.get_identity("I11").cells()
    assert same == [("I8", "", "d_e", "f0"), ("I8", "", "d_o", "f2"),
                    *(("I11", format_params(cell), "f_pkr", "d_pkr") for cell in i11_cells)]
    assert len(same) == 17


def _default_cells(keep=lambda spec, cell: True):
    """(id, params) of every default cell that ``keep`` accepts, in registry
    order and, within an identity, by params."""
    return [(spec.id, cell) for spec in list_identities() for cell in sorted(spec.grid)
            if keep(spec, cell)]


P2, P3 = (("p", 2),), (("p", 3),)


@pytest.mark.parametrize("args, kwargs, expected", [
    ((None,), {}, _default_cells()),
    ((["I16", "I1"],), {}, [("I1", ()), *(("I16", (("t", t),)) for t in (2, 3, 4, 5))]),
    ((["I15-swapped"],), {}, [("I15", P2), ("I15", P3), ("I15-swapped", P2), ("I15-swapped", P3)]),
    ((None, {"p": 3}), {}, _default_cells(lambda spec, cell: dict(cell).get("p") == 3)),
    ((None,), {"engine": "series"},
     _default_cells(lambda spec, cell: spec.id in ("I5", "I6", "I8", "I10", "I11", "I14"))),
    ((None,), {"n_max": 3}, _default_cells(lambda spec, cell: spec.id != "I6")),
    ((["I6"],), {"n_max": 5}, [("I6", (("offset", 4), ("p", 5))), ("I6", (("offset", 5), ("p", 7)))]),
    (([],), {}, []),
])
def test_selection_contract(args, kwargs, expected, monkeypatch):
    # Which cells a request selects, and in what order; no relation runs.
    monkeypatch.setattr(identities, "_run_relation", lambda *a: None)
    assert [(r.id, r.params) for r in verify_cells(*args, **kwargs)] == expected


def test_selection_contract_sizes():
    assert len(_default_cells()) == 62
    assert len(_default_cells(lambda spec, cell: dict(cell).get("p") == 3)) == 21
    assert len(_default_cells(lambda spec, cell: spec.id != "I6")) == 59


@pytest.mark.parametrize("args, kwargs, error, message", [
    ((["I99"],), {}, UnknownIdentityError, "unknown identity 'I99'"),
    ((["I1"],), {"engine": "series"}, DomainError, "I1 supports engines ('enum',), got 'series'"),
    ((["I1"], {"p": 3}), {}, DomainError, "I1 has no grid cell matching {'p': 3}; valid cells: ['-']"),
    ((["I6"],), {"n_max": 3}, DomainError,
     "I6 p=5,offset=4 checks no n up to n_max=3: its first checked index is 4"),
    ((None, {"p": 99}), {}, DomainError, "no identity has a grid cell matching {'p': 99}"),
    ((None, {"t": 3}), {"engine": "series"}, DomainError,
     "no identity that runs engine 'series' has a grid cell matching {'t': 3}"),
    ((None,), {"jobs": 0}, DomainError, "jobs must be >= 1, got 0"),
    ((["I1", "I2", "I3"],), {"jobs": 2.5}, DomainError, "jobs must be an integer, got 2.5"),
    ((["I1", "I2", "I3"],), {"jobs": "2"}, DomainError, "jobs must be an integer, got '2'"),
    ((["I1", "I2", "I3"],), {"jobs": True}, DomainError, "jobs must be an integer, got True"),
    ((["I5"],), {"n_max": 2.5, "engine": "series"}, DomainError, "n_max must be an integer, got 2.5"),
    ((None,), {"n_max": "9"}, DomainError, "n_max must be an integer, got '9'"),
    ((None,), {"n_max": 0}, DomainError, "n_max must be >= 1, got 0"),
])
def test_selection_contract_errors(args, kwargs, error, message, monkeypatch):
    # A 4-CPU machine, so that a float jobs would reach the process pool.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(identities, "_run_relation", lambda *a: None)
    with pytest.raises(error) as caught:
        verify_cells(*args, **kwargs)
    assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize("args, kwargs, message", [
    (("I1",), {"n_max": 2.5}, "n_max must be an integer, got 2.5"),
    (("I1",), {"n_max": True}, "n_max must be an integer, got True"),
    (("I6", {"p": 5, "offset": 4}), {"n_max": "9"}, "n_max must be an integer, got '9'"),
])
def test_verify_rejects_an_n_max_that_is_not_an_int(args, kwargs, message):
    with pytest.raises(DomainError) as caught:
        verify(*args, **kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize("ids, expected", [
    (["I1", "I1"], [("I1", ())]),
    (["I15", "I15-swapped", "I15"], [("I15", P2), ("I15", P3), ("I15-swapped", P2), ("I15-swapped", P3)]),
])
def test_repeated_id_runs_once(ids, expected):
    assert [(r.id, r.params) for r in verify_cells(ids, n_max=10)] == expected
