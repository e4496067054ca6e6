import itertools

import pytest

import partlab
from partlab import acceptance, bijections, cli, enumeration, families, qseries
from partlab.errors import DomainError, ResourceLimitError, UnknownFamilyError, UnsupportedFamilyError
from partlab.families import (
    closed_form_cells,
    count_enum,
    count_series,
    enum_values,
    enumerate_class,
    membership,
    recurrence_d_e,
    series_for,
    triangular_parity,
)
from partlab.numtheory import sigma0, v2
from partlab.partition import parse_partition


def test_worked_example_values():
    assert count_enum("d_e", 8) == 6
    assert count_enum("d_pkr", 9, {"p": 3, "k": 4, "r": 1}) == 7
    assert count_enum("a", 1) == 0
    assert count_enum("b_prime", 4) == 3


def test_count_series_values():
    assert count_series("f0", 8) == 6
    assert count_series("s", 5) == 7
    assert count_series("o_p", 0, {"p": 2}) == 0


def test_count_series_negative_index():
    # The series order check rejects n < 0; count_series holds no check of its own.
    with pytest.raises(DomainError, match="must be nonnegative"):
        count_series("d_e", -1)


def test_count_series_beyond_default_order():
    # n above qseries.DEFAULT_ORDER builds the series to n itself.
    assert count_series("s", 250) == 230793554364681


def test_count_series_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        count_series("b", 5)
    with pytest.raises(UnsupportedFamilyError):
        count_series("glaisher_left", 5, {"t": 2})


def test_unknown_family():
    with pytest.raises(UnknownFamilyError):
        count_enum("nope", 3)


def test_family_spec_record_contract():
    spec = families.get_spec("d_pkr")
    assert (spec.id, spec.kind, spec.param_names) == ("d_pkr", "class", ("p", "k", "r"))
    bare = families.FamilySpec("x", "class", (), "no parameters", families._fold_all)
    assert bare.validate is None and bare.enum_kind is None
    assert repr(bare).startswith("FamilySpec(id='x', kind='class', param_names=(), description='no parameters', make_fold=")
    assert repr(bare).endswith(", validate=None, enum_kind=None)")
    for name in ("id", "kind", "param_names", "description", "make_fold", "validate", "enum_kind"):
        with pytest.raises(AttributeError):
            setattr(spec, name, None)


def test_param_validation():
    with pytest.raises(DomainError):
        count_enum("a_r", 5, {"p": 2, "r": 1})  # needs p >= r + 2
    with pytest.raises(DomainError):
        count_enum("g_alpha", 5, {"alpha": 1, "k": 2, "p": 2})  # needs alpha >= k
    with pytest.raises(DomainError):
        count_enum("h", 5, {"p": 3, "i": 2})  # i must be 0 or p
    with pytest.raises(DomainError):
        count_enum("d_pkr", 5, {"p": 2, "k": 2, "r": 2})  # needs r < p
    with pytest.raises(DomainError):
        count_enum("d_e", 5, {"p": 2})  # takes no parameters


@pytest.mark.parametrize("family, params, message", [
    ("f_pkr", {"p": 2, "k": 2, "r": 5}, "need 0 <= r < p"),
    ("o_p", {"p": 1}, "need p >= 2"),
    ("h", {"p": 0, "i": 0}, "need p >= 2"),
])
def test_exported_gf_family_checks_the_cell(family, params, message):
    # The unchecked builder returns a series for the first two cells (all
    # zeros for the first) and fails on the third with a lambert message.
    with pytest.raises(DomainError, match=message):
        partlab.gf_family(family, params, 6)


@pytest.mark.parametrize("order", [2.5, 10.0, "10", True])
def test_non_integer_order_rejected(order):
    with pytest.raises(DomainError, match="must be an integer"):
        partlab.gf_family("s", None, order)
    with pytest.raises(DomainError, match="must be an integer"):
        qseries.gf_family("d_e", {}, order)
    with pytest.raises(DomainError, match="must be an integer"):
        count_series("s", order)


def test_exported_gf_family_errors():
    assert partlab.gf_family("d_e", {}, 8) == qseries.gf_family("d_e", {}, 8)
    assert partlab.gf_family("s").order == qseries.DEFAULT_ORDER
    with pytest.raises(UnknownFamilyError):
        partlab.gf_family("nope", {}, 6)
    with pytest.raises(UnsupportedFamilyError):
        partlab.gf_family("b_prime", {}, 6)


def test_cap_propagates():
    with pytest.raises(ResourceLimitError):
        count_enum("s", 81)


def test_oracle_series_agreement_full_grid():
    # The master cross-check: every closed-form family agrees with its
    # enumeration oracle across the default parameter grid.
    for family, params in closed_form_cells():
        series = families.series_for(family, params)
        for n in range(41):
            assert count_enum(family, n, params) == series.coeffs[n], (family, params, n)


def test_oracle_series_agreement_deep(monkeypatch):
    # Counting and the series engine stay independent, so agreement far past
    # the default sizes checks both.
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "100")
    for family, params in closed_form_cells():
        assert enum_values(family, 100, params) == series_for(family, params, 100).coeffs[:101], (
            family, params)
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "400")
    d_e = enum_values("d_e", 400)
    series = series_for("d_e", order=400).coeffs
    for n in range(1, 401):
        assert d_e[n] == recurrence_d_e(n) == series[n], n


def test_oracle_series_agreement_whole_domain():
    # Past the default grid: every parameter tuple with values 0..8 that a
    # closed-form family accepts, so a series wrong only off the grid (as
    # g_alpha's once was for k > p) shows here.
    cells = 0
    for family in qseries.CLOSED_FORMS:
        names = families.get_spec(family).param_names
        for values in itertools.product(range(9), repeat=len(names)):
            params = dict(zip(names, values))
            try:
                families.normalize_params(family, params)
            except DomainError:
                continue
            cells += 1
            assert enum_values(family, 24, params) == series_for(family, params, 24).coeffs, (
                family, params)
    assert cells == 1459


# Each signed count and each sum is one fold with a weight per parity; its
# odd and even pieces are the same fold with weights (1, 0) and (0, 1).
def _signed_cells():
    """(signed, odd, even, params, heavy): heavy is the (alpha, k, p) of the
    cell's heavy-part fold, None for b."""
    yield "c", "c_o", "c_e", {}, (2, 2, 1)
    yield "b", "b_o", "b_e", {}, None
    for family, params in closed_form_cells():
        if family == "g_r":
            heavy = (params["p"] - params["r"], 2, params["p"])
            yield "g_r", "g_r_odd", "g_r_even", params, heavy
    for k in (1, 2, 3, 4):
        for p in (1, 2, 3, 4):
            for alpha in (k, k + 1, k + 2):
                cell = {"alpha": alpha, "k": k, "p": p}
                yield "g_alpha", "g_alpha_odd", "g_alpha_even", cell, (alpha, k, p)


def test_signed_families_are_piece_differences():
    cells = list(_signed_cells())
    assert len(cells) == 2 + 10 + 48
    assert sum(heavy[1] > heavy[2] for *_, heavy in cells[2:]) == 18
    for signed, odd, even, params, _ in cells:
        values = enum_values(signed, 20, params)
        odds, evens = enum_values(odd, 20, params), enum_values(even, 20, params)
        assert values == tuple(o - e for o, e in zip(odds, evens)), (signed, params)


def test_piece_sums():
    for n in range(41):
        for p in (2, 3):
            assert count_enum("o_p", n, {"p": p}) == (
                count_enum("o_p_odd", n, {"p": p}) + count_enum("o_p_even", n, {"p": p})
            )
        assert count_enum("b_prime", n) == count_enum("b_o", n) + count_enum("b_e", n)
    for _, odd, even, params, heavy in _signed_cells():
        if heavy is None:
            continue
        # The (1, 1) weighting of a heavy-part fold counts either piece.
        both = enumeration.pair_sequences(20, fold=families._fold_g_alpha(*heavy, 1, 1))
        odds, evens = enum_values(odd, 20, params), enum_values(even, 20, params)
        assert both == tuple(o + e for o, e in zip(odds, evens)), (odd, params)


def test_glaisher_class_counts_agree():
    for t in (2, 3, 4, 5):
        for n in range(41):
            assert count_enum("glaisher_left", n, {"t": t}) == count_enum("glaisher_right", n, {"t": t})


def test_specializations():
    for n in range(41):
        assert count_enum("d_e", n) == count_enum("d_pkr", n, {"p": 2, "k": 2, "r": 0})
        assert count_enum("d_o", n) == count_enum("d_pkr", n, {"p": 2, "k": 2, "r": 1})
        assert count_enum("f0", n) == count_enum("f_pkr", n, {"p": 2, "k": 2, "r": 0})
        assert count_enum("f2", n) == count_enum("f_pkr", n, {"p": 2, "k": 2, "r": 1})
        assert count_enum("a", n) == count_enum("a_r", n, {"p": 2, "r": 0})
        assert count_enum("a", n) == count_enum("a_np", n, {"p": 2})
        assert count_enum("o_p", n, {"p": 2}) == count_enum("b_prime", n)


def test_recurrence_values():
    assert recurrence_d_e(8) == 6
    assert recurrence_d_e(3) == count_enum("d_e", 3)
    assert recurrence_d_e(4) == count_enum("d_e", 4) == 1
    with pytest.raises(DomainError):
        recurrence_d_e(0)


def test_recurrence_matches_enumeration_prefix():
    for n in range(1, 41):
        assert recurrence_d_e(n) == count_enum("d_e", n), n


def _d_o_parity(values, n):
    return triangular_parity(values.__getitem__, n)


def test_parity_sum_examples():
    values = enum_values("d_o", 21)
    assert _d_o_parity(values, 2) == sigma0(1) % 2 == 1
    assert _d_o_parity(values, 6) == sigma0(3) % 2 == 0
    for n in range(1, 22, 2):
        assert _d_o_parity(values, n) == 0, n


def test_parity_sum_engines_agree():
    enum = enum_values("d_o", 30)
    series = series_for("d_o").coeffs
    for n in range(1, 31):
        assert _d_o_parity(enum, n) == _d_o_parity(series, n)


def test_parity_sum_matches_divisor_parity():
    values = enum_values("d_o", 40)
    for n in range(2, 41, 2):
        assert _d_o_parity(values, n) == sigma0(n >> v2(n)) % 2, n


def test_membership_and_class_enumeration():
    member = membership("d_pkr", {"p": 3, "k": 4, "r": 1})
    assert member(parse_partition("5,1^4"))
    assert not member(parse_partition("9"))
    members = enumerate_class("f0", 8)
    assert parse_partition("4^2") in members
    assert parse_partition("8") in members
    assert len(members) == count_enum("f0", 8)
    with pytest.raises(DomainError):
        membership("a")  # statistic, not a class
    # Bounded-kind membership rejects over-replicated parts.
    left = membership("glaisher_left", {"t": 3})
    assert left(parse_partition("2^2"))
    assert not left(parse_partition("2^3"))


def test_heavy_part_series_agrees_when_k_exceeds_p():
    # With k > p every multiplicity m >= alpha qualifies, so a heavy value j
    # contributes q^(alpha j)/(1 - q^(k j)) and the sum steps by max(p, k).
    # (alpha, k, p) = (3, 3, 2) has two members at n = 5, 1^5 and 2,1^3; a
    # sum stepping by p counts 1^5 twice (multiplicity 5 = 3+0+2 = 3+2+0).
    cell = {"alpha": 3, "k": 3, "p": 2}
    assert count_enum("g_alpha_odd", 5, cell) == count_series("g_alpha_odd", 5, cell) == 2
    cells = [{"alpha": alpha, "k": k, "p": p}
             for p in (1, 2, 3, 4) for k in range(p + 1, 6) for alpha in (k, k + 1, k + 2)]
    assert len(cells) == 30
    for cell in cells:
        for family in ("g_alpha", "g_alpha_odd", "g_alpha_even"):
            assert enum_values(family, 30, cell) == series_for(family, cell, 30).coeffs, (family, cell)


def test_heavy_multiplicity_band_dies_but_larger_multiplicity_qualifies():
    # For (alpha, k, p) = (4, 2, 2) a multiplicity of 2 or 3 is fatal, yet 4
    # and 5 qualify: counting must try every multiplicity, not stop at the
    # first dead one.
    cell = {"alpha": 4, "k": 2, "p": 2}
    member = membership("g_alpha_odd", cell)
    assert not member(parse_partition("1^2"))
    assert not member(parse_partition("1^3"))
    assert member(parse_partition("1^4"))
    assert member(parse_partition("1^5"))
    assert not member(parse_partition("2^2,1"))
    assert [count_enum("g_alpha_odd", n, cell) for n in range(6)] == [0, 0, 0, 0, 1, 1]
    assert enumerate_class("g_alpha_odd", 4, cell) == (parse_partition("1^4"),)


def test_cap_checked_on_memoized_table(monkeypatch):
    monkeypatch.delenv(enumeration.CAP_ENV_VAR, raising=False)
    table = families.enum_values("d_e", 60)
    assert isinstance(table, tuple) and len(table) == 61
    assert isinstance(families._enum_memo[("d_e", ())], tuple)
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "40")
    with pytest.raises(ResourceLimitError):
        count_enum("d_e", 50)
    with pytest.raises(ResourceLimitError):
        families.enum_values("d_e", 50)
    assert count_enum("d_e", 40) == table[40]
    assert families.enum_values("d_e", 40) == table[:41]


def test_table_regrowth_doubles_its_top(monkeypatch):
    # A first request counts exactly to n.  A request past the memoized top
    # counts to twice that top, within the cap, so criterion 7's ascending
    # reads of its 21 codomain cells at n = 0..30 count each cell at tops 0,
    # 1, 2, 4, 8, 16 and 32, not at every n.
    tops = []
    transfer = enumeration._fold_transfer

    def counting(n, bound, fold):
        tops.append(n)
        return transfer(n, bound, fold)

    monkeypatch.delenv(enumeration.CAP_ENV_VAR, raising=False)
    monkeypatch.setattr(enumeration, "_fold_transfer", counting)
    monkeypatch.setattr(families, "_enum_memo", {})
    assert count_enum("d_e", 7) == 3 and tops == [7]
    assert len(families._enum_memo[("d_e", ())]) == 8
    assert count_enum("d_e", 8) == 6 and tops == [7, 14]
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "20")
    assert count_enum("d_e", 15) == enum_values("d_e", 20)[15] and tops == [7, 14, 20]
    monkeypatch.delenv(enumeration.CAP_ENV_VAR)

    tops.clear()
    monkeypatch.setattr(families, "_enum_memo", {})
    codomains = set()
    for name, params in acceptance._bijection_cells():
        family, family_params = bijections.BIJECTIONS[name].classes(params)[1]
        codomains.add((family, tuple(sorted(family_params.items()))))
        for n in range(31):
            count_enum(family, n, family_params)
    assert len(codomains) == 21
    assert len(tops) == 147 and set(tops) == {0, 1, 2, 4, 8, 16, 32}


def test_order_bound_checked_on_every_series_read(monkeypatch, capsys):
    # A series built before the bound was lowered is not read past it.
    assert series_for("s", None, 3000).order == 3000
    monkeypatch.setenv(qseries.MAX_ORDER_ENV_VAR, "1000")
    with pytest.raises(ResourceLimitError):
        series_for("s", None, 3000)
    with pytest.raises(ResourceLimitError):
        count_series("s", 3000)
    assert cli.main(["table", "s", "3000", "3000", "--engine", "series"]) == 3
    assert "order 3000 exceeds the bound 1000" in capsys.readouterr().err
    with pytest.raises(DomainError):
        series_for("s", None, -1)


def test_membership_validates_params_on_every_call():
    for bad in ({"k": [3]}, {"k": 3.0}, {"k": True}, {"k": 1}, {"k": {}}):
        for _ in range(2):
            with pytest.raises(DomainError):
                membership("d_k", bad)
