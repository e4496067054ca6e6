import pytest

from partlab import families
from partlab.errors import DomainError, ResourceLimitError, UnknownFamilyError, UnsupportedFamilyError
from partlab.families import (
    closed_form_cells,
    count_enum,
    count_series,
    d_o_parity_lhs,
    enumerate_class,
    membership,
    recurrence_d_e,
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
    assert count_series("s", 5, order=5) == 7
    with pytest.raises(DomainError):
        count_series("s", 5, order=4)  # an explicit order must cover n


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


def test_signed_families_are_piece_differences():
    for n in range(21):
        assert count_enum("c", n) == count_enum("c_o", n) - count_enum("c_e", n)
        assert count_enum("b", n) == count_enum("b_o", n) - count_enum("b_e", n)
        cell = {"p": 3, "r": 1}
        assert count_enum("g_r", n, cell) == count_enum("g_r_odd", n, cell) - count_enum("g_r_even", n, cell)
        gcell = {"alpha": 3, "k": 2, "p": 3}
        assert count_enum("g_alpha", n, gcell) == (
            count_enum("g_alpha_odd", n, gcell) - count_enum("g_alpha_even", n, gcell)
        )


def test_piece_sums():
    for n in range(41):
        for p in (2, 3):
            assert count_enum("o_p", n, {"p": p}) == (
                count_enum("o_p_odd", n, {"p": p}) + count_enum("o_p_even", n, {"p": p})
            )
        assert count_enum("b_prime", n) == count_enum("b_o", n) + count_enum("b_e", n)


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


def test_parity_sum_examples():
    assert d_o_parity_lhs(2) == sigma0(1) % 2 == 1
    assert d_o_parity_lhs(6) == sigma0(3) % 2 == 0
    for n in range(1, 22, 2):
        assert d_o_parity_lhs(n) == 0, n
    with pytest.raises(DomainError):
        d_o_parity_lhs(0)
    with pytest.raises(DomainError):
        d_o_parity_lhs(4, engine="nope")


def test_parity_sum_engines_agree():
    for n in range(1, 31):
        assert d_o_parity_lhs(n, engine="enum") == d_o_parity_lhs(n, engine="series")


def test_parity_sum_matches_divisor_parity():
    for n in range(2, 41, 2):
        assert d_o_parity_lhs(n) == sigma0(n >> v2(n)) % 2, n


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


def test_heavy_part_series_diverges_when_k_exceeds_p():
    # With k > p the multiplicity residues overlap and the closed form counts
    # weighted representations, so it is excluded from the default grid; the
    # first divergence for (alpha, k, p) = (3, 3, 2) sits at n = 5, where the
    # series counts 1^5 twice (multiplicity 5 = 3+0+2 = 3+2+0).
    cell = {"alpha": 3, "k": 3, "p": 2}
    series = families.series_for("g_alpha_odd", cell)
    mismatches = [n for n in range(21) if count_enum("g_alpha_odd", n, cell) != series.coeffs[n]]
    assert mismatches and mismatches[0] == 5


def test_heavy_multiplicity_band_dies_but_larger_multiplicity_qualifies():
    # For (alpha, k, p) = (4, 2, 2) a multiplicity of 2 or 3 is fatal, yet 4
    # and 5 qualify: the walk must try every multiplicity, not stop at the
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


def test_cap_checked_on_memoized_table():
    table = families.enum_values("d_e", 60)
    assert isinstance(table, tuple) and len(table) == 61
    assert isinstance(families._enum_memo[("d_e", ())], tuple)
    with pytest.raises(ResourceLimitError):
        count_enum("d_e", 50, cap=40)
    with pytest.raises(ResourceLimitError):
        families.enum_values("d_e", 50, cap=40)
    assert count_enum("d_e", 40, cap=40) == table[40]
    assert families.enum_values("d_e", 40, cap=40) == table[:41]


def test_membership_memoized_per_family_and_params():
    assert membership("d_k", {"k": 3}) is membership("d_k", {"k": 3})
    assert membership("d_k", {"k": 3}) is not membership("d_k", {"k": 4})
    for bad in ({"k": [3]}, {"k": 3.0}, {"k": True}, {"k": 1}, {"k": {}}):
        for _ in range(2):
            with pytest.raises(DomainError):
                membership("d_k", bad)
    # Failed builds are not memoized; non-integer params are never keys.
    assert ("d_k", frozenset({("k", 1)})) not in families._member_memo
