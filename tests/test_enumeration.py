import pytest

from partlab import enumeration, families, qseries
from partlab.enumeration import ALL, DISTINCT, EnumKind, generate, multiplicity_at_most
from partlab.errors import DomainError, ResourceLimitError
from partlab.partition import Partition, format_partition


def test_all_partitions_of_4_in_order():
    got = [format_partition(p) for p in generate(4, ALL)]
    assert got == ["4", "3,1", "2^2", "2,1^2", "1^4"]


def test_n0_yields_exactly_empty():
    assert list(generate(0, DISTINCT)) == [Partition()]
    assert list(generate(0, ALL)) == [Partition()]


def test_multiplicity_bound_matches_no_multiples_filter():
    # Bound t-1 on multiplicities against the no-part-divisible-by-t filter.
    for t in (2, 3, 4, 5):
        for n in range(0, 41):
            bounded = sum(1 for _ in generate(n, multiplicity_at_most(t - 1)))
            filtered = sum(1 for p in generate(n, ALL) if all(part % t for part, _ in p.pairs))
            assert bounded == filtered, (t, n)


def test_filtered_count_examples():
    one_even_part = [p for p in generate(3, ALL) if sum(1 for part, _ in p.pairs if part % 2 == 0) == 1]
    assert one_even_part == [Partition([(2, 1), (1, 1)])]
    assert sum(1 for _ in generate(5, ALL)) == 7
    assert [format_partition(p) for p in generate(2, DISTINCT)] == ["2"]


def test_statistic_sum_even_parts_over_distinct():
    def even_parts(n):
        return sum(m for p in generate(n, DISTINCT) for part, m in p.pairs if part % 2 == 0)

    assert even_parts(2) == 1
    assert even_parts(3) == 1
    assert even_parts(1) == 0


def test_counts_match_series_engines():
    euler = qseries.inverse(qseries.pochhammer(1, 1, 40))
    distinct = qseries.pochhammer_plus(1, 1, 40)
    for n in range(41):
        assert sum(1 for _ in generate(n, ALL)) == euler.coeffs[n]
        assert sum(1 for _ in generate(n, DISTINCT)) == distinct.coeffs[n]


def test_streams_have_no_duplicates():
    for kind in (ALL, DISTINCT, multiplicity_at_most(3)):
        for n in range(26):
            seen = set()
            for p in generate(n, kind):
                text = format_partition(p)
                assert text not in seen
                seen.add(text)


def test_generation_is_deterministic():
    first = [format_partition(p) for p in generate(12, ALL)]
    second = [format_partition(p) for p in generate(12, ALL)]
    assert first == second


def test_cap_enforced_and_overridable(monkeypatch):
    monkeypatch.delenv(enumeration.CAP_ENV_VAR, raising=False)
    with pytest.raises(ResourceLimitError):
        list(generate(enumeration.DEFAULT_CAP + 1, ALL))
    beyond = enumeration.DEFAULT_CAP + 1
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, str(beyond))
    assert sum(1 for _ in generate(beyond, DISTINCT)) > 0

    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "10")
    with pytest.raises(ResourceLimitError):
        list(generate(11, ALL))
    assert sum(1 for _ in generate(10, ALL)) == 42

    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "not-a-number")
    with pytest.raises(DomainError):
        list(generate(1, ALL))
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, "-1")
    with pytest.raises(DomainError, match="must be nonnegative"):
        list(generate(1, ALL))


@pytest.mark.parametrize("n", [2.5, 3.0, "3", None, True, False])
def test_non_integer_weight_rejected(n):
    # Rejected before any arithmetic, as normalize_params rejects parameters.
    with pytest.raises(DomainError, match="must be an integer"):
        families.count_enum("s", n)
    with pytest.raises(DomainError, match="must be an integer"):
        list(generate(n))
    with pytest.raises(DomainError, match="must be an integer"):
        enumeration.pair_sequences(n, ALL)


def test_cap_has_no_per_call_override():
    # PARTLAB_MAX_N is the only way to set the cap, and the fold is
    # keyword-only, so a stale positional cap is not taken as a fold.
    with pytest.raises(TypeError):
        enumeration.pair_sequences(5, ALL, 5)
    with pytest.raises(TypeError):
        generate(5, ALL, cap=5)
    with pytest.raises(TypeError):
        families.count_enum("s", 5, cap=5)


def test_negative_weight_rejected():
    with pytest.raises(DomainError):
        list(generate(-1, ALL))


def test_bad_bound_rejected():
    with pytest.raises(DomainError):
        multiplicity_at_most(0)


@pytest.mark.parametrize("bound", [0, -1])
def test_direct_construction_checks_the_bound(bound):
    with pytest.raises(DomainError, match="multiplicity bound must be >= 1"):
        EnumKind("x", bound)
    with pytest.raises(DomainError, match="multiplicity bound must be >= 1"):
        DISTINCT._replace(bound=bound)


def test_enum_kind_record_contract():
    assert EnumKind("x", None).bound is None
    assert EnumKind(label="x", bound=2) == EnumKind("x", 2)
    assert (multiplicity_at_most(3).label, multiplicity_at_most(3).bound) == ("multiplicity_at_most(3)", 3)
    assert repr(DISTINCT) == "EnumKind(label='distinct', bound=1)"
    assert repr(ALL) == "EnumKind(label='all', bound=None)"
    for name in ("label", "bound"):
        with pytest.raises(AttributeError):
            setattr(DISTINCT, name, 2)


def test_streaming_path_beyond_cache_limit():
    n = enumeration._CACHE_LIMIT + 2
    stream_count = sum(1 for _ in generate(n, DISTINCT))
    series = qseries.pochhammer_plus(1, 1, n)
    assert stream_count == series.coeffs[n]


def test_slot_width_holds_every_partition_count():
    # A packed row to weight n holds counts of at most p(n) partitions per
    # slot, so p(n) must fit in _slot_bits(n) bits.
    p = qseries.gf_family("s", {}, 10_000).coeffs
    for n, count in enumerate(p):
        assert count.bit_length() <= enumeration._slot_bits(n), n


DEEP_CELLS = [
    ("s", {}, 2000),
    ("d_e", {}, 300),
    ("a", {}, 300),
    ("a_np", {"p": 5}, 300),
    ("g_alpha_odd", {"alpha": 3, "k": 2, "p": 3}, 300),
    ("f_pkr", {"p": 3, "k": 4, "r": 1}, 300),
]


@pytest.mark.parametrize("family,params,depth", DEEP_CELLS)
def test_packed_counts_match_series_at_depth(monkeypatch, family, params, depth):
    monkeypatch.setenv(enumeration.CAP_ENV_VAR, str(depth))
    monkeypatch.setattr(families, "_enum_memo", {})
    assert families.enum_values(family, depth, params) == families.series_for(family, params, depth).coeffs


def test_too_narrow_slots_corrupt_the_counts(monkeypatch):
    # Fault injection: slots too narrow for p(60) carry into their
    # neighbours, and the depth checks above must see it.
    monkeypatch.setattr(families, "_enum_memo", {})
    monkeypatch.setattr(enumeration, "_slot_bits", lambda n: 8)
    assert families.enum_values("s", 60) != families.series_for("s", {}, 60).coeffs
