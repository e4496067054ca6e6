from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from partlab.errors import InvalidPartitionError
from partlab.partition import Partition, format_partition, parse_partition

pair_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=9)),
    max_size=10,
)


def test_compact_notation_example():
    # 14+14+10+10+7+7+7+1+1+1+1 = 73
    p = Partition([(14, 2), (10, 2), (7, 3), (1, 4)])
    assert p.weight == 73
    assert p.pairs == ((14, 2), (10, 2), (7, 3), (1, 4))


def test_empty_partition():
    p = Partition([])
    assert p.weight == 0
    assert p.pairs == ()
    assert p.is_empty()


def test_merge_duplicates_and_sort():
    p = Partition([(2, 1), (2, 2), (5, 1)])
    assert p.pairs == ((5, 1), (2, 3))
    assert p.weight == 11


def test_zero_multiplicity_dropped():
    assert Partition([(3, 0), (2, 1)]).pairs == ((2, 1),)


@pytest.mark.parametrize("bad", [[(0, 1)], [(-3, 2)], [(2, -1)], [("x", 1)], [(2.5, 1)], [(3,)]])
def test_invalid_input_rejected(bad):
    with pytest.raises(InvalidPartitionError):
        Partition(bad)


PAIR = "expected (part, multiplicity) pair, got "
PART = "part must be a positive integer, got "
MULT = "multiplicity must be a nonnegative integer, got "


class Part(IntEnum):
    THREE = 3


# Each bad input with its exact message.  The first bad item is reported,
# and in it the part before the multiplicity; good items ahead of it change
# nothing.
BAD_INPUTS = [
    ([(2, 1, 3)], PAIR + "(2, 1, 3)"),
    ([5], PAIR + "5"),
    ([(0, 1)], PART + "0"),
    ([(True, 1)], PART + "True"),
    ([("x", 1)], PART + "'x'"),
    ([(2.5, 1)], PART + "2.5"),
    ([(2, -1)], MULT + "-1"),
    ([(2, False)], MULT + "False"),
    ([(4, 1), (0, -1), 5], PART + "0"),
    ([(4, 1), (3, -2), (0, 1)], MULT + "-2"),
    ([(4, 1), (3, 0), "abc", (0, 1)], PAIR + "'abc'"),
    ([(4, 2.0), (0, 1)], MULT + "2.0"),
]


def test_validation_contract():
    for items, message in BAD_INPUTS:
        with pytest.raises(InvalidPartitionError) as excinfo:
            Partition(items)
        assert str(excinfo.value) == message, items
    # An int subclass other than bool is a valid part; zero multiplicities
    # drop, and the weight is the sum of part * multiplicity.
    p = Partition([(Part.THREE, 2), (5, 0), (1, 1), (Part.THREE, 1)])
    assert p.pairs == ((3, 3), (1, 1))
    assert p.weight == sum(part * mult for part, mult in p.pairs) == 10
    assert Partition([(7, 0)]).pairs == ()


@given(pair_lists)
def test_canonicalization_idempotent(pairs):
    once = Partition(pairs)
    again = Partition(once.pairs)
    assert once == again
    assert once.weight == again.weight


@given(pair_lists)
def test_text_round_trip(pairs):
    p = Partition(pairs)
    assert parse_partition(format_partition(p)) == p


def test_text_grammar():
    assert format_partition(Partition()) == "-"
    assert parse_partition("-") == Partition()
    assert parse_partition("") == Partition()
    p = parse_partition("13^10,10^5,7^30,6^2,4^5,1^11")
    assert p.weight == 433
    # free input order, canonical output
    assert parse_partition("1^11, 13^10 ,7^30,10^5,4^5,6^2") == p


@pytest.mark.parametrize("text", ["4,,2", "x", "3^", "^2", "-1", "2^-1", "3 4"])
def test_parse_rejects_garbage(text):
    with pytest.raises(InvalidPartitionError):
        parse_partition(text)

