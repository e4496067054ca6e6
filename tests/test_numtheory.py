from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from partlab import qseries
from partlab.errors import DomainError
from partlab.numtheory import PentagonalTerm, gamma, pentagonal_terms, sets_AB, sigma0, v2


def test_sigma0_values():
    assert sigma0(12) == 6
    assert sigma0(1) == 1
    assert sigma0(0) == 0
    with pytest.raises(DomainError):
        sigma0(-1)


def test_sigma0_multiplicative_small_exhaustive():
    for a in range(1, 101):
        for b in range(1, 101):
            if gcd(a, b) == 1:
                assert sigma0(a * b) == sigma0(a) * sigma0(b)


@given(st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=1000))
def test_sigma0_multiplicative_sampled(a, b):
    if gcd(a, b) == 1:
        assert sigma0(a * b) == sigma0(a) * sigma0(b)


def test_v2_values():
    assert v2(8) == 3
    assert v2(12) == 2
    assert v2(7) == 0
    with pytest.raises(DomainError):
        v2(0)


def test_pentagonal_terms_limits():
    assert pentagonal_terms(7) == (
        PentagonalTerm(1, 1, 2, -1),
        PentagonalTerm(2, 5, 7, 1),
    )
    assert pentagonal_terms(0) == ()
    twelve = pentagonal_terms(12)
    assert twelve[-1] == PentagonalTerm(3, 12, 15, -1)


def test_pentagonal_term_record_contract():
    term = PentagonalTerm(j=2, exponent_minus=5, exponent_plus=7, sign=1)
    assert term == PentagonalTerm(2, 5, 7, 1)
    assert repr(term) == "PentagonalTerm(j=2, exponent_minus=5, exponent_plus=7, sign=1)"
    for name in ("j", "exponent_minus", "exponent_plus", "sign"):
        with pytest.raises(AttributeError):
            setattr(term, name, 0)


def test_pentagonal_exponents_increase():
    terms = pentagonal_terms(500)
    exponents = [e for t in terms for e in (t.exponent_minus, t.exponent_plus)]
    assert exponents == sorted(exponents)


def test_sets_AB_examples():
    assert sets_AB(8) == (frozenset({1}), frozenset({1}))
    assert sets_AB(4) == (frozenset(), frozenset({1}))
    assert sets_AB(3) == (frozenset(), frozenset())
    with pytest.raises(DomainError):
        sets_AB(-1)


def test_index_products_always_divisible_by_4():
    for j in range(1, 1001):
        assert 2 * j * (3 * j + 1) % 4 == 0
        assert 2 * j * (3 * j - 1) % 4 == 0


def test_sets_AB_match_floor_bound_characterization():
    for r in range(10_001):
        a, b = sets_AB(r)
        root = isqrt(6 * r + 1)
        a_floor = frozenset(
            j for j in range(1, (root - 1) // 6 + 1) if (2 * j * (3 * j + 1) - r) % 4 == 0
        )
        b_floor = frozenset(
            j for j in range(1, (root + 1) // 6 + 1) if (2 * j * (3 * j - 1) - r) % 4 == 0
        )
        assert a == a_floor and b == b_floor, r


def test_gamma_worked_values():
    assert gamma(8) == 1
    assert gamma(4) == 1
    assert gamma(12) == -1


def test_gamma_matches_series_oracle():
    # gamma(n) is the q^n coefficient of the pentagonal product in q^4 times
    # the divisor generating function in q^4.
    order = 100
    oracle = qseries.mul(qseries.pochhammer(4, 4, order), qseries.lambert(4, 4, 1, order))
    for n in range(4, order + 1, 4):
        assert gamma(n) == oracle.coeffs[n], n


def test_gamma_domain():
    with pytest.raises(DomainError):
        gamma(6)
    with pytest.raises(DomainError):
        gamma(0)


def test_pentagonal_iteration_matches_floor_bound():
    # Largest j with j(3j-1)/2 <= n equals floor((1 + sqrt(24n+1)) / 6).
    for n in range(10_001):
        assert len(pentagonal_terms(n)) == (1 + isqrt(24 * n + 1)) // 6


def test_triangular_iteration_matches_floor_bound():
    # Number of j >= 0 with j(j+1)/2 <= n equals floor((sqrt(8n+1)-1)/2) + 1.
    for n in range(10_001):
        count = 0
        j = 0
        while j * (j + 1) // 2 <= n:
            count += 1
            j += 1
        assert count == (isqrt(8 * n + 1) - 1) // 2 + 1
