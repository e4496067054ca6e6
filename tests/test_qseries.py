import pytest
from hypothesis import given, settings, strategies as st

import partlab
from partlab import qseries
from partlab.errors import DomainError, OrderMismatchError, ResourceLimitError, UnsupportedFamilyError
from partlab.numtheory import sigma0
from partlab.qseries import (
    Series,
    add,
    cube_series,
    gf_family,
    inverse,
    lambert,
    mul,
    pentagonal_series,
    pochhammer,
    pochhammer_plus,
    quotient,
    scale,
    times_pochhammer,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=12)


def test_mul_telescopes_geometric():
    one_minus_q = Series([1, -1] + [0] * 9)
    geometric = Series([1] * 11)
    assert mul(one_minus_q, geometric) == Series.one(10)


def test_add_negate_cancels():
    s = pochhammer(1, 1, 12)
    assert add(s, scale(s, -1)) == Series([0] * 13)


def test_product_with_inverse_is_one():
    s = pochhammer(1, 1, 30)
    assert mul(s, inverse(s)) == Series.one(30)


def test_inverse_of_geometric_factor():
    assert inverse(Series([1, -1, 0, 0])) == Series([1, 1, 1, 1])


def test_inverse_gives_partition_numbers():
    # Frozen against the exhaustive enumeration oracle.
    assert inverse(pochhammer(1, 1, 8)).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22)


def test_inverse_of_one():
    assert inverse(Series.one(5)) == Series.one(5)


def test_inverse_requires_unit_constant():
    with pytest.raises(DomainError):
        inverse(Series([2, 1]))
    with pytest.raises(DomainError):
        inverse(Series([0, 1]))
    with pytest.raises(DomainError):
        quotient(Series.one(1), Series([2, 1]))


def test_order_mismatch_rejected():
    with pytest.raises(OrderMismatchError):
        add(Series.one(3), Series.one(4))
    with pytest.raises(OrderMismatchError):
        mul(Series.one(3), Series.one(4))
    with pytest.raises(OrderMismatchError):
        quotient(Series.one(3), Series.one(4))


def test_pochhammer_pentagonal_prefix():
    assert pochhammer(1, 1, 7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_pochhammer_two_surviving_factors():
    assert pochhammer(4, 4, 8).coeffs == (1, 0, 0, 0, -1, 0, 0, 0, -1)


def test_pochhammer_residue_interleaving():
    assert mul(pochhammer(2, 2, 6), pochhammer(1, 2, 6)) == pochhammer(1, 1, 6)


def test_pochhammer_validation():
    with pytest.raises(DomainError):
        pochhammer(0, 1, 5)
    with pytest.raises(DomainError):
        pochhammer_plus(1, 0, 5)
    with pytest.raises(DomainError):
        pentagonal_series(5, 0)


def test_lambert_divisor_counts():
    series = lambert(1, 1, 1, 30)
    assert series.coeffs[1:7] == (1, 2, 2, 3, 2, 4)
    for n in range(1, 31):
        assert series.coeffs[n] == sigma0(n)


def test_lambert_strided_divisor_counts():
    series = lambert(4, 4, 1, 40)
    assert series.coeffs[8] == 2
    for m in range(1, 11):
        assert series.coeffs[4 * m] == sigma0(m)
    assert all(series.coeffs[n] == 0 for n in range(41) if n % 4)


def test_lambert_signed_cancellation():
    assert lambert(2, 2, -1, 4).coeffs == (0, 0, 1, 0, 0)


def test_lambert_validation():
    with pytest.raises(DomainError):
        lambert(1, 1, 2, 5)
    with pytest.raises(DomainError):
        lambert(0, 1, 1, 5)


@settings(max_examples=200)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([1, -1]), st.integers(0, 50),
       st.integers(1, 6), st.integers(1, 6), st.integers(-9, 9))
def test_lambert_matches_schoolbook(offset, step, sign, order, num, den, coef):
    # coef * q^(num*e) / (1 - sign*q^(den*e)) is the sum over j >= 0 of
    # coef * sign^j * q^(e*(num + den*j)).
    want = [0] * (order + 1)
    for e in range(offset, order + 1, step):
        for j in range(order + 1):
            if e * (num + den * j) <= order:
                want[e * (num + den * j)] += coef * sign ** j
    assert lambert(offset, step, sign, order, num, den, coef).coeffs == tuple(want)


def test_lambert_validation_of_num_and_den():
    with pytest.raises(DomainError):
        lambert(1, 1, 1, 5, num=0)
    with pytest.raises(DomainError):
        lambert(1, 1, 1, 5, den=0)


@pytest.mark.parametrize("order", [7, 50, 200])
def test_pentagonal_series_matches_product(order):
    assert pentagonal_series(order) == pochhammer(1, 1, order)
    for k in range(1, 7):
        assert pentagonal_series(order, k) == pochhammer(k, k, order), k


def test_cube_series_prefix():
    assert cube_series(6).coeffs == (1, -3, 0, 5, 0, 0, -7)


@pytest.mark.parametrize("order", [30, 200])
def test_cube_series_matches_product_cube(order):
    product = pochhammer(1, 1, order)
    assert mul(mul(product, product), product) == cube_series(order)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_weighted_geometric_sum_closed_form(p, n):
    # Finite sum of k*x^k for k = 1..p-1 with x = q^(p*n), against
    # (x(1 - x^p) - p(1 - x)x^p) / (1 - x)^2 expanded as a series.
    order = 100
    step = p * n
    finite = [0] * (order + 1)
    for k in range(1, p):
        if k * step <= order:
            finite[k * step] = k
    finite_series = Series(finite)

    def power(exponent):
        c = [0] * (order + 1)
        if exponent <= order:
            c[exponent] = 1
        return Series(c)

    x = power(step)
    x_p = power(step * p)
    numerator = add(mul(x, add(Series.one(order), scale(x_p, -1))),
                    scale(mul(add(Series.one(order), scale(x, -1)), x_p), -p))
    denominator = mul(add(Series.one(order), scale(x, -1)), add(Series.one(order), scale(x, -1)))
    assert mul(numerator, inverse(denominator)) == finite_series


def test_gf_family_values():
    assert gf_family("d_e", {}, 8).coeffs[8] == 6
    assert gf_family("o_p", {"p": 2}, 4).coeffs[4] == 3
    assert gf_family("a_r", {"p": 2, "r": 0}, 3).coeffs[3] == 1


def test_gf_family_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        gf_family("b_prime", {}, 10)
    with pytest.raises(UnsupportedFamilyError):
        gf_family("d_k", {"k": 3}, 10)


def test_gf_family_bad_params():
    # The cell is checked once, where it enters: partlab.gf_family
    # (families.series_for), not qseries.gf_family.
    for family, params in (("a_r", {"p": 2}), ("h", {"p": 3, "i": 1}), ("s", {"k": 2}),
                           ("a", {"p": 3}), ("d_e", {"r": 1}), ("o_p_odd", {"p": 3, "i": 0})):
        with pytest.raises(DomainError):
            partlab.gf_family(family, params, 10)


@given(coeff_lists, coeff_lists)
def test_mul_commutative(xs, ys):
    order = max(len(xs), len(ys)) - 1
    a = Series(xs + [0] * (order + 1 - len(xs)))
    b = Series(ys + [0] * (order + 1 - len(ys)))
    assert mul(a, b) == mul(b, a)


@given(coeff_lists)
def test_inverse_round_trip(xs):
    coeffs = [1] + xs
    s = Series(coeffs)
    assert mul(s, inverse(s)) == Series.one(s.order)


def test_coefficient_indexing():
    s = Series([5, 6, 7])
    assert s[0] == 5 and s[2] == 7
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(DomainError):
        Series([])


def _schoolbook_mul(a, b):
    out = [0] * len(a)
    for i in range(len(a)):
        for j in range(len(a) - i):
            out[i + j] += a[i] * b[j]
    return out


def _schoolbook_inverse(a):
    # a[0] is +-1, so it is its own inverse.
    out = [a[0]] + [0] * (len(a) - 1)
    for n in range(1, len(a)):
        for k in range(1, n + 1):
            out[n] -= a[0] * a[k] * out[n - k]
    return out


def _schoolbook_quotient(x, a):
    # Long division: peel off the leading term of the remainder, one
    # coefficient at a time; a[0] is +-1, so it divides every term.
    rest, out = list(x), []
    for n in range(len(x)):
        y = rest[n] * a[0]
        out.append(y)
        for k in range(len(a) - n):
            rest[n + k] -= y * a[k]
    return out


def _signed_series(order):
    """Signed coefficient lists of length order + 1 with runs of zeros, so that
    the sparse loops meet empty, sparse and dense operands."""
    runs = st.one_of(st.lists(st.just(0), min_size=1, max_size=20),
                     st.lists(st.integers(-99, 99), min_size=1, max_size=6))
    return st.lists(runs, max_size=12).map(
        lambda rs: ([c for run in rs for c in run] + [0] * (order + 1))[:order + 1])


@given(st.integers(0, 60).flatmap(lambda order: st.tuples(_signed_series(order), _signed_series(order))))
def test_mul_matches_schoolbook(pair):
    xs, ys = pair
    want = tuple(_schoolbook_mul(xs, ys))
    assert mul(Series(xs), Series(ys)).coeffs == want
    assert mul(Series(ys), Series(xs)).coeffs == want


@given(st.integers(0, 60).flatmap(_signed_series), st.sampled_from([1, -1]))
def test_inverse_matches_schoolbook(xs, a0):
    coeffs = [a0] + xs[1:]
    assert inverse(Series(coeffs)).coeffs == tuple(_schoolbook_inverse(coeffs))


@given(st.integers(0, 60).flatmap(lambda order: st.tuples(_signed_series(order), _signed_series(order))),
       st.sampled_from([1, -1]))
def test_quotient_matches_schoolbook(pair, a0):
    xs, ys = pair
    coeffs = [a0] + ys[1:]
    want = tuple(_schoolbook_quotient(xs, coeffs))
    assert quotient(Series(xs), Series(coeffs)).coeffs == want
    assert inverse(Series(coeffs)) == quotient(Series.one(len(coeffs) - 1), Series(coeffs))


def _schoolbook_pochhammer(xs, offset, step, sign):
    # One schoolbook product per factor (1 + sign*q^e), e = offset + i*step.
    out = list(xs)
    for e in range(offset, len(xs), step):
        factor = [0] * len(xs)
        factor[0] = 1
        factor[e] += sign
        out = _schoolbook_mul(out, factor)
    return out


@given(st.integers(0, 80).flatmap(_signed_series), st.integers(1, 8), st.integers(1, 8),
       st.booleans())
def test_times_pochhammer_matches_schoolbook(xs, offset, step, plus):
    sign = 1 if plus else -1
    want = tuple(_schoolbook_pochhammer(xs, offset, step, sign))
    assert times_pochhammer(Series(xs), offset, step, plus).coeffs == want
    order = len(xs) - 1
    build = pochhammer_plus if plus else pochhammer
    assert build(offset, step, order).coeffs == tuple(
        _schoolbook_pochhammer([1] + [0] * order, offset, step, sign))


# Divisors whose nonzero coefficients k >= 1 take few values: the theta
# products (q^k;q^k)_inf are +-1 throughout, the dense pochhammers small.
_product_divisors = st.one_of(
    st.builds(lambda k: lambda order: pentagonal_series(order, k), st.integers(1, 8)),
    st.builds(lambda c, step: lambda order: pochhammer(c, step, order),
              st.integers(1, 8), st.integers(1, 8)),
)


@given(st.integers(0, 80).flatmap(_signed_series), _product_divisors)
def test_quotient_by_product_matches_schoolbook(xs, divisor):
    a = divisor(len(xs) - 1)
    assert quotient(Series(xs), a).coeffs == tuple(_schoolbook_quotient(xs, list(a.coeffs)))


def test_order_bound(monkeypatch):
    monkeypatch.setenv(qseries.MAX_ORDER_ENV_VAR, "50")
    assert gf_family("s", {}, 50).order == 50
    with pytest.raises(ResourceLimitError, match="order 51 exceeds the bound 50"):
        gf_family("s", {}, 51)
    monkeypatch.setenv(qseries.MAX_ORDER_ENV_VAR, "many")
    with pytest.raises(DomainError):
        gf_family("s", {}, 5)
    monkeypatch.setenv(qseries.MAX_ORDER_ENV_VAR, "-1")
    with pytest.raises(DomainError, match="must be nonnegative"):
        gf_family("s", {}, 5)
    monkeypatch.delenv(qseries.MAX_ORDER_ENV_VAR)
    with pytest.raises(ResourceLimitError):
        gf_family("s", {}, qseries.DEFAULT_MAX_ORDER + 1)
