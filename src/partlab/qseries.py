"""Truncated formal power series in q with exact integer coefficients.

All infinite products and sums are kept as truncations at a fixed order N;
arithmetic never silently drops below the operands' common order.  The module
also builds the closed-form generating functions of the counting families
(``gf_family``).  Each is 1/(q;q)_inf or has one shape, a numerator
(q^c; q^step)_inf times a Lambert-type sum, divided by (q;q)_inf, and is
held as data in ``CLOSED_FORMS``: the sum's terms are ``lambert``'s
arguments.  A dense numerator goes onto the sum one factor at a time, and
the division groups (q;q)_inf's +-1 terms.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, Iterable, Mapping

from . import numtheory
from .errors import DomainError, OrderMismatchError, ResourceLimitError, UnsupportedFamilyError
from .limits import resolve_limit

DEFAULT_ORDER = 200
DEFAULT_MAX_ORDER = 10_000
MAX_ORDER_ENV_VAR = "PARTLAB_MAX_ORDER"


class Series:
    """Coefficients of q^0 .. q^N as an immutable tuple of ints."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        data = tuple(coeffs)
        if not data:
            raise DomainError("a series needs at least the q^0 coefficient")
        self.coeffs = data

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1] + [0] * order)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:10])
        tail = ", ..." if self.order >= 10 else ""
        return f"Series(order={self.order}, [{head}{tail}])"


def _same_order(a: Series, b: Series) -> int:
    if a.order != b.order:
        raise OrderMismatchError(f"series orders differ: {a.order} vs {b.order}")
    return a.order


def add(a: Series, b: Series) -> Series:
    _same_order(a, b)
    return Series(x + y for x, y in zip(a.coeffs, b.coeffs))


def scale(a: Series, c: int) -> Series:
    return Series(c * x for x in a.coeffs)


def _terms(a: Series) -> list[tuple[int, int]]:
    """The (exponent, coefficient) pairs of a's nonzero coefficients."""
    return [(i, c) for i, c in enumerate(a.coeffs) if c]


def mul(a: Series, b: Series) -> Series:
    """Product, one shifted row of b per nonzero term of a: pass the sparser
    series first."""
    order = _same_order(a, b)
    out = [0] * (order + 1)
    for i, ai in _terms(a):
        out[i:] = [x + ai * y for x, y in zip(out[i:], b.coeffs)]
    return Series(out)


def quotient(x: Series, a: Series) -> Series:
    """x / a, by y_n = a0 (x_n - sum of a_k y_(n-k)) over a's nonzero terms
    with k >= 1, summing the y_(n-k) of equal a_k first: two multiplications
    per y_n for (q;q)_inf.  The constant coefficient a0 must be +1 or -1."""
    order = _same_order(x, a)
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise DomainError(f"division needs constant coefficient +-1, got {a0}")
    pending = _terms(a)[:0:-1]  # terms with k >= 1, largest k first
    groups: dict[int, list[int]] = {}  # a_k -> [-k, ...] for the k <= n
    xs, out = x.coeffs, []  # out holds y_0 .. y_(n-1), so out[-k] is y_(n-k)
    get = out.__getitem__
    for n in range(order + 1):
        while pending and pending[-1][0] <= n:
            k, ak = pending.pop()
            groups.setdefault(ak, []).append(-k)
        s = xs[n]
        for ak, ks in groups.items():
            s -= ak * sum(map(get, ks))
        out.append(a0 * s)
    return Series(out)


def inverse(a: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be +1 or -1."""
    return quotient(Series.one(a.order), a)


def times_pochhammer(x: Series, offset: int, step: int, plus: bool = False) -> Series:
    """x times the product of (1 -+ q^e) over e = offset + i*step, i >= 0
    (1 + q^e if plus): one slice pass y_n -+= y_(n-e) per factor e <= order."""
    if offset < 1 or step < 1:
        raise DomainError("pochhammer needs offset >= 1 and step >= 1")
    op = operator.add if plus else operator.sub
    y = list(x.coeffs)
    for e in range(offset, len(y), step):
        y[e:] = list(map(op, y[e:], y))
    return Series(y)


def pochhammer(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 - q^(offset + i*step)) over i >= 0."""
    return times_pochhammer(Series.one(order), offset, step)


def pochhammer_plus(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 + q^(offset + i*step)) over i >= 0."""
    return times_pochhammer(Series.one(order), offset, step, plus=True)


def lambert(offset: int, step: int, sign: int, order: int,
            num: int = 1, den: int = 1, coef: int = 1) -> Series:
    """coef times the sum over m >= 0 of q^(num*e) / (1 - sign*q^(den*e))
    with e = offset + m*step.

    Each term expands as a geometric series; terms whose leading exponent
    exceeds the order are skipped.
    """
    if min(offset, step, num, den) < 1:
        raise DomainError("lambert needs offset, step, num and den >= 1")
    if sign not in (1, -1):
        raise DomainError(f"lambert sign must be +1 or -1, got {sign}")
    c = [0] * (order + 1)
    for e in range(offset, order // num + 1, step):
        s = coef
        for m in range(num * e, order + 1, den * e):
            c[m] += s
            s *= sign
    return Series(c)


def pentagonal_series(order: int, step: int = 1) -> Series:
    """(q^step; q^step)_inf read off the pentagonal theorem: exponents step
    times the generalized pentagonal numbers j(3j +- 1)/2, sign (-1)^j."""
    if step < 1:
        raise DomainError("pentagonal_series needs step >= 1")
    c = [0] * (order + 1)
    c[0] = 1
    for term in numtheory.pentagonal_terms(order // step):
        for e in (step * term.exponent_minus, step * term.exponent_plus):
            if e <= order:
                c[e] += term.sign
    return Series(c)


def cube_series(order: int) -> Series:
    """Theta-style expansion of the cube of the product of (1 - q^i):
    coefficient (-1)^j (2j+1) at the triangular exponents j(j+1)/2."""
    c = [0] * (order + 1)
    j = 0
    while j * (j + 1) // 2 <= order:
        c[j * (j + 1) // 2] += (2 * j + 1) * (-1 if j % 2 else 1)
        j += 1
    return Series(c)


# ---------------------------------------------------------------------------
# Closed-form generating functions, as data.  Every family except
# s = 1/(q;q)_inf is (q^c; q^step)_inf * S / (q;q)_inf for a Lambert-type
# sum S, and its entry in CLOSED_FORMS maps the cell's parameters to
# ((c, step), terms): S is the sum of lambert(*term) over the terms, each
# term being lambert's arguments less the order, (offset, step, sign[, num,
# den[, coef]]).  With c = step the numerator is the sparse pentagonal
# series in q^step, which mul takes; else (d_o, f2, f_pkr/d_pkr with r != 0)
# times_pochhammer applies its factors to S one by one.  (-q;q)_inf, for a,
# c, a_r and g_r, is (q^2;q^2)_inf/(q;q)_inf.
# ---------------------------------------------------------------------------

Form = tuple[tuple[int, int], tuple[tuple[int, ...], ...]]


def _f_pkr(p: int, k: int, r: int) -> Form:
    # Singleton residue class k*r mod p*k; for r=0 the class starts at p*k.
    c = k * r if r else p * k
    return (c, p * k), ((c, p * k, 1),)


# s maps to None: it is 1/(q;q)_inf, the inverse of the divisor.
CLOSED_FORMS: dict[str, Callable[..., Form | None]] = {
    "s": lambda: None,
    **dict.fromkeys(("a", "c"), lambda: ((2, 2), ((2, 2, -1),))),
    # a_r: the parts in residue class -r mod p over distinct partitions.
    **dict.fromkeys(("a_r", "g_r"), lambda p, r: ((2, 2), ((p - r, p, -1),))),
    "a_np": lambda p: ((p, p), ((p, p, 1), (p * p, p * p, 1, 1, 1, -p))),
    "o_p": lambda p: _f_pkr(p, 1, 0),
    "o_p_odd": lambda p: ((p, p), ((p, 2 * p, 1),)),
    "o_p_even": lambda p: ((p, p), ((2 * p, 2 * p, 1),)),
    "h": lambda p, i: ((p, p), ((p if i == p else 2 * p, 2 * p, 1),)),
    **dict.fromkeys(("d_e", "f0"), lambda: _f_pkr(2, 2, 0)),
    **dict.fromkeys(("d_o", "f2"), lambda: _f_pkr(2, 2, 1)),
    **dict.fromkeys(("f_pkr", "d_pkr"), _f_pkr),
    # A heavy value j leaves q^(alpha j)/(1 - q^(pj)) past its bounded factor
    # (1 - q^(kj))/(1 - q^j); for k > p every m >= alpha counts, so p becomes
    # k.  The signed form sums over the multiplicity first, its odd and even
    # pieces over j's parity: I14 checks that the two orders agree.
    "g_alpha": lambda alpha, k, p: ((k, k), ((alpha, max(p, k), -1),)),
    "g_alpha_odd": lambda alpha, k, p: ((k, k), ((1, 2, 1, alpha, max(p, k)),)),
    "g_alpha_even": lambda alpha, k, p: ((k, k), ((2, 2, 1, alpha, max(p, k)),)),
}


def gf_family(family: str, params: Mapping[str, int] | None = None, order: int = DEFAULT_ORDER) -> Series:
    """Build the closed-form generating function of a family, truncated.

    Raises UnsupportedFamilyError for families whose counting definition has
    no closed form here, and ResourceLimitError past the order bound
    (PARTLAB_MAX_ORDER, else DEFAULT_MAX_ORDER).  The params are taken as a
    valid cell; ``families.series_for`` checks them first.
    """
    form = CLOSED_FORMS.get(family)
    if form is None:
        raise UnsupportedFamilyError(f"family {family!r} has no closed-form generating function")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    limit = resolve_limit(MAX_ORDER_ENV_VAR, DEFAULT_MAX_ORDER)
    if order > limit:
        raise ResourceLimitError(
            f"series order {order} exceeds the bound {limit} (raise it via {MAX_ORDER_ENV_VAR})"
        )
    shape = form(**(params or {}))
    if shape is None:
        return inverse(pentagonal_series(order))
    (c, step), terms = shape
    total = reduce(add, (lambert(*term[:3], order, *term[3:]) for term in terms))
    total = mul(pentagonal_series(order, step), total) if c == step else times_pochhammer(total, c, step)
    return quotient(total, pentagonal_series(order))
