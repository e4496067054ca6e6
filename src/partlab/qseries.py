"""Truncated formal power series in q with exact integer coefficients.

All infinite products and sums are kept as truncations at a fixed order N;
arithmetic never silently drops below the operands' common order.  The module
also builds the closed-form generating functions of the counting families
(``gf_family``).  Each is 1/(q;q)_inf or has one shape, a numerator
(q^c; q^step)_inf times a Lambert-type sum, divided by (q;q)_inf: a dense
numerator goes onto the sum one factor at a time, and the division groups
(q;q)_inf's +-1 terms.
"""

from __future__ import annotations

import operator
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


def lambert(offset: int, step: int, sign: int, order: int) -> Series:
    """Sum over m >= 0 of q^e / (1 - sign*q^e) with e = offset + m*step.

    Each term expands as a geometric series; terms whose leading exponent
    exceeds the order are skipped.
    """
    if offset < 1 or step < 1:
        raise DomainError("lambert needs offset >= 1 and step >= 1")
    if sign not in (1, -1):
        raise DomainError(f"lambert sign must be +1 or -1, got {sign}")
    c = [0] * (order + 1)
    for e in range(offset, order + 1, step):
        s = 1
        for m in range(e, order + 1, e):
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
# Closed-form generating functions.  Every family except s = 1/(q;q)_inf is
# (q^c; q^step)_inf * S / (q;q)_inf for a Lambert-type sum S, and its entry
# in CLOSED_FORMS gives ((c, step), S) at an order.  With c = step the
# numerator is the sparse pentagonal series in q^step, which mul takes; else
# (d_o, f2, f_pkr/d_pkr with r != 0) times_pochhammer applies its factors to
# S one by one.  (-q;q)_inf, for a, c, a_r and g_r, is (q^2;q^2)_inf/(q;q)_inf.
# ---------------------------------------------------------------------------

Form = tuple[tuple[int, int], Series]


def _a_r(order: int, p: int, r: int) -> Form:
    """Total count of parts in residue class -r mod p over distinct
    partitions: (-q;q)_inf times a signed Lambert-type sum."""
    return (2, 2), lambert(p - r, p, -1, order)


def _h(order: int, p: int, i: int) -> Form:
    """o_p_odd for i = p, o_p_even for i = 0."""
    return (p, p), lambert(p if i == p else 2 * p, 2 * p, 1, order)


def _f_pkr(order: int, p: int, k: int, r: int) -> Form:
    # Singleton residue class k*r mod p*k; for r=0 the class starts at p*k.
    c = k * r if r else p * k
    return (c, p * k), lambert(c, p * k, 1, order)


def _heavy_parity(order: int, alpha: int, p: int, parity: int) -> Series:
    """Sum over n >= 1 of parity n mod 2 of q^(alpha*n) / (1 - q^(p*n))."""
    c = [0] * (order + 1)
    for n in range(2 - parity, order // alpha + 1, 2):
        for e in range(alpha * n, order + 1, p * n):
            c[e] += 1
    return Series(c)


# s maps to None: it is 1/(q;q)_inf, the inverse of the divisor.
CLOSED_FORMS: dict[str, Callable[..., Form | None]] = {
    "s": lambda order: None,
    **dict.fromkeys(("a", "c"), lambda order: _a_r(order, 2, 0)),
    **dict.fromkeys(("a_r", "g_r"), _a_r),
    "a_np": lambda order, p: ((p, p), add(lambert(p, p, 1, order),
                                          scale(lambert(p * p, p * p, 1, order), -p))),
    "o_p": lambda order, p: _f_pkr(order, p, 1, 0),
    "o_p_odd": lambda order, p: _h(order, p, p),
    "o_p_even": lambda order, p: _h(order, p, 0),
    "h": _h,
    **dict.fromkeys(("d_e", "f0"), lambda order: _f_pkr(order, 2, 2, 0)),
    **dict.fromkeys(("d_o", "f2"), lambda order: _f_pkr(order, 2, 2, 1)),
    **dict.fromkeys(("f_pkr", "d_pkr"), _f_pkr),
    # A heavy value j leaves q^(alpha j)/(1 - q^(pj)) past its bounded factor
    # (1 - q^(kj))/(1 - q^j); for k > p every m >= alpha counts, so p becomes k.
    "g_alpha": lambda order, alpha, k, p: ((k, k), lambert(alpha, max(p, k), -1, order)),
    "g_alpha_odd": lambda order, alpha, k, p: ((k, k), _heavy_parity(order, alpha, max(p, k), 1)),
    "g_alpha_even": lambda order, alpha, k, p: ((k, k), _heavy_parity(order, alpha, max(p, k), 0)),
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
    shape = form(order, **(params or {}))
    if shape is None:
        return inverse(pentagonal_series(order))
    (c, step), total = shape
    total = mul(pentagonal_series(order, step), total) if c == step else times_pochhammer(total, c, step)
    return quotient(total, pentagonal_series(order))
