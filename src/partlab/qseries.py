"""Truncated formal power series in q with exact integer coefficients.

All infinite products and sums are kept as truncations at a fixed order N;
arithmetic never silently drops below the operands' common order.  The module
also builds the closed-form generating functions of the counting families
(``gf_family``).  Each is 1/(q;q)_inf or has one shape, a numerator
(q^c; q^step)_inf times a Lambert-type sum, divided by (q;q)_inf, and is
held as data in ``CLOSED_FORMS``: the sum's terms are ``lambert``'s
arguments.  A product of two series is one int product (``mul``), and a
dense numerator goes onto the sum one factor at a time.  The division
(``quotient``) sums the earlier quotient coefficients over the divisor's -1
terms and over its +1 terms apart, so dividing by (q;q)_inf multiplies
nothing.
"""

from __future__ import annotations

import operator
import struct
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


def _terms(a: Series) -> list[tuple[int, int]]:
    """The (exponent, coefficient) pairs of a's nonzero coefficients."""
    return [(i, c) for i, c in enumerate(a.coeffs) if c]


# struct codes of the slot widths, in bytes, that mul packs with one Struct.
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_bytes(bound: int) -> int:
    """Bytes per slot of mul's packed ints when no coefficient exceeds bound
    in absolute value: the smallest of 1, 2, 4 and 8 bytes whose signed
    range holds bound, else the fewest bytes that do."""
    need = bound.bit_length() // 8 + 1
    return next((w for w in _SLOT_CODES if w >= need), need)


def mul(a: Series, b: Series) -> Series:
    """Product by Kronecker substitution: each operand is packed into one
    int, coefficient n in slot n, and one int product holds the result's
    coefficients in the same slots; the low order + 1 are kept.

    |c_n| <= min(sum|a| * max|b|, sum|b| * max|a|), and the bound is the
    larger of that, max|a| and max|b|: ``_slot_bytes(bound)`` bytes hold
    every coefficient with its sign, so no slot carries into the next.
    Slots hold two's complement; the packed int is the bytes read unsigned,
    XOR ``flip`` (each slot's sign bit), less flip, and ((product + flip) &
    mask) ^ flip gives the low slots' bytes back.  Slots of 1, 2, 4 and 8
    bytes go through one struct.Struct; wider ones, for bounds of 2^63 or
    more, through int.to_bytes and int.from_bytes one slot at a time.
    """
    order = _same_order(a, b)
    xs, ys = a.coeffs, b.coeffs
    mx, my = max(map(abs, xs)), max(map(abs, ys))
    w = _slot_bytes(max(min(sum(map(abs, xs)) * my, sum(map(abs, ys)) * mx), mx, my))
    size = w * (order + 1)
    flip = int.from_bytes((b"\0" * (w - 1) + b"\x80") * (order + 1), "little")
    code = _SLOT_CODES.get(w)
    if code:
        layout = struct.Struct(f"<{order + 1}{code}")
        packed = [layout.pack(*cs) for cs in (xs, ys)]
    else:
        packed = [b"".join([c.to_bytes(w, "little", signed=True) for c in cs]) for cs in (xs, ys)]
    pa, pb = [(int.from_bytes(data, "little") ^ flip) - flip for data in packed]
    data = (((pa * pb + flip) & ((1 << 8 * size) - 1)) ^ flip).to_bytes(size, "little")
    if code:
        return Series(layout.unpack(data))
    view = memoryview(data)
    return Series(int.from_bytes(view[i:i + w], "little", signed=True) for i in range(0, size, w))


def quotient(x: Series, a: Series) -> Series:
    """x / a, by y_n = a0 (x_n - sum of a_k y_(n-k)) over a's nonzero terms
    with k >= 1.  The y_(n-k) with a_k = -1 are summed and added, those with
    a_k = +1 summed and subtracted, and those of each other a_k summed and
    multiplied once: no multiplication per y_n for (q;q)_inf.  The constant
    coefficient a0 must be +1 or -1."""
    order = _same_order(x, a)
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise DomainError(f"division needs constant coefficient +-1, got {a0}")
    pending = _terms(a)[:0:-1]  # terms with k >= 1, largest k first
    # -k for the k <= n: plus where a_k = -1, minus where a_k = +1, and
    # a_k -> [-k, ...] in other for the rest.
    plus: list[int] = []
    minus: list[int] = []
    other: dict[int, list[int]] = {}
    xs, out = x.coeffs, []  # out holds y_0 .. y_(n-1), so out[-k] is y_(n-k)
    get = out.__getitem__
    for n in range(order + 1):
        while pending and pending[-1][0] <= n:
            k, ak = pending.pop()
            (plus if ak == -1 else minus if ak == 1 else other.setdefault(ak, [])).append(-k)
        s = xs[n] + sum(map(get, plus)) - sum(map(get, minus))
        for ak, ks in other.items():
            s -= ak * sum(map(get, ks))
        out.append(a0 * s)
    return Series(out)


def inverse(a: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be +1 or -1."""
    return quotient(Series.one(a.order), a)


def times_pochhammer(x: Series, offset: int, step: int) -> Series:
    """x times the product of (1 - q^e) over e = offset + i*step, i >= 0:
    one slice pass y_n -= y_(n-e) per factor e <= order."""
    if offset < 1 or step < 1:
        raise DomainError("pochhammer needs offset >= 1 and step >= 1")
    y = list(x.coeffs)
    for e in range(offset, len(y), step):
        y[e:] = list(map(operator.sub, y[e:], y))
    return Series(y)


def pochhammer(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 - q^(offset + i*step)) over i >= 0."""
    return times_pochhammer(Series.one(order), offset, step)


def pochhammer_plus(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 + q^(offset + i*step)) over i >= 0,
    as the product of (1 - q^(2e)) over that of (1 - q^e)."""
    return quotient(pochhammer(2 * offset, 2 * step, order), pochhammer(offset, step, order))


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


# ---------------------------------------------------------------------------
# Closed-form generating functions, as data.  Every family except
# s = 1/(q;q)_inf is (q^c; q^step)_inf * S / (q;q)_inf for a Lambert-type
# sum S, and its entry in CLOSED_FORMS maps the cell's parameters to
# ((c, step), terms): S is the sum of lambert(*term) over the terms, each
# term being lambert's arguments less the order, (offset, step, sign[, num,
# den[, coef]]).  With c = step the numerator is the sparse pentagonal
# series in q^step, and mul multiplies it onto S as one packed-int product;
# else (d_o, f2, f_pkr/d_pkr with r != 0) times_pochhammer applies its
# factors to S one by one.  (-q;q)_inf, for a, c, a_r and g_r, is
# (q^2;q^2)_inf/(q;q)_inf.
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
    if not isinstance(order, int) or isinstance(order, bool):
        raise DomainError(f"order {order!r} must be an integer")
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
