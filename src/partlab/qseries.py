"""Truncated formal power series in q with exact integer coefficients.

All infinite products and sums are kept as truncations at a fixed order N;
arithmetic never silently drops below the operands' common order.  The module
also houses the closed-form generating function builders for the counting
families (``gf_family``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from . import numtheory
from .errors import DomainError, OrderMismatchError, UnsupportedFamilyError

DEFAULT_ORDER = 200


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
    def zero(cls, order: int) -> "Series":
        return cls([0] * (order + 1))

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


def negate(a: Series) -> Series:
    return Series(-x for x in a.coeffs)


def scale(a: Series, c: int) -> Series:
    return Series(c * x for x in a.coeffs)


def mul(a: Series, b: Series) -> Series:
    order = _same_order(a, b)
    ac, bc = a.coeffs, b.coeffs
    out = [0] * (order + 1)
    for i, ai in enumerate(ac):
        if not ai:
            continue
        for j in range(order + 1 - i):
            bj = bc[j]
            if bj:
                out[i + j] += ai * bj
    return Series(out)


def inverse(a: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be +1 or -1."""
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise DomainError(f"inverse needs constant coefficient +-1, got {a0}")
    order = a.order
    ac = a.coeffs
    out = [0] * (order + 1)
    out[0] = a0
    for n in range(1, order + 1):
        s = 0
        for k in range(1, n + 1):
            ak = ac[k]
            if ak:
                s += ak * out[n - k]
        out[n] = -a0 * s
    return Series(out)


def pochhammer(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 - q^(offset + i*step)) over i >= 0."""
    if offset < 1 or step < 1:
        raise DomainError("pochhammer needs offset >= 1 and step >= 1")
    c = [0] * (order + 1)
    c[0] = 1
    e = offset
    while e <= order:
        for i in range(order, e - 1, -1):
            c[i] -= c[i - e]
        e += step
    return Series(c)


def pochhammer_plus(offset: int, step: int, order: int) -> Series:
    """Truncation of the product of (1 + q^(offset + i*step)) over i >= 0."""
    if offset < 1 or step < 1:
        raise DomainError("pochhammer_plus needs offset >= 1 and step >= 1")
    c = [0] * (order + 1)
    c[0] = 1
    e = offset
    while e <= order:
        for i in range(order, e - 1, -1):
            c[i] += c[i - e]
        e += step
    return Series(c)


def _accumulate_geometric(c: list[int], numer_exp: int, denom_exp: int, sign: int = 1) -> None:
    """Add q^numer_exp / (1 - sign*q^denom_exp) into a coefficient list."""
    order = len(c) - 1
    s = 1
    for e in range(numer_exp, order + 1, denom_exp):
        c[e] += s
        s *= sign


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
        _accumulate_geometric(c, e, e, sign)
    return Series(c)


def pentagonal_series(order: int) -> Series:
    """Theta-style expansion of the product of (1 - q^i): exponents are the
    generalized pentagonal numbers j(3j +- 1)/2 with sign (-1)^j."""
    c = [0] * (order + 1)
    c[0] = 1
    for term in numtheory.pentagonal_terms(order):
        for e in (term.exponent_minus, term.exponent_plus):
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
# Closed-form generating functions, one builder per family that has one.
# ---------------------------------------------------------------------------


def _poch_ratio(offset: int, step: int, order: int) -> Series:
    """(product of 1 - q^(offset + step*i)) / (product of 1 - q^j): partitions
    avoiding the residue class offset mod step (with offset = step: no part
    divisible by step)."""
    return mul(pochhammer(offset, step, order), inverse(pochhammer(1, 1, order)))


def _gf_unrestricted(order: int) -> Series:
    return inverse(pochhammer(1, 1, order))


def _gf_a_r(order: int, p: int, r: int) -> Series:
    """Total count of parts in residue class -r mod p over distinct
    partitions: (product of 1 + q^j) times a signed Lambert-type sum."""
    return mul(pochhammer_plus(1, 1, order), lambert(p - r, p, -1, order))


def _gf_a_np(order: int, p: int) -> Series:
    halo = add(lambert(p, p, 1, order), scale(lambert(p * p, p * p, 1, order), -p))
    return mul(_poch_ratio(p, p, order), halo)


def _gf_o_p(order: int, p: int) -> Series:
    return mul(_poch_ratio(p, p, order), lambert(p, p, 1, order))


def _gf_o_p_odd(order: int, p: int) -> Series:
    return mul(_poch_ratio(p, p, order), lambert(p, 2 * p, 1, order))


def _gf_o_p_even(order: int, p: int) -> Series:
    return mul(_poch_ratio(p, p, order), lambert(2 * p, 2 * p, 1, order))


def _gf_h(order: int, p: int, i: int) -> Series:
    if i == p:
        return _gf_o_p_odd(order, p)
    if i == 0:
        return _gf_o_p_even(order, p)
    raise DomainError(f"h requires i in {{0, p}}, got i={i} with p={p}")


def _gf_f_pkr(order: int, p: int, k: int, r: int) -> Series:
    # Singleton residue class k*r mod p*k; for r=0 the class starts at p*k.
    c = k * r if r else p * k
    return mul(_poch_ratio(c, p * k, order), lambert(c, p * k, 1, order))


def _gf_d_e(order: int) -> Series:
    return _gf_f_pkr(order, 2, 2, 0)


def _gf_d_o(order: int) -> Series:
    return _gf_f_pkr(order, 2, 2, 1)


def _gf_g_alpha_signed(order: int, alpha: int, k: int, p: int) -> Series:
    return mul(_poch_ratio(k, k, order), lambert(alpha, p, -1, order))


def _gf_g_alpha_parity(order: int, alpha: int, k: int, p: int, parity: int) -> Series:
    """Parity split of the repeated-part tracker: sum over n of fixed parity
    of q^(alpha*n) / (1 - q^(p*n)), times the multiplicity-bounded product."""
    c = [0] * (order + 1)
    n = 1 if parity else 2
    while alpha * n <= order:
        _accumulate_geometric(c, alpha * n, p * n)
        n += 2
    return mul(_poch_ratio(k, k, order), Series(c))


def _gf_g_alpha_odd(order: int, alpha: int, k: int, p: int) -> Series:
    return _gf_g_alpha_parity(order, alpha, k, p, 1)


def _gf_g_alpha_even(order: int, alpha: int, k: int, p: int) -> Series:
    return _gf_g_alpha_parity(order, alpha, k, p, 0)


GF_BUILDERS: dict[str, Callable[..., Series]] = {
    "s": _gf_unrestricted,
    "a": lambda order: _gf_a_r(order, 2, 0),
    "c": lambda order: _gf_a_r(order, 2, 0),
    "a_r": _gf_a_r,
    "g_r": _gf_a_r,
    "a_np": _gf_a_np,
    "o_p": _gf_o_p,
    "o_p_odd": _gf_o_p_odd,
    "o_p_even": _gf_o_p_even,
    "h": _gf_h,
    "d_e": _gf_d_e,
    "d_o": _gf_d_o,
    "f0": _gf_d_e,
    "f2": _gf_d_o,
    "f_pkr": _gf_f_pkr,
    "d_pkr": _gf_f_pkr,
    "g_alpha": _gf_g_alpha_signed,
    "g_alpha_odd": _gf_g_alpha_odd,
    "g_alpha_even": _gf_g_alpha_even,
}


def has_closed_form(family: str) -> bool:
    return family in GF_BUILDERS


def gf_family(family: str, params: Mapping[str, int] | None = None, order: int = DEFAULT_ORDER) -> Series:
    """Build the closed-form generating function of a family, truncated.

    Raises UnsupportedFamilyError for families whose counting definition has
    no closed form here.
    """
    builder = GF_BUILDERS.get(family)
    if builder is None:
        raise UnsupportedFamilyError(f"family {family!r} has no closed-form generating function")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    kwargs = dict(params or {})
    try:
        return builder(order, **kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters {kwargs!r} for family {family!r}: {exc}") from None
