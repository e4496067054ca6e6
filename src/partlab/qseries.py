"""Truncated formal power series in q with exact integer coefficients.

All infinite products and sums are kept as truncations at a fixed order N;
arithmetic never silently drops below the operands' common order.  The module
also houses the closed-form generating function builders for the counting
families (``gf_family``).
"""

from __future__ import annotations

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


def _terms(a: Series) -> list[tuple[int, int]]:
    """The (exponent, coefficient) pairs of a's nonzero coefficients."""
    return [(i, c) for i, c in enumerate(a.coeffs) if c]


def mul(a: Series, b: Series) -> Series:
    """Product, one shifted row of the denser operand per nonzero term of the
    sparser one."""
    order = _same_order(a, b)
    terms, dense = _terms(a), b.coeffs
    other = _terms(b)
    if len(other) < len(terms):
        terms, dense = other, a.coeffs
    out = [0] * (order + 1)
    for i, ai in terms:
        out[i:] = [x + ai * y for x, y in zip(out[i:], dense)]
    return Series(out)


def inverse(a: Series) -> Series:
    """Multiplicative inverse; the constant coefficient must be +1 or -1."""
    a0 = a.coeffs[0]
    if a0 not in (1, -1):
        raise DomainError(f"inverse needs constant coefficient +-1, got {a0}")
    terms = _terms(a)[1:]
    out = [0] * (a.order + 1)
    out[0] = a0
    for n in range(1, a.order + 1):
        s = 0
        for k, ak in terms:
            if k > n:
                break
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


# The partition series 1/(q;q)_inf at the largest order built so far, as a
# one-element list (empty until the first build).
_partition_series: list[Series] = []


def _gf_unrestricted(order: int) -> Series:
    """1/(q;q)_inf, inverted once per larger order: every smaller request is
    a prefix of the held series, since a truncation of an exact series is.
    (q;q)_inf is read off the pentagonal theorem, which costs O(sqrt N)
    where the factor-by-factor product costs O(N^2)."""
    if not _partition_series or _partition_series[0].order < order:
        _partition_series[:] = [inverse(pentagonal_series(order))]
    held = _partition_series[0]
    return held if held.order == order else Series(held.coeffs[:order + 1])


def _poch_ratio(offset: int, step: int, order: int) -> Series:
    """(product of 1 - q^(offset + step*i)) / (product of 1 - q^j): partitions
    avoiding the residue class offset mod step (with offset = step: no part
    divisible by step)."""
    return mul(pochhammer(offset, step, order), _gf_unrestricted(order))


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
    no closed form here, and ResourceLimitError past the order bound
    (PARTLAB_MAX_ORDER, else DEFAULT_MAX_ORDER).
    """
    builder = GF_BUILDERS.get(family)
    if builder is None:
        raise UnsupportedFamilyError(f"family {family!r} has no closed-form generating function")
    if order < 0:
        raise DomainError(f"order must be nonnegative, got {order}")
    limit = resolve_limit(None, MAX_ORDER_ENV_VAR, DEFAULT_MAX_ORDER, "order bound")
    if order > limit:
        raise ResourceLimitError(
            f"series order {order} exceeds the bound {limit} (raise it via {MAX_ORDER_ENV_VAR})"
        )
    kwargs = dict(params or {})
    try:
        return builder(order, **kwargs)
    except TypeError as exc:
        raise DomainError(f"bad parameters {kwargs!r} for family {family!r}: {exc}") from None
