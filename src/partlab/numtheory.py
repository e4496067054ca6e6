"""Arithmetic helpers: divisor counts, 2-adic valuation, pentagonal indices,
the A(r)/B(r) index sets and the gamma correction term of the recurrence."""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import DomainError


def sigma0(n: int) -> int:
    """Number of positive divisors of n; sigma0(0) = 0 by convention."""
    if n < 0:
        raise DomainError(f"sigma0 expects a nonnegative integer, got {n}")
    if n == 0:
        return 0
    count = 0
    root = isqrt(n)
    for d in range(1, root + 1):
        if n % d == 0:
            count += 2
    if root * root == n:
        count -= 1
    return count


def v2(n: int) -> int:
    """2-adic valuation: the largest e with 2^e dividing n (n >= 1)."""
    if n < 1:
        raise DomainError(f"v2 expects a positive integer, got {n}")
    return (n & -n).bit_length() - 1


class PentagonalTerm(NamedTuple):
    """One index j of the pentagonal expansion, with its two exponents
    j(3j -+ 1)/2 and the sign (-1)^j."""

    j: int
    exponent_minus: int
    exponent_plus: int
    sign: int


def pentagonal_terms(limit: int) -> tuple[PentagonalTerm, ...]:
    """All terms whose smaller exponent j(3j-1)/2 is <= limit."""
    terms = []
    j = 1
    while j * (3 * j - 1) // 2 <= limit:
        terms.append(
            PentagonalTerm(
                j=j,
                exponent_minus=j * (3 * j - 1) // 2,
                exponent_plus=j * (3 * j + 1) // 2,
                sign=-1 if j % 2 else 1,
            )
        )
        j += 1
    return tuple(terms)


def sets_AB(r: int) -> tuple[frozenset[int], frozenset[int]]:
    """Index sets A(r) = {j >= 1 : 2j(3j+1) = r mod 4 and 2j(3j+1) <= r} and
    B(r) with 2j(3j-1) in place of 2j(3j+1).

    2j(3j +- 1) is 4 times the pentagonal exponent j(3j +- 1)/2, so both sets
    are empty unless 4 divides r, and then hold every j whose exponent is at
    most r/4.  The floor-bound characterization agrees (covered by tests).
    """
    if r < 0:
        raise DomainError(f"sets_AB expects r >= 0, got {r}")
    if r % 4:
        return frozenset(), frozenset()
    m = r // 4
    terms = pentagonal_terms(m)
    return frozenset(t.j for t in terms if t.exponent_plus <= m), frozenset(t.j for t in terms)


def gamma(n: int) -> int:
    """Divisor-sum correction term for weights divisible by 4:

        sigma0(n/4) + sum over A(n) of (-1)^j sigma0((n - 2j(3j+1))/4)
                    + sum over B(n) of (-1)^j sigma0((n - 2j(3j-1))/4)

    with sigma0(0) = 0; each (n - 2j(3j +- 1))/4 is n/4 minus a pentagonal
    exponent.
    """
    if n < 1 or n % 4 != 0:
        raise DomainError(f"gamma is defined for positive multiples of 4, got {n}")
    m = n // 4
    total = sigma0(m)
    for term in pentagonal_terms(m):
        for e in (term.exponent_minus, term.exponent_plus):
            if e <= m:
                total += term.sign * sigma0(m - e)
    return total
