"""Exhaustive generation and counting of partitions of n under multiplicity
constraints.

This is the brute-force oracle substrate, in two parts behind the one entry
point ``pair_sequences``:

* Materialising (no fold): ``_walk`` yields the constrained partitions of
  weight n as canonical pair tuples for ``generate``, class enumeration and
  the bijection sweeps, with one interned ``(part, mult)`` tuple per value;
  for small n the result is cached and shared.  Order is deterministic
  (lexicographically decreasing part sequences) so diffs stay stable.
* Counting (a fold): ``_fold_transfer`` sums each family's per-pair fold
  over every partition of each weight 0..n by dynamic programming over fold
  states, without visiting the partitions one by one.  A state's counts by
  weight are packed into one int, ``_slot_bits(n)`` bits per weight, a
  width that holds p(n); so moving a row by one (part, mult) pair is one
  shift, one mask and one add.

Neither uses generating-function knowledge.
"""

from __future__ import annotations

from math import isqrt
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .errors import DomainError, ResourceLimitError
from .limits import resolve_limit
from .partition import Pair, Partition

DEFAULT_CAP = 80
CAP_ENV_VAR = "PARTLAB_MAX_N"

# Sequences are memoized up to this weight; larger requests stream.
_CACHE_LIMIT = 40

PairSeq = tuple[Pair, ...]

# A fold is (init, step, value) over the (part, mult) pairs of a partition in
# decreasing part order: step(state, part, mult) gives the next state, or None
# when the pair disqualifies the partition; value(state) is what a partition
# ending in that state contributes.  States must be hashable.
Fold = tuple[Any, Callable[[Any, int, int], Any], Callable[[Any], int]]


class _EnumKindFields(NamedTuple):
    label: str
    bound: int | None


class EnumKind(_EnumKindFields):
    """Multiplicity constraint: ``bound`` is the largest multiplicity allowed
    per part, or None for unrestricted.  An immutable record whose
    construction rejects a bound below 1."""

    __slots__ = ()

    def __new__(cls, label: str, bound: int | None) -> EnumKind:
        if bound is not None and bound < 1:
            raise DomainError(f"multiplicity bound must be >= 1, got {bound}")
        return super().__new__(cls, label, bound)

    @classmethod
    def _make(cls, iterable: Iterable) -> EnumKind:
        # _replace builds through _make, which would skip the check.
        return cls(*iterable)


ALL = EnumKind("all", None)
DISTINCT = EnumKind("distinct", 1)


def multiplicity_at_most(b: int) -> EnumKind:
    return EnumKind(f"multiplicity_at_most({b})", b)


def resolve_cap() -> int:
    """Effective enumeration cap: the PARTLAB_MAX_N environment variable,
    else the built-in default."""
    return resolve_limit(CAP_ENV_VAR, DEFAULT_CAP)


def _check_request(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"partition weight {n!r} must be an integer")
    if n < 0:
        raise DomainError(f"partition weight must be nonnegative, got {n}")
    limit = resolve_cap()
    if n > limit:
        raise ResourceLimitError(
            f"enumeration of n={n} exceeds the cap {limit} (raise it via {CAP_ENV_VAR})"
        )


_cache: dict[tuple[int, int | None], tuple[PairSeq, ...]] = {}


def _walk(n: int, bound: int | None) -> Iterator[PairSeq]:
    """Every constrained partition of n as a canonical pair tuple, in
    lexicographically decreasing order of the part sequence.

    Pairs are interned per call: ``rows[part][mult]`` holds the one
    ``(part, mult)`` tuple that every yielded sequence shares.
    """
    if n == 0:
        yield ()
        return
    rows = [()] + [tuple((part, mult) for mult in range(n // part + 1)) for part in range(1, n + 1)]
    prefix: list[Pair] = []

    def rec(remaining: int, max_part: int) -> Iterator[PairSeq]:
        top = remaining if remaining < max_part else max_part
        for part in range(top, 1, -1):
            row = rows[part]
            most = remaining // part
            if bound is not None and most > bound:
                most = bound
            for mult in range(most, 0, -1):
                rest = remaining - part * mult
                prefix.append(row[mult])
                if rest == 0:
                    yield tuple(prefix)
                else:
                    yield from rec(rest, part - 1)
                prefix.pop()
        if bound is None or remaining <= bound:
            prefix.append(rows[1][remaining])
            yield tuple(prefix)
            prefix.pop()

    yield from rec(n, n)


def pair_sequences(n: int, kind: EnumKind = ALL, *,
                   fold: Fold | None = None) -> Iterable[PairSeq] | tuple[int, ...]:
    """Walk the constrained pair sequences of the kind.

    Without a fold: the canonical pair tuples of weight n, from ``_walk``; a
    tuple cached per (n, bound) and reusable for n <= _CACHE_LIMIT, the live
    generator (single pass) above it.  Either way the pairs are interned, so
    cached sequences share their pair objects.

    With a fold: the fold's total over the sequences of each weight 0..n,
    counted by ``_fold_transfer`` without materialising them.
    """
    _check_request(n)
    if fold is not None:
        return _fold_transfer(n, kind.bound, fold)
    if n > _CACHE_LIMIT:
        return _walk(n, kind.bound)
    key = (n, kind.bound)
    got = _cache.get(key)
    if got is None:
        _cache[key] = got = tuple(_walk(n, kind.bound))
    return got


def generate(n: int, kind: EnumKind = ALL) -> Iterator[Partition]:
    """Yield each qualifying partition of weight n exactly once.

    For n=0 yields exactly the empty partition.  Raises ResourceLimitError
    when n exceeds the enumeration cap (``resolve_cap``).
    """
    raw = Partition._raw
    for pairs in pair_sequences(n, kind):
        yield raw(pairs, n)


def _slot_bits(n: int) -> int:
    """Bits per slot of a packed row in ``_fold_transfer`` to weight n.

    A slot holds a count of partitions of some weight w <= n, so at most
    p(w) <= p(n), and each of two bounds gives a width that holds p(n); the
    smaller is taken.  First, p(w) <= 2^(w - 1) for w >= 1 (each partition
    of w is read off a composition of w, and there are 2^(w - 1) of those),
    and p(0) = 1, so n + 1 bits suffice.  Second, p(n) < e^(pi*sqrt(2n/3))
    < 2^(3.71*sqrt(n)) for n >= 1 (Apostol, Introduction to Analytic Number
    Theory, ch. 14), and 3.71*sqrt(n) < 4*isqrt(n) + 4, so 4*isqrt(n) + 4
    bits suffice.  The width only sizes storage: no count is derived from
    it.
    """
    return min(n + 1, 4 * isqrt(n) + 4)


def _fold_transfer(n: int, bound: int | None, fold: Fold) -> tuple[int, ...]:
    """Sum of the fold's value over every constrained partition of each
    weight 0..n, by dynamic programming over fold states.

    ``rows[state]`` counts the partitions of each weight w into the parts
    seen so far that reach ``state``, packed into one int: slot w, the bits
    b*w .. b*w + b - 1 with b = ``_slot_bits(n)``, holds the count for
    weight w.  Counts are never negative and never exceed p(n) < 2^b, so
    adding two rows never carries from one slot into the next.  Parts are
    taken from n down to 1, the order the folds assume: multiplicity 0 keeps
    the state, and each multiplicity m >= 1 adds the row, shifted up by
    part * m slots and cut at slot n, into the row of ``step(state, part,
    m)``.  A dead step skips only that multiplicity, since a larger one may
    qualify again.  The rows are summed per value and unpacked once at the
    end; each partition reaches one state, so these sums fit their slots
    too.
    """
    init, step, value = fold
    bits = _slot_bits(n)
    width = bits * (n + 1)
    mask = (1 << width) - 1
    rows = {init: 1}
    for part in range(n, 0, -1):
        most = n // part if bound is None else min(n // part, bound)
        shift = bits * part
        merged = dict(rows)
        for state, row in rows.items():
            low = ((row & -row).bit_length() - 1) // bits  # least weight counted
            for mult in range(1, min(most, (n - low) // part) + 1):
                nxt = step(state, part, mult)
                if nxt is None:
                    continue
                merged[nxt] = merged.get(nxt, 0) + ((row << shift * mult) & mask)
        rows = merged
    by_worth: dict[int, int] = {}
    for state, row in rows.items():
        worth = value(state)
        if worth:
            by_worth[worth] = by_worth.get(worth, 0) + row
    # Slot w is the run of binary digits that ends width - bits*w digits in:
    # one conversion to text per row, linear in its length.
    table = [0] * (n + 1)
    for worth, row in by_worth.items():
        digits = format(row, "b").zfill(width)
        table = [t + worth * int(digits[at - bits:at], 2) for t, at in zip(table, range(width, 0, -bits))]
    return tuple(table)
