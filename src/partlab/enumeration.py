"""Exhaustive generation of partitions of n under multiplicity constraints.

This is the brute-force oracle substrate.  ``pair_sequences`` walks the
constrained partitions as canonical pair tuples in one of two ways:

* Materialising (no fold): ``_walk`` yields the tuples of weight n for
  ``generate`` and class enumeration, with one interned ``(part, mult)``
  tuple per value; for small n the result is cached and shared.
* Reducing (a fold): ``_fold_walk`` visits every decreasing (part, mult)
  prefix of weight <= n once, folds each family's per-pair step and adds its
  value at the prefix's weight, so one pass fills n = 0..N.  A step that can
  no longer qualify cuts the whole subtree.

The walks stay separate because they visit different trees: the first only
prefixes that complete to weight n, the second every weight up to n.  Neither
uses generating-function knowledge.  Order is deterministic (lexicographically
decreasing part sequences) so diffs stay stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .errors import DomainError, ResourceLimitError
from .partition import Pair, Partition

DEFAULT_CAP = 80
CAP_ENV_VAR = "PARTLAB_MAX_N"

# Sequences are memoized up to this weight; larger requests stream.
_CACHE_LIMIT = 40

PairSeq = tuple[Pair, ...]

# A fold is (init, step, value): step(state, part, mult) gives the next state,
# or None once no extension of the prefix can qualify; value(state) is what
# the prefix contributes at its weight.
Fold = tuple[Any, Callable[[Any, int, int], Any], Callable[[Any], int]]


@dataclass(frozen=True)
class EnumKind:
    """Multiplicity constraint: ``bound`` is the largest multiplicity allowed
    per part, or None for unrestricted."""

    label: str
    bound: int | None

    def __post_init__(self) -> None:
        if self.bound is not None and self.bound < 1:
            raise DomainError(f"multiplicity bound must be >= 1, got {self.bound}")


ALL = EnumKind("all", None)
DISTINCT = EnumKind("distinct", 1)


def multiplicity_at_most(b: int) -> EnumKind:
    return EnumKind(f"multiplicity_at_most({b})", b)


def resolve_cap(cap: int | None = None) -> int:
    """Effective enumeration cap: explicit argument, else the PARTLAB_MAX_N
    environment variable, else the built-in default."""
    if cap is not None:
        if cap < 0:
            raise DomainError(f"cap must be nonnegative, got {cap}")
        return cap
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise DomainError(f"{CAP_ENV_VAR} must be nonnegative, got {value}")
    return value


def _check_request(n: int, cap: int | None) -> None:
    if n < 0:
        raise DomainError(f"partition weight must be nonnegative, got {n}")
    limit = resolve_cap(cap)
    if n > limit:
        raise ResourceLimitError(
            f"enumeration of n={n} exceeds the cap {limit} "
            f"(raise it via the cap argument or {CAP_ENV_VAR})"
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


def pair_sequences(n: int, kind: EnumKind = ALL, cap: int | None = None,
                   fold: Fold | None = None) -> Iterable[PairSeq] | tuple[int, ...]:
    """Walk the constrained pair sequences of the kind.

    Without a fold: the canonical pair tuples of weight n, from ``_walk``; a
    tuple cached per (n, bound) and reusable for n <= _CACHE_LIMIT, the live
    generator (single pass) above it.  Either way the pairs are interned, so
    cached sequences share their pair objects.

    With a fold: the walk reduces instead of materialising, and returns the
    fold's total over the sequences of each weight 0..n.
    """
    _check_request(n, cap)
    if fold is not None:
        return _fold_walk(n, kind.bound, fold)
    if n > _CACHE_LIMIT:
        return _walk(n, kind.bound)
    key = (n, kind.bound)
    got = _cache.get(key)
    if got is None:
        _cache[key] = got = tuple(_walk(n, kind.bound))
    return got


def generate(n: int, kind: EnumKind = ALL, cap: int | None = None) -> Iterator[Partition]:
    """Yield each qualifying partition of weight n exactly once.

    For n=0 yields exactly the empty partition.  Raises ResourceLimitError
    when n exceeds the enumeration cap.
    """
    raw = Partition._raw
    for pairs in pair_sequences(n, kind, cap):
        yield raw(pairs, n)


def _fold_walk(n: int, bound: int | None, fold: Fold) -> tuple[int, ...]:
    """Sum of the fold's value over every constrained partition of each
    weight 0..n, in one depth-first pass.

    Every prefix of decreasing (part, mult) pairs is itself a partition, so
    each node adds its value at its own weight.  A dead step skips only that
    multiplicity: the next one may qualify again.
    """
    init, step, value = fold
    table = [0] * (n + 1)
    table[0] = value(init)

    def rec(weight: int, top: int, state: Any) -> None:
        room = n - weight
        for part in range(top, 0, -1):
            most = room // part
            if bound is not None and most > bound:
                most = bound
            w = weight
            for mult in range(1, most + 1):
                w += part
                nxt = step(state, part, mult)
                if nxt is None:
                    continue
                table[w] += value(nxt)
                if part > 1 and w < n:
                    rec(w, min(part - 1, n - w), nxt)

    rec(0, n, init)
    return tuple(table)
