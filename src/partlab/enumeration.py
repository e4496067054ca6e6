"""Exhaustive generation of partitions of n under multiplicity constraints.

This is the brute-force oracle substrate: every counting family can be
evaluated by sweeping these streams.  Generation order is deterministic
(lexicographically decreasing part sequences) so diffs stay stable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DomainError, ResourceLimitError
from .partition import Pair, Partition

DEFAULT_CAP = 80
CAP_ENV_VAR = "PARTLAB_MAX_N"

# Full partition lists are memoized up to this weight; larger requests stream.
_CACHE_LIMIT = 40

PairSeq = tuple[Pair, ...]


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


def _build_list(n: int, bound: int | None) -> tuple[PairSeq, ...]:
    """All constrained partitions of n as canonical pair tuples, in
    lexicographically decreasing order of the part sequence."""
    out: list[PairSeq] = []
    pool: dict[Pair, Pair] = {}

    def pair(p: int, m: int) -> Pair:
        key = (p, m)
        got = pool.get(key)
        if got is None:
            pool[key] = got = key
        return got

    prefix: list[Pair] = []

    def rec(remaining: int, max_part: int) -> None:
        top = remaining if remaining < max_part else max_part
        for part in range(top, 1, -1):
            most = remaining // part
            if bound is not None and most > bound:
                most = bound
            for mult in range(most, 0, -1):
                rest = remaining - part * mult
                prefix.append(pair(part, mult))
                if rest == 0:
                    out.append(tuple(prefix))
                else:
                    rec(rest, part - 1)
                prefix.pop()
        if bound is None or remaining <= bound:
            prefix.append(pair(1, remaining))
            out.append(tuple(prefix))
            prefix.pop()

    if n == 0:
        return ((),)
    rec(n, n)
    return tuple(out)


_cache: dict[tuple[int, int | None], tuple[PairSeq, ...]] = {}


def _stream(remaining: int, max_part: int, bound: int | None, prefix: list[Pair]) -> Iterator[PairSeq]:
    top = remaining if remaining < max_part else max_part
    for part in range(top, 1, -1):
        most = remaining // part
        if bound is not None and most > bound:
            most = bound
        for mult in range(most, 0, -1):
            rest = remaining - part * mult
            prefix.append((part, mult))
            if rest == 0:
                yield tuple(prefix)
            else:
                yield from _stream(rest, part - 1, bound, prefix)
            prefix.pop()
    if bound is None or remaining <= bound:
        prefix.append((1, remaining))
        yield tuple(prefix)
        prefix.pop()


def pair_sequences(n: int, kind: EnumKind = ALL, cap: int | None = None) -> Iterable[PairSeq]:
    """Low-overhead enumeration path: canonical pair tuples instead of
    Partition objects.  Cached (and reusable) for small n, streamed otherwise."""
    _check_request(n, cap)
    bound = kind.bound
    if n <= _CACHE_LIMIT:
        key = (n, bound)
        got = _cache.get(key)
        if got is None:
            _cache[key] = got = _build_list(n, bound)
        return got
    if n == 0:
        return ((),)
    return _stream(n, n, bound, [])


def generate(n: int, kind: EnumKind = ALL, cap: int | None = None) -> Iterator[Partition]:
    """Yield each qualifying partition of weight n exactly once.

    For n=0 yields exactly the empty partition.  Raises ResourceLimitError
    when n exceeds the enumeration cap.
    """
    raw = Partition._raw
    for pairs in pair_sequences(n, kind, cap):
        yield raw(pairs, n)


def clear_cache() -> None:
    """Drop memoized enumeration lists (mainly for tests)."""
    _cache.clear()
