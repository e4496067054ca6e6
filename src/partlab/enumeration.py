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
  states, without visiting the partitions one by one.

Neither uses generating-function knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

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


def resolve_cap() -> int:
    """Effective enumeration cap: the PARTLAB_MAX_N environment variable,
    else the built-in default."""
    return resolve_limit(CAP_ENV_VAR, DEFAULT_CAP)


def _check_request(n: int) -> None:
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


def _fold_transfer(n: int, bound: int | None, fold: Fold) -> tuple[int, ...]:
    """Sum of the fold's value over every constrained partition of each
    weight 0..n, by dynamic programming over fold states.

    ``rows[state][w]`` counts the partitions of weight w into the parts seen
    so far that reach ``state``.  Parts are taken from n down to 1, the order
    the folds assume: multiplicity 0 keeps the state, and each multiplicity
    m >= 1 adds the row, shifted by part * m, into the row of
    ``step(state, part, m)``.  A dead step skips only that multiplicity,
    since a larger one may qualify again.
    """
    init, step, value = fold
    rows = {init: [1] + [0] * n}
    for part in range(n, 0, -1):
        most = n // part if bound is None else min(n // part, bound)
        merged = {state: row[:] for state, row in rows.items()}
        for state, row in rows.items():
            low = next(w for w, count in enumerate(row) if count)
            for mult in range(1, min(most, (n - low) // part) + 1):
                nxt = step(state, part, mult)
                if nxt is None:
                    continue
                target = merged.get(nxt)
                if target is None:
                    merged[nxt] = target = [0] * (n + 1)
                shift = part * mult
                target[shift:] = [a + b for a, b in zip(target[shift:], row)]
        rows = merged
    table = [0] * (n + 1)
    for state, row in rows.items():
        worth = value(state)
        if worth:
            table = [t + worth * count for t, count in zip(table, row)]
    return tuple(table)
