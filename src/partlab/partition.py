"""Canonical integer partitions stored as (part, multiplicity) pairs.

A partition is an immutable multiset of positive integers.  The canonical
form keeps one pair per distinct part, parts strictly decreasing, every
multiplicity >= 1, and caches the weight (sum of part * multiplicity).
"""

from __future__ import annotations

import re
from operator import mul
from typing import Iterable

from .errors import InvalidPartitionError

Pair = tuple[int, int]

_ITEM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


class Partition:
    """Immutable multiset of positive parts in canonical decreasing order."""

    __slots__ = ("pairs", "weight")

    pairs: tuple[Pair, ...]
    weight: int

    def __init__(self, pairs: Iterable[Pair] = ()):
        """Canonicalize arbitrary (part, multiplicity) input: duplicate parts
        merge by summing multiplicities, zero multiplicities are dropped and
        parts sort in decreasing order.  Raises InvalidPartitionError for
        parts <= 0 or negative multiplicities."""
        merged: dict[int, int] = {}
        for item in pairs:
            try:
                part, mult = item
            except (TypeError, ValueError):
                raise InvalidPartitionError(f"expected (part, multiplicity) pair, got {item!r}") from None
            # A plain int skips the isinstance tests, which exist to let int
            # subclasses other than bool through.
            if (type(part) is not int and (not isinstance(part, int) or isinstance(part, bool))
                    or part <= 0):
                raise InvalidPartitionError(f"part must be a positive integer, got {part!r}")
            if (type(mult) is not int and (not isinstance(mult, int) or isinstance(mult, bool))
                    or mult < 0):
                raise InvalidPartitionError(f"multiplicity must be a nonnegative integer, got {mult!r}")
            if mult:
                merged[part] = merged.get(part, 0) + mult
        self.pairs = tuple(sorted(merged.items(), reverse=True))
        self.weight = sum(map(mul, merged, merged.values()))

    @classmethod
    def _raw(cls, pairs: tuple[Pair, ...], weight: int) -> "Partition":
        """Wrap already-canonical pairs without validation (internal fast path)."""
        self = object.__new__(cls)
        self.pairs = pairs
        self.weight = weight
        return self

    def is_empty(self) -> bool:
        return not self.pairs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __str__(self) -> str:
        return format_partition(self)

    def __repr__(self) -> str:
        return f"Partition({format_partition(self)!r})"


def format_partition(p: Partition) -> str:
    """Render the text form, e.g. ``13^10,7^30,1`` (``-`` for the empty one)."""
    if not p.pairs:
        return "-"
    return ",".join(f"{part}^{mult}" if mult > 1 else str(part) for part, mult in p.pairs)


def parse_partition(text: str) -> Partition:
    """Parse the text grammar: comma-separated ``P`` or ``P^M`` items.

    Input order is free; the result is canonical.  ``-`` (or an empty string)
    denotes the empty partition.
    """
    body = text.strip()
    if body in ("", "-"):
        return Partition()
    pairs = []
    for item in body.split(","):
        item = item.strip()
        m = _ITEM_RE.match(item)
        if not m:
            raise InvalidPartitionError(f"bad partition item {item!r} in {text!r}")
        part = int(m.group(1))
        mult = int(m.group(2)) if m.group(2) is not None else 1
        pairs.append((part, mult))
    return Partition(pairs)
