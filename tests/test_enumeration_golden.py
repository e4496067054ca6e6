"""Golden pair sequences of the enumeration kernel.

``golden_enumeration.json`` maps each multiplicity bound (None, 1..4) to one
``[count, sha256]`` row per n = 0..42, where the digest runs over
``repr(pairs) + "\\n"`` for every pair tuple in generation order.  The range
crosses the cache limit at 40, so both the cached and the streamed path are
pinned.  It was frozen from the two-generator code that the single kernel
replaced; do not re-freeze it to make a changed program pass.
"""

import hashlib
import json
from pathlib import Path

from partlab import enumeration
from partlab.enumeration import ALL, EnumKind

GOLDEN = Path(__file__).with_name("golden_enumeration.json")


def digest(n: int, kind: EnumKind) -> list:
    h = hashlib.sha256()
    count = 0
    for pairs in enumeration.pair_sequences(n, kind):
        h.update(repr(pairs).encode())
        h.update(b"\n")
        count += 1
    return [count, h.hexdigest()]


def test_pair_sequences_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert enumeration._CACHE_LIMIT < 42
    for label, rows in golden.items():
        bound = None if label == "None" else int(label)
        kind = EnumKind(f"bound {label}", bound)
        assert len(rows) == 43
        assert [digest(n, kind) for n in range(43)] == rows, label


def test_cached_pairs_are_interned():
    seqs = enumeration.pair_sequences(30, ALL)
    pairs = [pair for seq in seqs for pair in seq]
    assert len({id(pair) for pair in pairs}) == len(set(pairs))
