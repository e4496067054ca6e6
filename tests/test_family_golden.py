"""Golden values of every registered family by enumeration.

``golden_families.json`` holds one ``[family, params, values]`` row per
default cell: ``closed_form_cells()`` plus c_o, c_e, b_o, b_e, b, b_prime,
g_r_odd/even over the g_r grid, d_k for k = 2..6 and glaisher_left/right for
t = 2..5.  Values run over n = 0..40, and over n = 0..60 for d_e and d_o.
It was frozen from the per-partition predicate code that the pruned fold walk
replaced; do not re-freeze it to make a changed program pass.
"""

import json
from pathlib import Path

from partlab import families

GOLDEN = Path(__file__).with_name("golden_families.json")


def test_family_values_match_golden():
    rows = json.loads(GOLDEN.read_text())
    assert {family for family, _, _ in rows} == set(families.family_ids())
    for family, params, values in rows:
        top = len(values) - 1
        assert top == (60 if family in ("d_e", "d_o") else 40)
        assert list(families.enum_values(family, top, params)) == values, (family, params)


def test_pruned_walk_matches_per_partition_fold():
    # The walk prunes dead subtrees; class enumeration runs the same fold
    # over every materialised partition without pruning.
    rows = json.loads(GOLDEN.read_text())
    cells = [(family, params) for family, params, _ in rows
             if families.get_spec(family).kind == "class"]
    assert len(cells) > 100
    for family, params in cells:
        values = families.enum_values(family, 20, params)
        for n in range(21):
            assert values[n] == len(families.enumerate_class(family, n, params)), (family, params, n)
