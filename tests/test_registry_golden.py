"""Golden family registry.

``golden_registry.json`` holds one ``[id, kind, param_names, description]``
row per registered family, in ``family_ids()`` order.  It was frozen from the
registry that declared every family one by one with a hand-set kind, before
each parity line was declared once; do not re-freeze it to make a changed
program pass.
"""

import json
from pathlib import Path

from partlab import families

GOLDEN = Path(__file__).with_name("golden_registry.json")


def test_registry_matches_golden():
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 30
    assert list(families.family_ids()) == [row[0] for row in rows]
    for family, kind, param_names, description in rows:
        spec = families.get_spec(family)
        assert (spec.kind, list(spec.param_names), spec.description) == (
            kind, param_names, description), family
