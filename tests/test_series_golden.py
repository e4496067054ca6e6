"""Golden digests of the closed-form series.

``golden_series.json`` holds one ``[family, params, order, digest]`` row for
every ``closed_form_cells()`` cell at order 300, plus a_np(p=5) and
g_alpha_odd(alpha=2, k=2, p=3) at order 2000.  The digest is the sha256 of
the comma-joined coefficients.  It was frozen from the dense kernel that
rebuilt and inverted (q;q)_inf in every build, before ``mul`` and
``inverse`` went sparse and the partition series was shared; do not
re-freeze it to make a changed program pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from partlab import qseries

GOLDEN = Path(__file__).with_name("golden_series.json")


@pytest.mark.parametrize("held_order", [None, 2500])
def test_series_match_golden(monkeypatch, held_order):
    # Checked from an empty partition-series holder, which then grows from
    # order 300 to 2000, and with a deeper series already held, so that every
    # build reads a prefix of it.
    monkeypatch.setattr(qseries, "_partition_series", [])
    if held_order is not None:
        qseries.gf_family("s", {}, held_order)
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 214
    for family, params, order, digest in rows:
        coeffs = qseries.gf_family(family, params, order).coeffs
        assert len(coeffs) == order + 1
        assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest, (
            family, params, order)
