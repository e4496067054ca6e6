"""Golden digests of the closed-form series.

``golden_series.json`` holds one ``[family, params, order, digest]`` row for
every ``closed_form_cells()`` cell at order 300, plus a_np(p=5) and
g_alpha_odd(alpha=2, k=2, p=3) at order 2000.  ``golden_series_deep.json``
holds seven cells at order 10 000, among them f_pkr(3,4,1), whose numerator
is not a theta product.  ``golden_series_dense.json`` holds every
``closed_form_cells()`` cell whose numerator (q^c; q^step)_inf has c != step
(d_o, f2, and f_pkr and d_pkr with r != 0: 62 cells) at order 1000.  The
digest is the sha256 of the comma-joined coefficients.  The first table was
frozen from the dense kernel that rebuilt and inverted (q;q)_inf in every
build, the second from the kernel that held one inverted partition series,
both before every closed form became numerator x sum / (q;q)_inf, and the
third from the kernel that multiplied a dense pochhammer numerator into the
sum, before the numerator was applied factor by factor; do not re-freeze any
of them to make a changed program pass.
"""

import hashlib
import json
from pathlib import Path

from partlab import qseries

HERE = Path(__file__).parent


def _check(golden, rows):
    table = json.loads((HERE / golden).read_text())
    assert len(table) == rows
    for family, params, order, digest in table:
        coeffs = qseries.gf_family(family, params, order).coeffs
        assert len(coeffs) == order + 1
        assert hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest() == digest, (
            family, params, order)


def test_series_match_golden():
    _check("golden_series.json", 214)


def test_deep_series_match_golden():
    _check("golden_series_deep.json", 7)


def test_dense_numerator_series_match_golden():
    _check("golden_series_dense.json", 62)
