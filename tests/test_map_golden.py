"""Golden ``partlab map`` output.

``golden_map_traces.json`` holds one ``{"argv", "exit", "stdout"}`` row per
invocation, each in the default pretty format and with ``--format json``:
all four maps in both directions on the README examples, the seven
(p,k,r) = (3,4,1) pairs of acceptance criterion 2, the n = 433 ``dpk``
example, the empty partition ``-``, and four domain violations (exit 4).
It was frozen from the code that declared a traced and an untraced
function per map direction, before the table kept only the untraced
cores; do not re-freeze it to make a changed program pass.
"""

import json
from pathlib import Path

from partlab import cli

GOLDEN = Path(__file__).with_name("golden_map_traces.json")


def test_map_output_matches_golden(capsys):
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 82
    for row in rows:
        code = cli.main(row["argv"])
        out = capsys.readouterr().out
        assert (code, out) == (row["exit"], row["stdout"]), row["argv"]
