"""Golden front-end output.

``golden_cli.json`` holds one ``{"argv", "exit", "stdout"}`` row per
invocation: ``verify all`` in the pretty, CSV and JSON formats, with
``--engine both``, ``--engine series``, ``--jobs 2`` and ``--n-max 1``;
``verify I15 --n-max 1``; ``table`` rows by both engines in all three
formats; and the CSV of ``series F --order N`` for a_np (p=5), d_e and s.
Report timings (the ``ms`` field of the CSV and JSON reports) are masked
to 0 on both sides.  It was frozen from the code that still had the
``series`` subcommand, which is gone: its rows are now checked against
``table F 0..N --engine series``.  Do not re-freeze it to make a changed
program pass.
"""

import json
import re
from pathlib import Path

from partlab import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")


def mask(argv, out):
    """``out`` with every report timing set to 0."""
    if argv[0] != "verify":
        return out
    if "json" in argv:
        return re.sub(r'"ms": \d+', '"ms": 0', out)
    if "csv" in argv:
        return re.sub(r",\d+$", ",0", out, flags=re.M)
    return out


def as_table(argv):
    """``series F [flags] --order N`` as ``table F 0..N [flags] --engine series``."""
    if argv[0] != "series":
        return argv
    order = argv.index("--order")
    flags = argv[2:order] + argv[order + 2:]
    return ["table", argv[1], f"0..{argv[order + 1]}", *flags, "--engine", "series"]


def test_cli_output_matches_golden(capsys):
    rows = json.loads(GOLDEN.read_text())
    assert len(rows) == 36
    assert sum(row["argv"][0] == "series" for row in rows) == 4
    for row in rows:
        code = cli.main(as_table(row["argv"]))
        out = mask(row["argv"], capsys.readouterr().out)
        assert (code, out) == (row["exit"], row["stdout"]), row["argv"]
